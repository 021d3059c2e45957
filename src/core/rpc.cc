#include "core/rpc.h"

#include <cassert>

namespace homa {

RpcEndpoint::RpcEndpoint(Network& net, HostId self)
    : net_(net),
      self_(self),
      scan_(net.loop(), [this] { checkTimeouts(); }) {
    handler_ = [](const Message& request) { return request.length; };  // echo
    Transport& t = net_.host(self_).transport();
    t.setDeliveryCallback([this](const Message& m, const DeliveryInfo& info) {
        onDelivered(m, info);
    });
    if (auto* homa = dynamic_cast<HomaTransport*>(&t)) {
        homa->setUnknownResendHandler(
            [this](const Packet& p) { onUnknownResend(p); });
    }
}

RpcId RpcEndpoint::call(HostId server, uint32_t requestSize, ResponseCallback cb) {
    Message req;
    req.id = net_.nextMsgId() << 1;  // keep the top bit free for responses
    req.src = self_;
    req.dst = server;
    req.length = requestSize;
    req.flags = kFlagRequest;
    // Self-inflicted incast detection (§3.6): mark requests once too many
    // RPCs are outstanding so the server limits the response's unscheduled
    // bytes.
    if (static_cast<int>(pending_.size()) >= incastThreshold_) {
        req.flags |= kFlagIncastMark;
    }

    // Send first: a request the network rejects (it throws) must leave no
    // pending entry, or the timeout scan would RESEND to a bad server.
    net_.sendMessage(req);
    pending_.emplace(req.id, PendingRpc{server, requestSize, net_.loop().now(),
                                        std::move(cb), 0});
    stats_.issued++;
    if (!scan_.armed()) scan_.schedule(responseTimeout_ / 2);
    return req.id;
}

bool RpcEndpoint::cancel(RpcId id) {
    const auto it = pending_.find(id);
    if (it == pending_.end()) return false;
    pending_.erase(it);
    stats_.cancelled++;
    return true;
}

void RpcEndpoint::respond(const Message& request, uint32_t responseSize) {
    Message resp;
    resp.id = request.id | kRpcResponseBit;
    resp.src = self_;
    resp.dst = request.src;
    resp.length = std::max<uint32_t>(1, responseSize);
    // Propagate the incast mark so the response's unscheduled bytes are
    // capped (the whole point of the mechanism).
    resp.flags = static_cast<uint16_t>(request.flags & kFlagIncastMark);
    answered_[resp.id] = resp.length;
    if (answered_.size() > 16384) answered_.erase(answered_.begin());
    net_.sendMessage(resp);
}

void RpcEndpoint::onDelivered(const Message& m, const DeliveryInfo& info) {
    (void)info;
    if ((m.flags & kFlagRequest) != 0) {
        // Server side: execute and respond. Re-arrival of a request we
        // already answered means re-execution (at-least-once).
        if (answered_.count(m.id | kRpcResponseBit) != 0) stats_.reexecutions++;
        if (asyncHandler_) {
            // Deferred: the handler answers when its own work (e.g. child
            // RPCs) completes. Copy the request; `m` dies with this frame.
            asyncHandler_(m, [this, req = m](uint32_t responseSize) {
                respond(req, responseSize);
            });
            return;
        }
        respond(m, handler_(m));
        return;
    }
    if (!isResponseId(m.id)) return;  // plain one-way message, not ours
    auto it = pending_.find(requestIdOf(m.id));
    if (it == pending_.end()) return;  // duplicate response after retry
    PendingRpc rpc = std::move(it->second);
    pending_.erase(it);
    stats_.completed++;
    if (rpc.cb) {
        rpc.cb(requestIdOf(m.id), rpc.requestSize, m.length,
               net_.loop().now() - rpc.issued);
    }
}

void RpcEndpoint::onUnknownResend(const Packet& p) {
    // Someone wants a message this transport no longer has.
    if (isResponseId(p.msg)) {
        // Client RESENDing a response we forgot: ask for the request again;
        // its re-delivery re-executes the RPC (§3.7).
        auto it = answered_.find(p.msg);
        if (it != answered_.end()) {
            // Regenerate the response without re-execution.
            Message req;
            req.id = requestIdOf(p.msg);
            req.src = self_;  // respond() flips src/dst via request fields
            req.dst = p.src;
            req.flags = kFlagRequest;
            Message fake;
            fake.id = req.id;
            fake.src = p.src;
            fake.dst = self_;
            fake.length = 1;
            respond(fake, it->second);
            return;
        }
        Packet r;
        r.type = PacketType::Resend;
        r.dst = p.src;
        r.msg = requestIdOf(p.msg);
        r.offset = 0;
        r.length = kMaxPayload;
        r.priority = kHighestPriority;
        net_.host(self_).pushPacket(r);
    }
}

void RpcEndpoint::checkTimeouts() {
    const Time now = net_.loop().now();
    for (auto it = pending_.begin(); it != pending_.end();) {
        PendingRpc& rpc = it->second;
        // Exponential backoff: deliberate incast legitimately delays
        // responses for many milliseconds; do not storm the server.
        const Duration wait = responseTimeout_ * (1ll << std::min(rpc.retries, 6));
        if (now - rpc.issued < wait) {
            ++it;
            continue;
        }
        if (rpc.retries >= maxRetries_) {
            stats_.aborted++;
            it = pending_.erase(it);
            continue;
        }
        // RESEND for the response (even if the request never fully made it;
        // the server answers a RESEND for an unknown response by RESENDing
        // the request, §3.7).
        Packet r;
        r.type = PacketType::Resend;
        r.dst = rpc.server;
        r.msg = it->first | kRpcResponseBit;
        r.offset = 0;
        r.length = kMaxPayload;
        r.priority = kHighestPriority;
        net_.host(self_).pushPacket(r);
        rpc.retries++;
        stats_.retries++;
        ++it;
    }
    if (!pending_.empty()) scan_.schedule(responseTimeout_ / 2);
}

}  // namespace homa
