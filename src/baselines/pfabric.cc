#include "baselines/pfabric.h"

#include <algorithm>
#include <cassert>

namespace homa {

PFabricTransport::PFabricTransport(HostServices& host, int64_t windowBytes,
                                   Duration rto)
    : host_(host),
      windowBytes_(windowBytes),
      rto_(rto),
      rtoScan_(host.loop(), [this] { checkTimeouts(); }) {}

void PFabricTransport::sendMessage(const Message& m) {
    OutMessage om(m);
    om.lastAckActivity = host_.loop().now();
    auto it = out_.emplace(m.id, std::move(om)).first;
    syncSendable(it->second);
    if (!rtoScan_.armed()) rtoScan_.schedule(rto_);
    host_.kickNic();
}

void PFabricTransport::syncSendable(const OutMessage& om) {
    if (om.sendable(windowBytes_)) {
        sendable_.upsert(om.msg.id, om.remaining());
    } else {
        sendable_.erase(om.msg.id);
    }
}

std::optional<Packet> PFabricTransport::pullPacket() {
    // Sender-side SRPT by remaining (unacked) bytes.
    const auto id = sendable_.best();
    if (!id) return std::nullopt;
    OutMessage* best = &out_.at(*id);

    uint32_t offset, chunk;
    bool retrans = false;
    if (best->retransmit.has_value()) {
        offset = best->retransmit->first;
        chunk = std::min<uint32_t>(best->retransmit->second, kMaxPayload);
        best->retransmit.reset();
        retrans = true;
        retransmissions_++;
    } else {
        offset = static_cast<uint32_t>(best->nextOffset);
        chunk = static_cast<uint32_t>(
            std::min<int64_t>(kMaxPayload, best->msg.length - best->nextOffset));
        best->nextOffset += chunk;
        best->inFlight += chunk;
    }

    Packet p = dataPacket(best->msg, offset, chunk);
    if (retrans) p.setFlag(kFlagRetransmit);
    // pFabric's entire scheduling story: the packet carries the remaining
    // message size; switches sort by it. The 8-level `priority` field is
    // irrelevant here (PFabricQdisc ignores it for data) and stays 0.
    p.remaining = static_cast<uint32_t>(std::max<int64_t>(0, best->remaining()));
    syncSendable(*best);
    return p;
}

void PFabricTransport::handlePacket(const Packet& p) {
    if (p.type == PacketType::Ack) {
        auto it = out_.find(p.msg);
        if (it == out_.end()) return;
        OutMessage& om = it->second;
        const uint32_t fresh = om.acked.addRange(p.offset, p.length);
        om.inFlight = std::max<int64_t>(0, om.inFlight - fresh);
        om.lastAckActivity = host_.loop().now();
        if (om.acked.complete()) {
            sendable_.erase(p.msg);
            out_.erase(it);
        } else {
            syncSendable(om);
        }
        host_.kickNic();
        return;
    }
    if (p.type != PacketType::Data) return;

    // Per-packet ACK; carries the packet's range. ACKs ride the control
    // queue (tiny, never dropped by PFabricQdisc).
    Packet ack;
    ack.type = PacketType::Ack;
    ack.dst = p.src;
    ack.msg = p.msg;
    ack.offset = p.offset;
    ack.length = p.length;
    ack.priority = kHighestPriority;
    host_.pushPacket(ack);

    auto it = in_.try_emplace(p.msg, p).first;
    Inbound& im = it->second;
    im.add(p);
    if (im.reasm.complete()) {
        const Message meta = im.meta;
        const DeliveryInfo info = im.delivered(host_.loop().now());
        in_.erase(it);
        notifyDelivered(meta, info);
    }
}

void PFabricTransport::checkTimeouts() {
    const Time now = host_.loop().now();
    bool any = false;
    for (auto& [id, om] : out_) {
        any = true;
        if (now - om.lastAckActivity < rto_) continue;
        if (om.retransmit.has_value()) continue;
        // Retransmit the first unacked range; the in-flight estimate for
        // lost packets is stale, so reset it to what the window allows.
        auto gap = om.acked.firstGap();
        if (!gap.has_value()) continue;
        if (gap->first >= om.nextOffset) {
            // Nothing sent is unacked; the window was just idle.
            om.inFlight = 0;
            syncSendable(om);
            continue;
        }
        const uint32_t len = std::min<uint32_t>(gap->second, kMaxPayload);
        om.retransmit = std::make_pair(gap->first, len);
        om.inFlight = 0;
        om.lastAckActivity = now;
        syncSendable(om);
    }
    if (any) {
        rtoScan_.schedule(rto_ / 2);
        host_.kickNic();
    }
}

TransportFactory PFabricTransport::factory(const NetworkConfig& net) {
    const auto timings = NetworkTimings::compute(net);
    return [window = timings.rttBytes,
            rto = 3 * timings.rttSmallGrant](HostServices& host) {
        return std::make_unique<PFabricTransport>(host, window, rto);
    };
}

}  // namespace homa
