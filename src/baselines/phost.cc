#include "baselines/phost.h"

#include <algorithm>
#include <cassert>

namespace homa {

PHostTransport::PHostTransport(HostServices& host, int64_t rttBytes,
                               Duration packetTime)
    : host_(host),
      rttBytes_(rttBytes),
      packetTime_(packetTime),
      pacer_(host.loop(), [this] { pacerTick(); }) {}

void PHostTransport::sendMessage(const Message& m) {
    OutMessage om;
    om.msg = m;
    om.unschedLimit = std::min<int64_t>(rttBytes_, m.length);
    auto it = out_.emplace(m.id, std::move(om)).first;
    sendable_.upsert(m.id, it->second.remaining());
    host_.kickNic();
}

std::optional<Packet> PHostTransport::pullPacket() {
    // Sender-side SRPT among messages with something transmittable. Token
    // expiry is checked lazily when a message surfaces as best: stale
    // tokens mean the receiver's scheduled slot has passed, and using one
    // now would congest its downlink.
    const Time now = host_.loop().now();
    OutMessage* best = nullptr;
    for (;;) {
        const auto id = sendable_.best();
        if (!id) return std::nullopt;
        OutMessage& om = out_.at(*id);
        while (!om.tokens.empty() && now - om.tokens.front() > kTokenTtl) {
            om.tokens.pop_front();
        }
        if (!om.sendable()) {
            sendable_.erase(*id);  // re-enters when a fresh token arrives
            continue;
        }
        best = &om;
        break;
    }

    const bool unscheduled = best->nextOffset < best->unschedLimit;
    const int64_t limit =
        unscheduled ? best->unschedLimit : static_cast<int64_t>(best->msg.length);
    const uint32_t chunk = static_cast<uint32_t>(
        std::min<int64_t>(kMaxPayload, limit - best->nextOffset));

    Packet p =
        dataPacket(best->msg, static_cast<uint32_t>(best->nextOffset), chunk);
    p.priority = unscheduled ? kUnschedPriority : kSchedPriority;
    best->nextOffset += chunk;
    if (!unscheduled) best->tokens.pop_front();
    if (best->nextOffset >= best->msg.length) {
        sendable_.erase(best->msg.id);
        out_.erase(best->msg.id);
    } else if (best->sendable()) {
        sendable_.upsert(best->msg.id, best->remaining());
    } else {
        sendable_.erase(best->msg.id);
    }
    return p;
}

void PHostTransport::syncGrantee(InMessage& im) {
    const MsgId id = im.meta.id;
    const bool outstanding =
        im.tokensSent > static_cast<int64_t>(im.reasm.receivedBytes());
    if (im.indexedLastData >= 0 &&
        (!outstanding || im.indexedLastData != im.lastData)) {
        staleness_.erase({im.indexedLastData, id});
        im.indexedLastData = -1;
    }
    if (outstanding && im.indexedLastData < 0) {
        staleness_.insert({im.lastData, id});
        im.indexedLastData = im.lastData;
    }
    if (!im.needsTokens()) {
        eligible_.erase(id);
        demotedIdx_.erase(id);
    } else if (im.demoted) {
        eligible_.erase(id);
        demotedIdx_.upsert(id, im.remaining());
    } else {
        demotedIdx_.erase(id);
        eligible_.upsert(id, im.remaining());
    }
}

void PHostTransport::dropGrantee(InMessage& im) {
    const MsgId id = im.meta.id;
    if (im.indexedLastData >= 0) staleness_.erase({im.indexedLastData, id});
    im.indexedLastData = -1;
    eligible_.erase(id);
    demotedIdx_.erase(id);
}

void PHostTransport::pacerTick() {
    const Time now = host_.loop().now();
    // Free-token timeout, stalest first: a message with outstanding tokens
    // whose sender went quiet has its token accounting rolled back (the
    // sender let them expire) or it could never be re-scheduled. The sweep
    // stops at the first still-live entry, so it touches only actually
    // stale messages instead of scanning the whole table per tick.
    while (!staleness_.empty() &&
           now - staleness_.begin()->first > kFreeTokenTimeout) {
        InMessage& im = in_.at(staleness_.begin()->second);
        im.demoted = true;
        im.tokensSent = im.reasm.receivedBytes();
        syncGrantee(im);
    }
    // SRPT over messages still needing tokens; if everyone is demoted, as
    // a last resort grant to the SRPT-best demoted message anyway.
    auto pick = eligible_.best();
    if (!pick) pick = demotedIdx_.best();
    if (!pick) {
        if (!in_.empty()) {
            // Nothing grantable right now (all granted or demoted), but
            // incomplete messages remain: check back on the free-token
            // timescale so expired-token messages get re-scheduled.
            pacer_.schedule(kFreeTokenTimeout);
            return;
        }
        pacerRunning_ = false;
        return;
    }
    InMessage& im = in_.at(*pick);
    Packet t;
    t.type = PacketType::Token;
    t.dst = im.meta.src;
    t.msg = im.meta.id;
    t.priority = kHighestPriority;
    host_.pushPacket(t);
    im.tokensSent += kMaxPayload;
    syncGrantee(im);
    pacer_.schedule(packetTime_);
}

void PHostTransport::handlePacket(const Packet& p) {
    switch (p.type) {
        case PacketType::Token: {
            auto it = out_.find(p.msg);
            if (it == out_.end()) return;  // message already fully sent
            it->second.tokens.push_back(host_.loop().now());
            sendable_.upsert(p.msg, it->second.remaining());
            host_.kickNic();
            return;
        }
        case PacketType::Data: {
            auto [it, first] = in_.try_emplace(p.msg, p);
            InMessage& im = it->second;
            if (first) {
                im.tokensSent = std::min<int64_t>(rttBytes_, p.messageLength);
            }
            const Time now = host_.loop().now();
            im.lastData = now;
            im.demoted = false;
            im.add(p);
            if (im.reasm.complete()) {
                const Message meta = im.meta;
                const DeliveryInfo info = im.delivered(now);
                dropGrantee(im);
                in_.erase(it);
                notifyDelivered(meta, info);
            } else {
                syncGrantee(im);
            }
            if (!pacerRunning_ && !in_.empty()) {
                pacerRunning_ = true;
                pacer_.schedule(0);
            }
            return;
        }
        default:
            return;
    }
}

bool PHostTransport::hasWithheldWork() const {
    // pHost grants to one message at a time; any other token-needing
    // message is withheld by design.
    return eligible_.size() + demotedIdx_.size() > 1;
}

TransportFactory PHostTransport::factory(const NetworkConfig& net) {
    const int64_t rttBytes = NetworkTimings::compute(net).rttBytes;
    const Duration packetTime =
        net.hostLink.serialize(kFullPacketWireBytes);
    return [rttBytes, packetTime](HostServices& host) {
        return std::make_unique<PHostTransport>(host, rttBytes, packetTime);
    };
}

}  // namespace homa
