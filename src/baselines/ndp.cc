#include "baselines/ndp.h"

#include <algorithm>
#include <cassert>

namespace homa {

NdpTransport::NdpTransport(HostServices& host, int64_t initialWindow,
                           Duration packetTime)
    : host_(host),
      initialWindow_(initialWindow),
      packetTime_(packetTime),
      pacer_(host.loop(), [this] { pacerTick(); }) {}

void NdpTransport::sendChunk(const Message& msg, uint32_t offset, uint32_t len,
                             bool retransmit) {
    Packet p = dataPacket(msg, offset, len);
    if (retransmit) p.setFlag(kFlagRetransmit);
    // All NDP data stays at priority 0; trimmed headers get P7.
    host_.pushPacket(p);  // FIFO NIC: no sender-side reordering
}

void NdpTransport::sendMessage(const Message& m) {
    // Blast the first window into the NIC immediately (blind start).
    OutMessage om;
    om.msg = m;
    const int64_t burst = std::min<int64_t>(initialWindow_, m.length);
    while (om.sentTo < burst) {
        const uint32_t chunk = static_cast<uint32_t>(
            std::min<int64_t>(kMaxPayload, burst - om.sentTo));
        sendChunk(m, static_cast<uint32_t>(om.sentTo), chunk, false);
        om.sentTo += chunk;
    }
    out_.emplace(m.id, std::move(om));
    // Fully-sent messages stay around to serve retransmission pulls for
    // trimmed packets; evict the oldest once the table grows large. MsgIds
    // are monotone, so begin() is the oldest entry.
    while (out_.size() > 16384) {
        auto oldest = out_.begin();
        if (oldest->second.sentTo < oldest->second.msg.length) break;
        out_.erase(oldest);
    }
}

void NdpTransport::syncPull(InMessage& im) {
    if (im.wantsPull(initialWindow_)) {
        pullRing_.insert(im.meta.id);
    } else {
        pullRing_.erase(im.meta.id);
    }
}

void NdpTransport::pacerTick() {
    // Round-robin (fair-share) pull across the messages that want one.
    const auto id = pullRing_.next();
    if (!id) {
        pacerRunning_ = false;
        return;
    }
    InMessage& im = in_.at(*id);
    Packet pull;
    pull.type = PacketType::Pull;
    pull.dst = im.meta.src;
    pull.msg = im.meta.id;
    pull.priority = kHighestPriority;
    if (!im.trimmed.empty()) {
        pull.offset = *im.trimmed.begin();
        pull.setFlag(kFlagRetransmit);
        im.trimmed.erase(im.trimmed.begin());
    } else {
        pull.offset = static_cast<uint32_t>(im.pulledTo);
        im.pulledTo = std::min<int64_t>(
            im.pulledTo + kMaxPayload, im.reasm.messageLength());
    }
    host_.pushPacket(pull);
    syncPull(im);
    pacer_.schedule(packetTime_);
}

void NdpTransport::handlePacket(const Packet& p) {
    switch (p.type) {
        case PacketType::Pull: {
            auto it = out_.find(p.msg);
            if (it == out_.end()) return;  // evicted; loss is unrecoverable
            OutMessage& om = it->second;
            if (p.hasFlag(kFlagRetransmit)) {
                // The pull names the trimmed offset explicitly.
                if (p.offset >= om.msg.length) return;
                const uint32_t chunk = static_cast<uint32_t>(std::min<int64_t>(
                    kMaxPayload, om.msg.length - p.offset));
                sendChunk(om.msg, p.offset, chunk, true);
                return;
            }
            if (om.sentTo >= om.msg.length) return;
            const uint32_t chunk = static_cast<uint32_t>(std::min<int64_t>(
                kMaxPayload, om.msg.length - om.sentTo));
            sendChunk(om.msg, static_cast<uint32_t>(om.sentTo), chunk, false);
            om.sentTo += chunk;
            return;
        }
        case PacketType::Data: {
            auto it = in_.find(p.msg);
            if (it == in_.end() && p.hasFlag(kFlagRetransmit)) {
                return;  // duplicate retransmission after completion
            }
            if (it == in_.end()) {
                it = in_.try_emplace(p.msg, p).first;
                it->second.pulledTo = std::min<int64_t>(initialWindow_,
                                                        p.messageLength);
            }
            InMessage& im = it->second;
            if (p.hasFlag(kFlagTrimmed)) {
                // Header survived; payload was cut in-network. Queue the
                // offset for a retransmission pull.
                if (!im.reasm.complete()) im.trimmed.insert(p.offset);
            } else {
                im.add(p);
            }
            if (im.reasm.complete()) {
                const Message meta = im.meta;
                const DeliveryInfo info = im.delivered(host_.loop().now());
                pullRing_.erase(meta.id);
                in_.erase(it);
                notifyDelivered(meta, info);
            } else {
                syncPull(im);
                if (!pacerRunning_) {
                    pacerRunning_ = true;
                    pacer_.schedule(0);
                }
            }
            return;
        }
        default:
            return;
    }
}

TransportFactory NdpTransport::factory(const NetworkConfig& net) {
    const int64_t window = NetworkTimings::compute(net).rttBytes;
    const Duration packetTime = net.hostLink.serialize(kFullPacketWireBytes);
    return [window, packetTime](HostServices& host) {
        return std::make_unique<NdpTransport>(host, window, packetTime);
    };
}

}  // namespace homa
