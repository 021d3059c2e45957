#include "baselines/pias.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <functional>
#include <stdexcept>
#include <string>

namespace homa {

std::vector<uint32_t> piasThresholdsFor(const SizeDistribution& dist) {
    // Equal-bytes split of the "bytes sent so far" axis: threshold i is the
    // point by which i/8 of all bytes (across all messages) have been sent.
    // This mirrors PIAS's goal of spreading traffic across levels.
    Rng rng(0x1A5 ^ std::hash<std::string>{}(dist.name()));
    std::vector<uint32_t> sizes(100000);
    double total = 0;
    for (auto& s : sizes) {
        s = dist.sample(rng);
        total += s;
    }
    std::sort(sizes.begin(), sizes.end());

    // Bytes transmitted below a bytes-sent threshold t: sum over messages
    // of min(size, t). Binary-search thresholds for each 1/8 mass.
    auto massBelow = [&](double t) {
        double m = 0;
        for (uint32_t s : sizes) m += std::min<double>(s, t);
        return m;
    };
    std::vector<uint32_t> thresholds;
    for (int i = 1; i < kPriorityLevels; i++) {
        const double target = total * i / kPriorityLevels;
        double lo = 1, hi = dist.maxSize();
        for (int iter = 0; iter < 48 && hi - lo > 0.5; iter++) {
            const double mid = 0.5 * (lo + hi);
            if (massBelow(mid) < target) {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        thresholds.push_back(static_cast<uint32_t>(std::lround(hi)));
    }
    // Ensure the first threshold covers at least one full packet: PIAS
    // always sends a single-packet message entirely at top priority.
    thresholds[0] = std::max<uint32_t>(thresholds[0], kMaxPayload);
    for (size_t i = 1; i < thresholds.size(); i++) {
        thresholds[i] = std::max(thresholds[i], thresholds[i - 1]);
    }
    return thresholds;
}

PiasTransport::PiasTransport(HostServices& host,
                             std::vector<uint32_t> thresholds,
                             int64_t initialWindow, Duration rtt)
    : host_(host),
      thresholds_(std::move(thresholds)),
      initialWindow_(initialWindow),
      rtt_(rtt) {
    assert(!thresholds_.empty());
    assert(initialWindow_ > 0);
}

uint8_t PiasTransport::priorityForBytesSent(int64_t bytesSent) const {
    int level = 0;
    for (uint32_t t : thresholds_) {
        if (bytesSent >= static_cast<int64_t>(t)) level++;
    }
    return static_cast<uint8_t>(
        std::max(0, kHighestPriority - level));
}

void PiasTransport::sendMessage(const Message& m) {
    OutMessage om;
    om.msg = m;
    om.cwnd = static_cast<double>(initialWindow_);
    om.rttStart = host_.loop().now();
    auto it = out_.emplace(m.id, std::move(om)).first;
    syncSend(it->second);
    host_.kickNic();
}

void PiasTransport::syncSend(const OutMessage& om) {
    if (om.sendable()) {
        sendRing_.insert(om.msg.id);
    } else {
        sendRing_.erase(om.msg.id);
    }
}

std::optional<Packet> PiasTransport::pullPacket() {
    // PIAS senders have no SRPT (sizes unknown); fair round-robin across
    // windowed flows.
    const auto id = sendRing_.next();
    if (!id) return std::nullopt;
    OutMessage& om = out_.at(*id);

    const uint32_t chunk = static_cast<uint32_t>(std::min<int64_t>(
        kMaxPayload, om.msg.length - om.nextOffset));
    Packet p = dataPacket(om.msg, static_cast<uint32_t>(om.nextOffset), chunk);
    p.priority = priorityForBytesSent(om.nextOffset);
    om.nextOffset += chunk;
    syncSend(om);
    return p;
}

void PiasTransport::onAck(const Packet& p) {
    auto it = out_.find(p.msg);
    if (it == out_.end()) return;
    OutMessage& om = it->second;
    om.ackedBytes += p.length;
    om.acksInRtt++;
    if (p.hasFlag(kFlagEcn)) om.marksInRtt++;

    // One DCTCP window update per RTT.
    const Time now = host_.loop().now();
    if (now - om.rttStart >= rtt_ && om.acksInRtt > 0) {
        const double frac = static_cast<double>(om.marksInRtt) /
                            static_cast<double>(om.acksInRtt);
        om.markedEwma = (1 - kDctcpGain) * om.markedEwma + kDctcpGain * frac;
        if (om.marksInRtt > 0) {
            om.cwnd *= (1.0 - om.markedEwma / 2.0);
        } else {
            om.cwnd += kMaxPayload;  // additive increase
        }
        om.cwnd = std::max<double>(om.cwnd, kMaxPayload);
        om.acksInRtt = 0;
        om.marksInRtt = 0;
        om.rttStart = now;
    }

    if (om.ackedBytes >= om.msg.length) {
        sendRing_.erase(p.msg);
        out_.erase(it);
    } else {
        syncSend(om);
    }
    host_.kickNic();
}

void PiasTransport::handlePacket(const Packet& p) {
    if (p.type == PacketType::Ack) {
        onAck(p);
        return;
    }
    if (p.type != PacketType::Data) return;

    // Echo the congestion mark back to the sender (DCTCP ECN echo).
    Packet ack;
    ack.type = PacketType::Ack;
    ack.dst = p.src;
    ack.msg = p.msg;
    ack.length = p.length;
    ack.priority = kHighestPriority;
    if (p.hasFlag(kFlagEcn)) ack.setFlag(kFlagEcn);
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

TransportFactory PiasTransport::factory(const NetworkConfig& net,
                                        const SizeDistribution* workload) {
    if (workload == nullptr) {
        throw std::invalid_argument(
            "PIAS derives its demotion thresholds from the workload's "
            "message sizes: a workload is required");
    }
    const auto timings = NetworkTimings::compute(net);
    return [thresholds = piasThresholdsFor(*workload),
            window = timings.rttBytes,
            rtt = timings.rttSmallGrant](HostServices& host) {
        return std::make_unique<PiasTransport>(host, thresholds, window, rtt);
    };
}

}  // namespace homa
