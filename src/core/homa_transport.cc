#include "core/homa_transport.h"

#include <cassert>

namespace homa {

namespace {

// The unscheduled priority allocation a transport starts from.
PriorityAllocator initialPriorities(const HomaConfig& cfg,
                                    const PriorityAllocation* precomputed) {
    if (precomputed != nullptr) return PriorityAllocator(*precomputed);
    // Conservative startup: one unscheduled level (the top), the rest
    // scheduled; the meter refines this as traffic is observed.
    PriorityAllocation alloc;
    alloc.logicalLevels = cfg.logicalPriorities;
    alloc.unschedLevels = 1;
    alloc.schedLevels = cfg.logicalPriorities - 1;
    return PriorityAllocator(alloc);
}

}  // namespace

HomaTransport::HomaTransport(HostServices& host, HomaConfig cfg,
                             int64_t rttBytes,
                             const PriorityAllocation* precomputed)
    : ctx_{host, cfg, rttBytes, initialPriorities(cfg, precomputed)},
      sender_(ctx_),
      receiver_(ctx_,
                [this](const Message& m, const DeliveryInfo& info) {
                    if (onlineAllocation_) {
                        meter_.recordMessage(m.length);
                        if (++messagesSinceRealloc_ >= 256) {
                            messagesSinceRealloc_ = 0;
                            ctx_.prio.setAllocation(meter_.allocate(
                                ctx_.cfg, ctx_.rttBytes,
                                ctx_.prio.allocation()));
                        }
                    }
                    notifyDelivered(m, info);
                }),
      meter_(),
      onlineAllocation_(precomputed == nullptr) {
    assert(rttBytes > 0);
}

void HomaTransport::sendMessage(const Message& m) { sender_.sendMessage(m); }

void HomaTransport::handlePacket(const Packet& p) {
    switch (p.type) {
        case PacketType::Data:
            receiver_.handleData(p);
            break;
        case PacketType::Grant:
            sender_.handleGrant(p);
            break;
        case PacketType::Resend:
            if (sender_.knowsMessage(p.msg)) {
                sender_.handleResend(p);
            } else if (onUnknownResend_) {
                onUnknownResend_(p);
            }
            break;
        case PacketType::Busy:
            receiver_.handleBusy(p);
            break;
        default:
            break;  // other types belong to other protocols
    }
}

std::optional<Packet> HomaTransport::pullPacket() { return sender_.pullPacket(); }

TransportFactory HomaTransport::factory(HomaConfig cfg, const NetworkConfig& net,
                                        const SizeDistribution* workload) {
    int64_t rtt = cfg.rttBytes;
    if (rtt <= 0) rtt = NetworkTimings::compute(net).rttBytes;
    // Compute the workload-derived allocation once, not per host (the
    // sampling pass is expensive and identical everywhere).
    std::shared_ptr<PriorityAllocation> alloc;
    if (workload != nullptr) {
        alloc = std::make_shared<PriorityAllocation>(
            computeAllocation(*workload, cfg, rtt));
    }
    return [cfg, rtt, alloc](HostServices& host) {
        return std::make_unique<HomaTransport>(host, cfg, rtt, alloc.get());
    };
}

}  // namespace homa
