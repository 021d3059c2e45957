// HomaTransport: glue between sender half, receiver half, and the host.
#pragma once

#include <functional>
#include <memory>

#include "core/homa_context.h"
#include "core/homa_receiver.h"
#include "core/homa_sender.h"
#include "sim/topology.h"
#include "transport/transport.h"
#include "workload/workloads.h"

namespace homa {

class HomaTransport final : public Transport {
public:
    /// `precomputed`, when given, seeds the unscheduled priority allocation
    /// exactly like the paper's implementation (§4). Without it, the
    /// transport starts from a single unscheduled level and adapts online
    /// from measured traffic (§3.4).
    HomaTransport(HostServices& host, HomaConfig cfg, int64_t rttBytes,
                  const PriorityAllocation* precomputed);

    void sendMessage(const Message& m) override;
    void handlePacket(const Packet& p) override;
    std::optional<Packet> pullPacket() override;
    bool hasWithheldWork() const override { return receiver_.hasWithheldWork(); }

    /// RESEND arrived for a message this sender no longer (or never) knew.
    /// The RPC layer uses this for at-least-once re-execution (§3.7/§3.8).
    using UnknownResendHandler = std::function<void(const Packet&)>;
    void setUnknownResendHandler(UnknownResendHandler h) {
        onUnknownResend_ = std::move(h);
    }

    HomaSender& sender() { return sender_; }
    HomaReceiver& receiver() { return receiver_; }

    /// Build a factory for Network construction.
    static TransportFactory factory(HomaConfig cfg, const NetworkConfig& net,
                                    const SizeDistribution* workload);

private:
    HomaContext ctx_;
    HomaSender sender_;
    HomaReceiver receiver_;
    TrafficMeter meter_;
    bool onlineAllocation_;
    uint64_t messagesSinceRealloc_ = 0;
    UnknownResendHandler onUnknownResend_;
};

}  // namespace homa
