// PIAS (Bai et al., NSDI 2015) — information-agnostic sender-side
// priorities.
//
// PIAS knows nothing about message sizes a priori; each flow starts at the
// highest priority and is demoted as it sends more bytes (multi-level
// feedback queue over "bytes sent so far"). Underneath it runs DCTCP-style
// window control driven by ECN marks. This captures the behaviours the
// Homa paper analyzes (§5.2): short messages queue behind the high-priority
// prefixes of long ones; long messages starve at low priority ("it is hard
// to finish them"); and ECN-induced backoff hurts multi-packet messages at
// high load.
//
// The demotion thresholds are derived from the workload by equalizing
// bytes per level (the same balancing Homa uses for unscheduled cutoffs) —
// a stand-in for PIAS's offline threshold optimizer.
#pragma once

#include <deque>
#include <map>
#include <optional>
#include <vector>

#include "sched/round_robin.h"
#include "sim/topology.h"
#include "transport/transport.h"
#include "workload/distribution.h"

namespace homa {

/// Equal-bytes demotion thresholds for a workload (7 thresholds, 8 levels).
std::vector<uint32_t> piasThresholdsFor(const SizeDistribution& dist);

class PiasTransport final : public Transport {
public:
    /// DCTCP's EWMA gain g for the marked fraction.
    static constexpr double kDctcpGain = 1.0 / 16.0;
    /// The switches' DCTCP-style ECN marking threshold (the PIAS paper's K
    /// for 10 Gbps).
    static constexpr int64_t kEcnThresholdBytes = 78000;

    /// `thresholds`: bytes-sent demotion thresholds, ascending; level =
    /// thresholds crossed, priority = highest - level. `initialWindow`:
    /// each flow's first window in bytes. `rtt`: the additive-increase
    /// clock.
    PiasTransport(HostServices& host, std::vector<uint32_t> thresholds,
                  int64_t initialWindow, Duration rtt);

    void sendMessage(const Message& m) override;
    void handlePacket(const Packet& p) override;
    std::optional<Packet> pullPacket() override;

    /// Windows of rttBytes (the BDP), and thresholds from `workload`;
    /// throws std::invalid_argument when `workload` is null.
    static TransportFactory factory(const NetworkConfig& net,
                                    const SizeDistribution* workload);

private:
    struct OutMessage {
        Message msg;
        int64_t nextOffset = 0;   // next fresh byte
        int64_t ackedBytes = 0;
        double cwnd = 0;          // bytes
        double markedEwma = 0;    // DCTCP alpha
        uint32_t acksInRtt = 0;
        uint32_t marksInRtt = 0;
        Time rttStart = 0;

        int64_t inFlight() const { return nextOffset - ackedBytes; }
        bool sendable() const {
            return nextOffset < msg.length && inFlight() < static_cast<int64_t>(cwnd);
        }
    };

    uint8_t priorityForBytesSent(int64_t bytesSent) const;
    void onAck(const Packet& p);
    void syncSend(const OutMessage& om);

    HostServices& host_;
    std::vector<uint32_t> thresholds_;
    int64_t initialWindow_;
    Duration rtt_;
    std::map<MsgId, OutMessage> out_;
    std::map<MsgId, Inbound> in_;
    // Fair round-robin over exactly the windowed (sendable) flows;
    // replaces an O(n) cursor scan of out_ per pulled packet.
    RoundRobinSet<MsgId> sendRing_;
};

}  // namespace homa
