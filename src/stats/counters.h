// Network-level probes: wasted receiver bandwidth (Figure 16) and queue
// occupancy per switch level (Table 1). runExperiment computes priority
// usage (Figure 21) over its measurement window itself.
#pragma once

#include <vector>

#include "sim/network.h"

namespace homa {

/// Samples every receiver's downlink periodically; a sample is "wasted" if
/// the downlink is idle while the receiver holds at least one incomplete
/// inbound message to which it is not granting (§5.2, Figure 16).
class WastedBandwidthProbe {
public:
    WastedBandwidthProbe(Network& net, Duration interval = microseconds(2));

    void start(Time from, Time until);

    /// Fraction of (receiver, sample) pairs that were wasted.
    double wastedFraction() const {
        return samples_ > 0 ? static_cast<double>(wasted_) /
                                  static_cast<double>(samples_)
                            : 0.0;
    }

private:
    void sampleOnce();

    Network& net_;
    Duration interval_;
    Time until_ = 0;
    uint64_t samples_ = 0;
    uint64_t wasted_ = 0;
};

/// Table 1 row: queue occupancy for a set of ports over a measured window.
struct QueueOccupancy {
    double meanBytes = 0;  // average of per-port time-weighted means
    int64_t maxBytes = 0;  // max across ports
};

QueueOccupancy summarizeQueues(const std::vector<const EgressPort*>& ports,
                               Time elapsed);

}  // namespace homa
