// Closed-loop-native metrics (per-client view).
//
// Open-loop experiments summarize slowdown against an oracle; a
// closed-loop client cares about different numbers: how many operations
// its window sustained (throughput), and the latency distribution of
// those operations — especially under bursty (ON-OFF) arrival modulation,
// where averages hide the burst-time tail. `ClosedLoopTracker` keeps one
// row per client plus an aggregate latency distribution, counting only
// completions inside the measurement window.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/time.h"
#include "stats/percentile.h"

namespace homa {

class ClosedLoopTracker {
public:
    /// Tracks `clients` clients; only completions with `completedAt` in
    /// [windowStart, windowEnd) count.
    ClosedLoopTracker(int clients, Time windowStart, Time windowEnd);

    /// Record one completed operation: a delivered closed-loop message or
    /// an RPC response. `bytes` is the operation's payload total (request
    /// plus response for RPCs); `elapsed` is issue-to-completion time.
    void record(int client, int64_t bytes, Duration elapsed, Time completedAt);

    /// One client's in-window completion count and rates.
    struct ClientRow {
        uint64_t completed = 0;
        double opsPerSec = 0;
        double gbps = 0;  // payload bytes moved, as bits/s over the window
    };
    int clients() const { return static_cast<int>(completed_.size()); }
    ClientRow client(int c) const;

    uint64_t totalCompleted() const;
    double aggregateOpsPerSec() const;
    double aggregateGbps() const;

    /// Busiest / quietest client by completion count (imbalance probe:
    /// under ON-OFF bursts the spread widens even though the mean holds).
    uint64_t maxClientCompleted() const;
    uint64_t minClientCompleted() const;

    /// Latency percentile (p in [0,1]) across all in-window completions,
    /// in microseconds; 0 when nothing completed.
    double latencyPercentileUs(double p) const;
    double latencyMeanUs() const;

private:
    double windowSeconds() const;

    Time windowStart_;
    Time windowEnd_;
    std::vector<uint64_t> completed_;
    std::vector<int64_t> bytes_;
    Samples latency_;  // microseconds
};

}  // namespace homa
