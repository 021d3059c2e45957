// Slowdown bookkeeping, bucketed exactly the way the paper plots it.
//
// Slowdown = actual completion time / best possible time for a message of
// that size on an unloaded network (§5.1). The x-axes of Figures 8-13 are
// linear in message count: one bucket per decile of the workload's size
// distribution. This tracker buckets by those deciles and reports median
// and 99th-percentile slowdown per bucket.
//
// Each slowdown is stored once, in its decile. Every statistic but the
// decile means ignores the order of the records. A mean divides a
// floating-point sum, and resultFingerprint prints it exactly (%a), so its
// association is part of every golden: each destination host's slowdowns
// summed in record order, then the hosts added in host order. A tracker
// built for `hosts` > 1 keeps those per-host decile sums, so records may
// arrive in any interleaving of hosts (each shard of the parallel engine
// records into its own tracker).
#pragma once

#include <array>
#include <functional>
#include <string>
#include <vector>

#include "sim/time.h"
#include "stats/percentile.h"
#include "workload/distribution.h"

namespace homa {

/// Best-case (unloaded) completion time for a message of a given size.
using OracleFn = std::function<Duration(uint32_t size)>;

struct SlowdownRow {
    uint32_t bucketMaxSize = 0;  // decile upper edge (the paper's tick label)
    size_t count = 0;
    double median = 0;
    double p99 = 0;
    double mean = 0;
};

/// One record per delivered short message, kept for decomposition
/// queries.
struct CompletionRecord {
    Duration elapsed;
    Duration queueingDelay;
    Duration preemptionLag;
};

class SlowdownTracker {
public:
    /// `hosts` > 1 keeps per-host decile sums for records made with a
    /// `host` (see the file comment); a one-host tracker allocates nothing
    /// for them. Throws std::invalid_argument when `hosts` < 1.
    SlowdownTracker(const SizeDistribution& dist, OracleFn oracle,
                    int hosts = 1);

    void record(uint32_t size, Duration elapsed, Duration queueingDelay = 0,
                Duration preemptionLag = 0);

    /// Variant with an externally computed best-case time (e.g. a
    /// placement-aware oracle: intra-rack messages have a shorter path),
    /// recorded for destination `host`. Throws std::invalid_argument when
    /// `best` <= 0 or `host` is outside [0, hosts).
    void recordWithBest(uint32_t size, Duration elapsed, Duration best,
                        Duration queueingDelay = 0, Duration preemptionLag = 0,
                        int host = 0);

    /// Merge another tracker's samples and records (same distribution).
    /// A one-host tracker adds the other's decile sums to its own (a
    /// many-host one's summed in host order); a many-host tracker adds the
    /// other's host sums cell by cell and throws std::invalid_argument
    /// unless both have the same host count.
    void absorb(const SlowdownTracker& other);

    /// One one-host tracker holding all of `parts`: trackers with the same
    /// host count, each host recorded into at most one of them (the
    /// engine's shards). The first part's samples move; the others' are
    /// appended and freed. Each decile's sum adds the host sums in host
    /// order, as absorbing one one-host tracker per host in host order
    /// would.
    static SlowdownTracker merge(std::vector<SlowdownTracker>&& parts);

    /// Per-decile rows (10 of them), in ascending size order.
    std::vector<SlowdownRow> rows() const;

    /// Slowdown percentile (nearest rank) across all messages.
    double overallPercentile(double p) const;
    size_t count() const;

    /// Figure 14: among "short" messages (smallest 20% of the workload; for
    /// W5, single-packet messages), average queueing delay and preemption
    /// lag of the messages whose total delay lies in [p98, p100] — i.e.
    /// near the tail. Returns {meanQueueingDelay, meanPreemptionLag}.
    std::pair<Duration, Duration> tailDelaySources() const;

    const SizeDistribution& distribution() const { return dist_; }
    OracleFn oracle() const { return oracle_; }

private:
    int bucketFor(uint32_t size) const;
    /// Decile i's sum: the bucket's own for one host, else the host sums
    /// added in host order.
    double decileSum(int i) const;

    const SizeDistribution& dist_;
    OracleFn oracle_;
    std::array<Samples, 10> buckets_;
    int hosts_;
    // hosts_ > 1 only: hostSums_[h * 10 + i] sums host h's slowdowns in
    // decile i, in record order.
    std::vector<double> hostSums_;
    uint32_t shortSizeLimit_;
    std::vector<CompletionRecord> shortMessages_;
};

}  // namespace homa
