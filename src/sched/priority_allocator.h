// Priority allocation: how Homa splits the 8 network levels (§3.4).
//
// This file owns the whole priority story:
//  * PriorityAllocation — the computed unscheduled/scheduled split plus the
//    message-size cutoffs that spread unscheduled bytes evenly over the
//    unscheduled levels (Figure 4);
//  * PriorityAllocator — the live object a transport consults: unscheduled
//    level for a message size, and the lowest-available-level assignment
//    for the scheduled active set (Figure 5), which previously lived as an
//    inline formula in the receiver;
//  * TrafficMeter — the online variant that recomputes the allocation from
//    recent traffic (§3.4 "uses recent traffic patterns").
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "core/homa_config.h"
#include "sched/grant_scheduler.h"
#include "workload/distribution.h"

namespace homa {

struct PriorityAllocation {
    int logicalLevels = 8;
    int unschedLevels = 1;
    int schedLevels = 7;

    /// Ascending size cutoffs, one fewer than unschedLevels: a message of
    /// length <= cutoffs[i] sends its unscheduled bytes at logical priority
    /// (top - i); longer than all cutoffs -> the lowest unscheduled level.
    std::vector<uint32_t> cutoffs;

    /// Logical priority for the unscheduled bytes of a message.
    int unschedPriorityFor(uint32_t messageLength) const;

    /// Lowest logical level reserved for unscheduled traffic.
    int lowestUnschedLevel() const { return logicalLevels - unschedLevels; }
};

/// The per-transport priority authority. Wraps the current allocation and
/// answers both priority questions a transport has: which unscheduled level
/// a message's blind bytes use, and which scheduled level an active-set
/// member is granted at.
class PriorityAllocator {
public:
    PriorityAllocator() = default;
    explicit PriorityAllocator(PriorityAllocation a) : alloc_(std::move(a)) {}

    /// The current allocation (replaced wholesale by setAllocation when
    /// the online TrafficMeter recomputes the split).
    const PriorityAllocation& allocation() const { return alloc_; }
    PriorityAllocation& allocation() { return alloc_; }
    void setAllocation(PriorityAllocation a) { alloc_ = std::move(a); }

    int logicalLevels() const { return alloc_.logicalLevels; }
    int schedLevels() const { return alloc_.schedLevels; }
    int unschedLevels() const { return alloc_.unschedLevels; }

    int unschedPriorityFor(uint32_t messageLength) const {
        return alloc_.unschedPriorityFor(messageLength);
    }

    /// Lowest-available-level policy for the scheduled active set
    /// (Figure 5); delegates to the shared scheduledLevelFor() authority.
    int scheduledLevel(int rank, int activeCount) const {
        return scheduledLevelFor(rank, activeCount, alloc_.schedLevels);
    }

private:
    PriorityAllocation alloc_;
};

/// Compute the allocation from a known workload distribution; this is what
/// the paper's implementation did ("priorities were precomputed based on
/// knowledge of the benchmark workload").
PriorityAllocation computeAllocation(const SizeDistribution& dist,
                                     const HomaConfig& cfg, int64_t rttBytes);

/// Online variant: a receiver measures its own incoming message sizes and
/// recomputes the allocation periodically (§3.4 "uses recent traffic
/// patterns"). Bounded memory: keeps a reservoir of recent sizes.
class TrafficMeter {
public:
    explicit TrafficMeter(size_t reservoirSize = 4096, uint64_t seed = 7);

    /// Feed one observed inbound message size (reservoir-sampled).
    void recordMessage(uint32_t length);
    /// Total messages observed so far (not just those in the reservoir).
    size_t observed() const { return observed_; }

    /// Allocation from the measured sizes; falls back to `fallback` until
    /// enough messages (>= 100) have been seen.
    PriorityAllocation allocate(const HomaConfig& cfg, int64_t rttBytes,
                                const PriorityAllocation& fallback) const;

private:
    std::vector<uint32_t> reservoir_;
    size_t reservoirCapacity_ = 0;
    size_t observed_ = 0;
    Rng rng_;
};

/// Shared core: allocation from an explicit sample of message sizes.
PriorityAllocation allocationFromSample(std::vector<uint32_t> sizes,
                                        const HomaConfig& cfg,
                                        int64_t rttBytes);

}  // namespace homa
