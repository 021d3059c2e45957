#include "sched/priority_allocator.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <functional>
#include <numeric>
#include <string>

namespace homa {

int PriorityAllocation::unschedPriorityFor(uint32_t messageLength) const {
    const int top = logicalLevels - 1;
    for (size_t i = 0; i < cutoffs.size(); i++) {
        if (messageLength <= cutoffs[i]) return top - static_cast<int>(i);
    }
    return lowestUnschedLevel();
}

PriorityAllocation allocationFromSample(std::vector<uint32_t> sizes,
                                        const HomaConfig& cfg,
                                        int64_t rttBytes) {
    assert(!sizes.empty());
    const int levels = cfg.logicalPriorities;
    const int64_t unschedLimit =
        cfg.unschedBytesLimit > 0 ? cfg.unschedBytesLimit : rttBytes;

    // Unscheduled byte fraction F (Figure 4: "the fraction of all incoming
    // bytes that are unscheduled").
    double totalBytes = 0, unschedBytes = 0;
    for (uint32_t s : sizes) {
        totalBytes += s;
        unschedBytes += static_cast<double>(std::min<int64_t>(s, unschedLimit));
    }
    const double frac = totalBytes > 0 ? unschedBytes / totalBytes : 1.0;

    PriorityAllocation alloc;
    alloc.logicalLevels = levels;
    if (cfg.unschedPriorities > 0) {
        alloc.unschedLevels = std::min(cfg.unschedPriorities, levels);
    } else {
        alloc.unschedLevels = std::clamp(
            static_cast<int>(std::lround(frac * levels)), 1, levels - 1);
    }
    alloc.schedLevels = std::max(1, levels - alloc.unschedLevels);

    if (!cfg.explicitCutoffs.empty()) {
        alloc.cutoffs = cfg.explicitCutoffs;
        alloc.cutoffs.resize(
            std::min<size_t>(alloc.cutoffs.size(),
                             static_cast<size_t>(alloc.unschedLevels - 1)));
        return alloc;
    }

    // Equal-unscheduled-bytes cutoffs: sort sizes and walk the cumulative
    // unscheduled-byte mass; cutoff i is the message size where the mass
    // crosses (i+1)/k of the total.
    std::sort(sizes.begin(), sizes.end());
    const int k = alloc.unschedLevels;
    double cum = 0;
    size_t idx = 0;
    for (int i = 0; i + 1 < k; i++) {
        const double target = unschedBytes * static_cast<double>(i + 1) /
                              static_cast<double>(k);
        while (idx < sizes.size() && cum < target) {
            cum += static_cast<double>(
                std::min<int64_t>(sizes[idx], unschedLimit));
            idx++;
        }
        const uint32_t cutoff = idx > 0 ? sizes[idx - 1] : sizes[0];
        alloc.cutoffs.push_back(cutoff);
    }
    // Cutoffs must be non-decreasing (duplicates collapse a level onto the
    // same size range, which is harmless).
    for (size_t i = 1; i < alloc.cutoffs.size(); i++) {
        alloc.cutoffs[i] = std::max(alloc.cutoffs[i], alloc.cutoffs[i - 1]);
    }
    return alloc;
}

PriorityAllocation computeAllocation(const SizeDistribution& dist,
                                     const HomaConfig& cfg, int64_t rttBytes) {
    // Deterministic sample of the workload; large enough that decile-level
    // cutoffs are stable.
    Rng rng(0xA110C ^ std::hash<std::string>{}(dist.name()));
    std::vector<uint32_t> sizes(100000);
    for (auto& s : sizes) s = dist.sample(rng);
    return allocationFromSample(std::move(sizes), cfg, rttBytes);
}

// The reservoir grows by push_back up to its capacity. Every HomaTransport
// owns a meter, and with a precomputed allocation it is never fed, so a
// reserve here would cost every host 16 KB for nothing.
TrafficMeter::TrafficMeter(size_t reservoirSize, uint64_t seed)
    : reservoirCapacity_(reservoirSize), rng_(seed) {}

void TrafficMeter::recordMessage(uint32_t length) {
    observed_++;
    if (reservoir_.size() < reservoirCapacity_) {
        reservoir_.push_back(length);
        return;
    }
    // Vitter's algorithm R.
    const uint64_t j = rng_.below(observed_);
    if (j < reservoir_.size()) reservoir_[j] = length;
}

PriorityAllocation TrafficMeter::allocate(const HomaConfig& cfg,
                                          int64_t rttBytes,
                                          const PriorityAllocation& fallback) const {
    if (observed_ < 100) return fallback;
    return allocationFromSample(reservoir_, cfg, rttBytes);
}

}  // namespace homa
