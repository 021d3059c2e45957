// Sample collection with exact percentiles.
//
// Experiments collect up to a few million samples; storing them is simpler
// and more accurate than sketches. `values_` is a sorted prefix followed
// by the samples added since the last percentile() call. percentile()
// sorts only that tail and merges it into the prefix, so a caller that
// asks every k additions pays O(n + k log k) instead of re-sorting the
// whole history; the first call on n fresh samples is an O(n log n) sort.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace homa {

class Samples {
public:
    void add(double v);

    /// Append another collection's samples and add its sum to this one.
    /// mean() is the one order-sensitive statistic here: it divides a sum
    /// kept in the order of add() and absorb() calls, so a caller whose
    /// samples arrive in engine-dependent order keeps its own sums and
    /// hands the total over with setSum() (SlowdownTracker sums per host
    /// and adds the hosts in order).
    void absorb(const Samples& other);

    size_t count() const { return values_.size(); }
    bool empty() const { return values_.empty(); }
    double sum() const { return sum_; }
    /// Replace the sum mean() divides by count().
    void setSum(double sum) { sum_ = sum; }
    double mean() const;
    double min() const;
    double max() const;

    /// Exact p-quantile (p in [0,1]) by nearest-rank; 0 if empty.
    double percentile(double p) const;

    double median() const { return percentile(0.50); }
    double p99() const { return percentile(0.99); }

    /// The index percentile(p) reads in `n` sorted values (n > 0).
    static size_t nearestRank(double p, size_t n);

    /// Every value, in ascending order.
    const std::vector<double>& sorted() const;
    /// Every value: the sorted prefix, then those added since.
    const std::vector<double>& values() const { return values_; }

private:
    mutable std::vector<double> values_;
    mutable size_t sortedPrefix_ = 0;  // values_[0, sortedPrefix_) is sorted
    double sum_ = 0;
};

}  // namespace homa
