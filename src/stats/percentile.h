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

    /// Append another collection's samples. The driver records into
    /// per-host collections and merges them in host order in *both* the
    /// serial and parallel engines, so the floating-point accumulation
    /// order of mean() — the one order-sensitive statistic here — is a pure
    /// function of the samples, not of engine or thread count.
    void absorb(const Samples& other);

    size_t count() const { return values_.size(); }
    bool empty() const { return values_.empty(); }
    double mean() const;
    double min() const;
    double max() const;

    /// Exact p-quantile (p in [0,1]) by nearest-rank; 0 if empty.
    double percentile(double p) const;

    double median() const { return percentile(0.50); }
    double p99() const { return percentile(0.99); }

    const std::vector<double>& values() const { return values_; }

private:
    mutable std::vector<double> values_;
    mutable size_t sortedPrefix_ = 0;  // values_[0, sortedPrefix_) is sorted
    double sum_ = 0;
};

}  // namespace homa
