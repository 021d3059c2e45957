#include "stats/percentile.h"

#include <algorithm>
#include <cmath>

namespace homa {

void Samples::add(double v) {
    values_.push_back(v);
    sum_ += v;
}

void Samples::absorb(const Samples& other) {
    values_.insert(values_.end(), other.values_.begin(), other.values_.end());
    sum_ += other.sum_;
}

double Samples::mean() const {
    return values_.empty() ? 0.0 : sum_ / static_cast<double>(values_.size());
}

double Samples::min() const {
    if (values_.empty()) return 0.0;
    return *std::min_element(values_.begin(), values_.end());
}

double Samples::max() const {
    if (values_.empty()) return 0.0;
    return *std::max_element(values_.begin(), values_.end());
}

double Samples::percentile(double p) const {
    if (values_.empty()) return 0.0;
    p = std::clamp(p, 0.0, 1.0);
    const auto tail =
        values_.begin() + static_cast<std::ptrdiff_t>(sortedPrefix_);
    if (tail != values_.end()) {
        std::sort(tail, values_.end());
        std::inplace_merge(values_.begin(), tail, values_.end());
        sortedPrefix_ = values_.size();
    }
    const size_t idx = std::min(
        values_.size() - 1,
        static_cast<size_t>(std::ceil(p * static_cast<double>(values_.size())) -
                            (p > 0.0 ? 1 : 0)));
    return values_[idx];
}

}  // namespace homa
