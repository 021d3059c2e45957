#include "stats/slowdown.h"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "sim/packet.h"

namespace homa {

SlowdownTracker::SlowdownTracker(const SizeDistribution& dist, OracleFn oracle,
                                 int hosts)
    : dist_(dist), oracle_(std::move(oracle)), hosts_(hosts) {
    if (hosts < 1) {
        throw std::invalid_argument("SlowdownTracker: hosts must be >= 1, got " +
                                    std::to_string(hosts));
    }
    if (hosts > 1) hostSums_.assign(static_cast<size_t>(hosts) * 10, 0.0);
    // "Short" per Figure 14: smallest 20% of messages for W1-W4; all
    // single-packet messages for W5.
    shortSizeLimit_ = std::max<uint32_t>(dist_.deciles()[1],
                                         0);  // 20% decile edge
    if (dist_.minSize() >= kMaxPayload) {
        shortSizeLimit_ = kMaxPayload;
    }
}

int SlowdownTracker::bucketFor(uint32_t size) const {
    const auto& d = dist_.deciles();
    for (int i = 0; i < 10; i++) {
        if (size <= d[i]) return i;
    }
    return 9;
}

double SlowdownTracker::decileSum(int i) const {
    if (hosts_ == 1) return buckets_[i].sum();
    double sum = 0.0;
    for (int h = 0; h < hosts_; h++) {
        sum += hostSums_[static_cast<size_t>(h) * 10 + i];
    }
    return sum;
}

void SlowdownTracker::record(uint32_t size, Duration elapsed,
                             Duration queueingDelay, Duration preemptionLag) {
    recordWithBest(size, elapsed, oracle_(size), queueingDelay, preemptionLag);
}

void SlowdownTracker::recordWithBest(uint32_t size, Duration elapsed,
                                     Duration best, Duration queueingDelay,
                                     Duration preemptionLag, int host) {
    if (best <= 0) {
        throw std::invalid_argument(
            "SlowdownTracker: best-case time must be > 0, got " +
            std::to_string(best));
    }
    if (host < 0 || host >= hosts_) {
        throw std::invalid_argument("SlowdownTracker: host " +
                                    std::to_string(host) + " is outside [0, " +
                                    std::to_string(hosts_) + ")");
    }
    const double slowdown =
        static_cast<double>(elapsed) / static_cast<double>(best);
    const int bucket = bucketFor(size);
    buckets_[bucket].add(slowdown);
    if (hosts_ > 1) {
        hostSums_[static_cast<size_t>(host) * 10 + bucket] += slowdown;
    }
    if (size <= shortSizeLimit_) {
        shortMessages_.push_back(
            CompletionRecord{elapsed, queueingDelay, preemptionLag});
    }
}

void SlowdownTracker::absorb(const SlowdownTracker& other) {
    if (hosts_ > 1 && other.hosts_ != hosts_) {
        throw std::invalid_argument(
            "SlowdownTracker::absorb: a " + std::to_string(hosts_) +
            "-host tracker cannot absorb a " + std::to_string(other.hosts_) +
            "-host one");
    }
    for (int i = 0; i < 10; i++) {
        const double sum = buckets_[i].sum() + other.decileSum(i);
        buckets_[i].absorb(other.buckets_[i]);
        buckets_[i].setSum(sum);
    }
    for (size_t k = 0; k < hostSums_.size(); k++) {
        hostSums_[k] += other.hostSums_[k];
    }
    shortMessages_.insert(shortMessages_.end(), other.shortMessages_.begin(),
                          other.shortMessages_.end());
}

SlowdownTracker SlowdownTracker::merge(std::vector<SlowdownTracker>&& parts) {
    if (parts.empty()) {
        throw std::invalid_argument("SlowdownTracker::merge: no trackers");
    }
    // A host's cells are +0.0 in every part but its own, so adding the
    // parts cell by cell is exact. Each part is freed once absorbed.
    SlowdownTracker& all = parts.front();
    for (size_t k = 1; k < parts.size(); k++) {
        all.absorb(parts[k]);
        parts[k].buckets_ = {};
        parts[k].shortMessages_ = {};
    }
    for (int i = 0; i < 10; i++) all.buckets_[i].setSum(all.decileSum(i));
    all.hosts_ = 1;
    all.hostSums_ = {};
    return std::move(all);
}

std::vector<SlowdownRow> SlowdownTracker::rows() const {
    std::vector<SlowdownRow> out;
    out.reserve(10);
    for (int i = 0; i < 10; i++) {
        SlowdownRow row;
        row.bucketMaxSize = dist_.deciles()[i];
        row.count = buckets_[i].count();
        row.median = buckets_[i].median();
        row.p99 = buckets_[i].p99();
        row.mean = row.count == 0
                       ? 0.0
                       : decileSum(i) / static_cast<double>(row.count);
        out.push_back(row);
    }
    return out;
}

size_t SlowdownTracker::count() const {
    size_t n = 0;
    for (const Samples& b : buckets_) n += b.count();
    return n;
}

double SlowdownTracker::overallPercentile(double p) const {
    const size_t n = count();
    if (n == 0) return 0.0;
    // The rank-th smallest value over all deciles. A value v is it when
    // fewer than rank + 1 values lie below v and more than rank lie at or
    // below it; binary-search each decile's sorted values for such a v
    // (some decile holds it).
    const size_t rank = Samples::nearestRank(p, n);
    for (const Samples& b : buckets_) {
        const std::vector<double>& v = b.sorted();
        size_t lo = 0, hi = v.size();
        while (lo < hi) {
            const size_t mid = lo + (hi - lo) / 2;
            size_t below = 0, upTo = 0;
            for (const Samples& other : buckets_) {
                const std::vector<double>& w = other.sorted();
                below += static_cast<size_t>(
                    std::lower_bound(w.begin(), w.end(), v[mid]) - w.begin());
                upTo += static_cast<size_t>(
                    std::upper_bound(w.begin(), w.end(), v[mid]) - w.begin());
            }
            if (rank < below) {
                hi = mid;
            } else if (rank >= upTo) {
                lo = mid + 1;
            } else {
                return v[mid];
            }
        }
    }
    return 0.0;  // unreachable: the rank-th value lies in some decile
}

std::pair<Duration, Duration> SlowdownTracker::tailDelaySources() const {
    if (shortMessages_.empty()) return {0, 0};
    Samples delays;
    for (const auto& r : shortMessages_) delays.add(static_cast<double>(r.elapsed));
    const double lo = delays.percentile(0.98);
    Duration q = 0, lag = 0;
    int64_t n = 0;
    for (const auto& r : shortMessages_) {
        if (static_cast<double>(r.elapsed) < lo) continue;
        q += r.queueingDelay;
        lag += r.preemptionLag;
        n++;
    }
    if (n == 0) return {0, 0};
    return {q / n, lag / n};
}

}  // namespace homa
