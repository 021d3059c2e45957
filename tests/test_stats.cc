#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "sim/random.h"
#include "stats/percentile.h"
#include "stats/report.h"
#include "stats/slowdown.h"
#include "workload/workloads.h"

namespace homa {
namespace {

TEST(Samples, EmptyIsSafe) {
    Samples s;
    EXPECT_TRUE(s.empty());
    EXPECT_EQ(s.percentile(0.5), 0.0);
    EXPECT_EQ(s.mean(), 0.0);
    EXPECT_EQ(s.max(), 0.0);
}

TEST(Samples, BasicStatistics) {
    Samples s;
    for (double v : {5.0, 1.0, 3.0, 2.0, 4.0}) s.add(v);
    EXPECT_EQ(s.count(), 5u);
    EXPECT_DOUBLE_EQ(s.mean(), 3.0);
    EXPECT_DOUBLE_EQ(s.min(), 1.0);
    EXPECT_DOUBLE_EQ(s.max(), 5.0);
    EXPECT_DOUBLE_EQ(s.median(), 3.0);
}

TEST(Samples, PercentileNearestRank) {
    Samples s;
    for (int i = 1; i <= 100; i++) s.add(i);
    EXPECT_DOUBLE_EQ(s.percentile(0.0), 1.0);
    EXPECT_DOUBLE_EQ(s.percentile(0.50), 50.0);
    EXPECT_DOUBLE_EQ(s.percentile(0.99), 99.0);
    EXPECT_DOUBLE_EQ(s.percentile(1.0), 100.0);
}

TEST(Samples, SingleSampleAnswersEveryQuery) {
    Samples s;
    s.add(7.5);
    EXPECT_EQ(s.count(), 1u);
    for (double p : {0.0, 0.25, 0.5, 0.99, 1.0}) {
        EXPECT_DOUBLE_EQ(s.percentile(p), 7.5) << "p=" << p;
    }
    EXPECT_DOUBLE_EQ(s.mean(), 7.5);
    EXPECT_DOUBLE_EQ(s.min(), 7.5);
    EXPECT_DOUBLE_EQ(s.max(), 7.5);
}

TEST(Samples, DuplicateHeavyInput) {
    // 990 copies of 1.0 and 10 of 2.0: nearest-rank percentiles must sit
    // on the duplicated value through p99 and step up only past it.
    Samples s;
    for (int i = 0; i < 990; i++) s.add(1.0);
    for (int i = 0; i < 10; i++) s.add(2.0);
    EXPECT_DOUBLE_EQ(s.median(), 1.0);
    EXPECT_DOUBLE_EQ(s.percentile(0.99), 1.0);
    EXPECT_DOUBLE_EQ(s.percentile(0.995), 2.0);
    EXPECT_DOUBLE_EQ(s.percentile(1.0), 2.0);
    EXPECT_DOUBLE_EQ(s.mean(), (990.0 + 20.0) / 1000.0);
}

TEST(Samples, PercentileClampsOutOfRangeP) {
    Samples s;
    s.add(1.0);
    s.add(2.0);
    EXPECT_DOUBLE_EQ(s.percentile(-0.5), 1.0);
    EXPECT_DOUBLE_EQ(s.percentile(1.5), 2.0);
}

TEST(Samples, InterleavedAddAndQuery) {
    Samples s;
    s.add(10);
    EXPECT_DOUBLE_EQ(s.median(), 10.0);
    s.add(20);
    s.add(30);
    EXPECT_DOUBLE_EQ(s.median(), 20.0);  // re-sorts after new samples
}

TEST(Samples, MergedPercentilesMatchAFreshSortUnderRandomInterleavings) {
    // percentile() merges only the samples added since its last call into
    // a sorted prefix. Under any interleaving of add, absorb (of partly
    // queried collections too) and percentile, each answer must equal
    // nearest rank on a freshly sorted copy. Values come from 16
    // levels, so duplicates are everywhere.
    Rng rng(20240611);
    auto draw = [&rng] { return 0.5 * static_cast<double>(rng.below(16)); };
    for (int trial = 0; trial < 40; trial++) {
        Samples s;
        std::vector<double> model;
        double sum = 0;
        for (int op = 0; op < 300; op++) {
            const uint64_t kind = rng.below(10);
            if (kind < 6) {
                const double v = draw();
                s.add(v);
                model.push_back(v);
                sum += v;
            } else if (kind < 8) {
                Samples other;
                double otherSum = 0;
                const uint64_t n = rng.below(20);
                for (uint64_t i = 0; i < n; i++) {
                    const double v = draw();
                    other.add(v);
                    otherSum += v;
                    if (rng.below(4) == 0) other.percentile(0.5);
                }
                s.absorb(other);
                model.insert(model.end(), other.values().begin(),
                             other.values().end());
                sum += otherSum;
            } else {
                std::vector<double> sorted = model;
                std::sort(sorted.begin(), sorted.end());
                for (double p : {0.0, 0.5, 0.95, 0.99, 1.0}) {
                    const double want =
                        sorted.empty()
                            ? 0.0
                            : sorted[p == 0.0 ? 0
                                              : static_cast<size_t>(std::ceil(
                                                    p * sorted.size())) -
                                                    1];
                    ASSERT_EQ(s.percentile(p), want)
                        << "trial " << trial << " op " << op << " p=" << p;
                }
                ASSERT_EQ(s.values(), sorted) << "trial " << trial;
            }
            ASSERT_EQ(s.count(), model.size());
            ASSERT_EQ(s.mean(), model.empty() ? 0.0 : sum / model.size());
        }
    }
}

TEST(SlowdownTracker, RecordsIntoCorrectDecileBuckets) {
    const auto& dist = workload(WorkloadId::W3);  // deciles start 36, 77...
    SlowdownTracker t(dist, [](uint32_t) { return microseconds(1); });
    t.record(10, microseconds(2));    // bucket 0 (<= 36)
    t.record(36, microseconds(3));    // bucket 0 boundary
    t.record(100, microseconds(4));   // bucket 2 (<= 110)
    t.record(1u << 30, microseconds(9));  // clamps to last bucket
    auto rows = t.rows();
    ASSERT_EQ(rows.size(), 10u);
    EXPECT_EQ(rows[0].count, 2u);
    EXPECT_EQ(rows[2].count, 1u);
    EXPECT_EQ(rows[9].count, 1u);
    EXPECT_DOUBLE_EQ(rows[2].median, 4.0);
}

TEST(SlowdownTracker, SlowdownIsElapsedOverOracle) {
    const auto& dist = workload(WorkloadId::W1);
    SlowdownTracker t(dist, [](uint32_t size) {
        return microseconds(1) * (1 + size / 1000);
    });
    t.record(2000, microseconds(9));  // oracle = 3us -> slowdown 3
    EXPECT_DOUBLE_EQ(t.overallPercentile(0.5), 3.0);
}

TEST(SlowdownTracker, TailDelaySourcesUsesShortMessagesNearP99) {
    const auto& dist = workload(WorkloadId::W3);
    SlowdownTracker t(dist, [](uint32_t) { return microseconds(1); });
    // 99 fast short messages with distinct delays and zero decomposition,
    // plus one slow one with a big decomposition. The p98 threshold selects
    // the slowest 3 (98, 99, and 1000 us); only the slow one contributes.
    for (int i = 1; i <= 99; i++) {
        t.record(30, microseconds(i), 0, 0);
    }
    t.record(30, microseconds(1000), microseconds(30), microseconds(15));
    auto [queueing, lag] = t.tailDelaySources();
    EXPECT_EQ(queueing, microseconds(30) / 3);
    EXPECT_EQ(lag, microseconds(15) / 3);
}

TEST(SlowdownTracker, IgnoresLargeMessagesForTailDecomposition) {
    const auto& dist = workload(WorkloadId::W3);
    SlowdownTracker t(dist, [](uint32_t) { return microseconds(1); });
    t.record(5'000'000, microseconds(1000), microseconds(500), microseconds(500));
    auto [queueing, lag] = t.tailDelaySources();
    EXPECT_EQ(queueing, 0);
    EXPECT_EQ(lag, 0);
}

TEST(SlowdownTracker, EmptyTrackerIsSafe) {
    const auto& dist = workload(WorkloadId::W2);
    SlowdownTracker t(dist, [](uint32_t) { return microseconds(1); });
    EXPECT_EQ(t.count(), 0u);
    EXPECT_EQ(t.overallPercentile(0.99), 0.0);
    auto rows = t.rows();
    ASSERT_EQ(rows.size(), 10u);
    for (const auto& row : rows) {
        EXPECT_EQ(row.count, 0u);
        EXPECT_EQ(row.median, 0.0);
        EXPECT_EQ(row.p99, 0.0);
    }
    auto [queueing, lag] = t.tailDelaySources();
    EXPECT_EQ(queueing, 0);
    EXPECT_EQ(lag, 0);
}

TEST(SlowdownTracker, DuplicateHeavySamplesKeepExactPercentiles) {
    const auto& dist = workload(WorkloadId::W1);
    SlowdownTracker t(dist, [](uint32_t) { return microseconds(1); });
    for (int i = 0; i < 500; i++) t.record(100, microseconds(1));  // slowdown 1
    t.record(100, microseconds(50));  // one straggler
    EXPECT_DOUBLE_EQ(t.overallPercentile(0.5), 1.0);
    EXPECT_DOUBLE_EQ(t.overallPercentile(0.99), 1.0);
    EXPECT_DOUBLE_EQ(t.overallPercentile(1.0), 50.0);
}

TEST(SlowdownTracker, RecordWithBestRejectsNonPositiveBestAndForeignHosts) {
    // Release builds compile asserts out, so a zero best-case time would
    // record inf into a decile and its mean.
    const auto& dist = workload(WorkloadId::W3);
    SlowdownTracker one(dist, [](uint32_t) { return microseconds(1); });
    EXPECT_THROW(one.recordWithBest(100, microseconds(2), 0),
                 std::invalid_argument);
    EXPECT_THROW(one.recordWithBest(100, microseconds(2), -5),
                 std::invalid_argument);
    EXPECT_THROW(one.recordWithBest(100, microseconds(2), microseconds(1), 0,
                                    0, /*host=*/1),
                 std::invalid_argument);
    EXPECT_THROW(one.recordWithBest(100, microseconds(2), microseconds(1), 0,
                                    0, /*host=*/-1),
                 std::invalid_argument);
    EXPECT_EQ(one.count(), 0u);

    SlowdownTracker four(dist, [](uint32_t) { return microseconds(1); }, 4);
    EXPECT_THROW(four.recordWithBest(100, microseconds(2), microseconds(1), 0,
                                     0, /*host=*/4),
                 std::invalid_argument);
    four.recordWithBest(100, microseconds(2), microseconds(1), 0, 0, 3);
    EXPECT_EQ(four.count(), 1u);
    EXPECT_THROW(SlowdownTracker(dist, OracleFn{}, 0), std::invalid_argument);
}

TEST(SlowdownTracker, OverallPercentileMatchesOneSampleOfAllValues) {
    // The tracker keeps each value once, in its decile; the overall
    // percentile must pick the nearest-rank value of all of them. Values
    // come from 12 levels, so ties cross deciles everywhere.
    const auto& dist = workload(WorkloadId::W3);
    const std::vector<double> ps = {0.0, 1e-9, 0.5, 0.99, 1.0};
    Rng rng(20261020);
    for (int n : {0, 1, 2, 7, 100, 1000}) {
        SlowdownTracker t(dist, OracleFn{});
        Samples all;
        for (int k = 0; k < n; k++) {
            const uint32_t size = dist.deciles()[rng.below(10)];
            const Duration elapsed = 1000 + 250 * static_cast<Duration>(rng.below(12));
            t.recordWithBest(size, elapsed, 1000);
            all.add(static_cast<double>(elapsed) / 1000.0);
            if (k % 97 == 0) t.overallPercentile(0.5);  // sorts a prefix
        }
        ASSERT_EQ(t.count(), all.count());
        for (double p : ps) {
            EXPECT_EQ(std::bit_cast<uint64_t>(t.overallPercentile(p)),
                      std::bit_cast<uint64_t>(all.percentile(p)))
                << "n=" << n << " p=" << p;
        }
    }
}

// Per-host sums: an n-host tracker (or the engine's shard trackers merged)
// must report exactly what n one-host trackers absorbed in host order do.
void expectSameBits(const SlowdownTracker& want, const SlowdownTracker& got,
                    const char* what) {
    SCOPED_TRACE(what);
    ASSERT_EQ(want.count(), got.count());
    const auto bits = [](double v) { return std::bit_cast<uint64_t>(v); };
    const std::vector<SlowdownRow> a = want.rows(), b = got.rows();
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); i++) {
        EXPECT_EQ(a[i].count, b[i].count) << "row " << i;
        EXPECT_EQ(bits(a[i].median), bits(b[i].median)) << "row " << i;
        EXPECT_EQ(bits(a[i].p99), bits(b[i].p99)) << "row " << i;
        EXPECT_EQ(bits(a[i].mean), bits(b[i].mean)) << "row " << i;
    }
    for (double p : {0.5, 0.99}) {
        EXPECT_EQ(bits(want.overallPercentile(p)), bits(got.overallPercentile(p)))
            << "p=" << p;
    }
    EXPECT_EQ(want.tailDelaySources(), got.tailDelaySources());
}

TEST(SlowdownTrackerHosts, InterleavedRecordsMatchOneHostTrackersInHostOrder) {
    const auto& dist = workload(WorkloadId::W3);
    constexpr int kHosts = 9;  // hosts 2 and 7 record nothing
    const OracleFn oracle = [](uint32_t) { return microseconds(1); };
    std::vector<SlowdownTracker> perHost;
    for (int h = 0; h < kHosts; h++) perHost.emplace_back(dist, oracle);
    SlowdownTracker eventOrder(dist, oracle);
    SlowdownTracker hosts(dist, oracle, kHosts);
    // Two shard trackers, hosts dealt round-robin as racks are.
    std::vector<SlowdownTracker> shards;
    shards.emplace_back(dist, oracle, kHosts);
    shards.emplace_back(dist, oracle, kHosts);

    Rng rng(7);
    for (int k = 0; k < 4000; k++) {
        int h = static_cast<int>(rng.below(kHosts));
        if (h == 2 || h == 7) h++;
        const uint32_t size = dist.deciles()[rng.below(10)] - 1;
        const Duration elapsed = 1 + static_cast<Duration>(rng.below(1u << 30));
        const Duration best = 1 + static_cast<Duration>(rng.below(1u << 20));
        const Duration q = static_cast<Duration>(rng.below(5000));
        const Duration lag = static_cast<Duration>(rng.below(5000));
        perHost[h].recordWithBest(size, elapsed, best, q, lag);
        eventOrder.recordWithBest(size, elapsed, best, q, lag);
        hosts.recordWithBest(size, elapsed, best, q, lag, h);
        shards[h % 2].recordWithBest(size, elapsed, best, q, lag, h);
    }
    SlowdownTracker want(dist, oracle);
    for (const SlowdownTracker& t : perHost) want.absorb(t);

    // The data must tell the orders apart, or the checks below prove
    // nothing: summing in event order moves some decile mean.
    bool meansDiffer = false;
    for (size_t i = 0; i < 10; i++) {
        meansDiffer |= eventOrder.rows()[i].mean != want.rows()[i].mean;
    }
    EXPECT_TRUE(meansDiffer);

    expectSameBits(want, hosts, "n-host tracker");
    SlowdownTracker absorbed(dist, oracle);
    absorbed.absorb(hosts);
    expectSameBits(want, absorbed, "one-host tracker absorbing it");
    expectSameBits(want, SlowdownTracker::merge(std::move(shards)),
                   "two shard trackers merged");
    std::vector<SlowdownTracker> whole;
    whole.push_back(std::move(hosts));
    expectSameBits(want, SlowdownTracker::merge(std::move(whole)),
                   "one shard tracker merged");
}

TEST(SlowdownTrackerHosts, AbsorbRefusesAMismatchedHostCount) {
    const auto& dist = workload(WorkloadId::W3);
    SlowdownTracker four(dist, OracleFn{}, 4);
    SlowdownTracker three(dist, OracleFn{}, 3);
    SlowdownTracker one(dist, OracleFn{});
    EXPECT_THROW(four.absorb(three), std::invalid_argument);
    EXPECT_THROW(four.absorb(one), std::invalid_argument);
    one.absorb(three);  // a one-host tracker takes any
    EXPECT_EQ(one.count(), 0u);
}

TEST(Table, FormatsAlignedColumns) {
    Table t({"name", "value"});
    t.addRow({"a", "1"});
    t.addRow({"long-name", "22"});
    const std::string out = t.format();
    EXPECT_NE(out.find("name"), std::string::npos);
    EXPECT_NE(out.find("long-name"), std::string::npos);
    EXPECT_NE(out.find("----"), std::string::npos);
    // Every line has the same structure: header, rule, 2 rows.
    EXPECT_EQ(std::count(out.begin(), out.end(), '\n'), 4);
}

TEST(Table, NumberFormatting) {
    EXPECT_EQ(Table::num(3.14159, 2), "3.14");
    EXPECT_EQ(Table::num(3.0, 0), "3");
    EXPECT_EQ(Table::bytes(512), "512");
    EXPECT_EQ(Table::bytes(16129), "16.1K");
    EXPECT_EQ(Table::bytes(28840000), "28.8M");
}

TEST(Banner, ContainsTitle) {
    EXPECT_NE(banner("Hello").find("Hello"), std::string::npos);
}

}  // namespace
}  // namespace homa
