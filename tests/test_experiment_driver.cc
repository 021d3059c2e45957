// Integration tests of the experiment harness itself: load calibration,
// measurement windows, utilization accounting, overload detection.
#include <gtest/gtest.h>

#include <stdexcept>

#include "driver/experiment.h"
#include "driver/rpc_experiment.h"

namespace homa {
namespace {

ExperimentConfig smallConfig(WorkloadId wl, double load,
                             Protocol kind = Protocol::Homa) {
    ExperimentConfig cfg;
    cfg.proto.kind = kind;
    cfg.traffic.workload = wl;
    cfg.traffic.load = load;
    cfg.traffic.stop = milliseconds(4);
    cfg.drainGrace = milliseconds(30);
    return cfg;
}

TEST(ExperimentDriver, ModerateLoadKeepsUp) {
    // W2: light enough tail that a short window gives a clean verdict.
    ExperimentResult r = runExperiment(smallConfig(WorkloadId::W2, 0.5));
    EXPECT_TRUE(r.keptUp);
    EXPECT_GT(r.generated, 1000u);
    EXPECT_EQ(r.delivered, r.generated);
    EXPECT_EQ(r.switchDrops, 0u);
}

TEST(ExperimentDriver, UtilizationTracksOfferedLoad) {
    // W2's tail is light enough that a short window measures utilization
    // decently: expect downlink utilization within ~25% of offered.
    ExperimentResult r = runExperiment(smallConfig(WorkloadId::W2, 0.6));
    EXPECT_GT(r.downlinkUtilization, 0.45);
    EXPECT_LT(r.downlinkUtilization, 0.75);
}

TEST(ExperimentDriver, GrossOverloadDetected) {
    // 120% offered load cannot be sustained by anything.
    ExperimentResult r = runExperiment(smallConfig(WorkloadId::W2, 1.2));
    EXPECT_FALSE(r.keptUp);
}

TEST(ExperimentDriver, SlowdownsAreAtLeastOne) {
    ExperimentResult r = runExperiment(smallConfig(WorkloadId::W3, 0.7));
    EXPECT_GE(r.slowdown->overallPercentile(0.0), 1.0 - 1e-9);
    EXPECT_GE(r.slowdown->overallPercentile(0.99),
              r.slowdown->overallPercentile(0.50));
}

TEST(ExperimentDriver, PriorityUsageSumsBelowUtilization) {
    ExperimentResult r = runExperiment(smallConfig(WorkloadId::W3, 0.6));
    double sum = 0;
    for (double v : r.prioUsage) {
        EXPECT_GE(v, 0.0);
        sum += v;
    }
    EXPECT_NEAR(sum, r.downlinkUtilization, 1e-6);
}

TEST(ExperimentDriver, HigherLoadRaisesTailSlowdown) {
    ExperimentResult lo = runExperiment(smallConfig(WorkloadId::W3, 0.4));
    ExperimentResult hi = runExperiment(smallConfig(WorkloadId::W3, 0.85));
    EXPECT_GT(hi.slowdown->overallPercentile(0.99),
              lo.slowdown->overallPercentile(0.99));
}

TEST(ExperimentDriver, DeterministicGivenSeed) {
    auto run = [] {
        ExperimentResult r = runExperiment(smallConfig(WorkloadId::W1, 0.6));
        return std::make_tuple(r.generated, r.delivered,
                               r.slowdown->overallPercentile(0.99));
    };
    EXPECT_EQ(run(), run());
}

TEST(ExperimentDriver, SeedChangesTraffic) {
    ExperimentConfig a = smallConfig(WorkloadId::W1, 0.6);
    ExperimentConfig b = a;
    b.traffic.seed = a.traffic.seed + 1;
    EXPECT_NE(runExperiment(a).generated, runExperiment(b).generated);
}

TEST(ExperimentDriver, WastedBandwidthProbeOnlyWhenRequested) {
    ExperimentConfig cfg = smallConfig(WorkloadId::W4, 0.7);
    cfg.measureWastedBandwidth = false;
    EXPECT_EQ(runExperiment(cfg).wastedBandwidth, 0.0);
}

class ProtocolsUnderLoad
    : public ::testing::TestWithParam<std::tuple<Protocol, double>> {};

TEST_P(ProtocolsUnderLoad, DeliversAndStaysSane) {
    auto [kind, load] = GetParam();
    ExperimentConfig cfg = smallConfig(WorkloadId::W3, load, kind);
    ExperimentResult r = runExperiment(cfg);
    EXPECT_GT(r.generated, 500u);
    // Every protocol must deliver nearly everything at these easy loads.
    EXPECT_GE(static_cast<double>(r.delivered),
              0.98 * static_cast<double>(r.generated))
        << protocolName(kind) << " @ " << load;
    EXPECT_GE(r.slowdown->overallPercentile(0.5), 1.0 - 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, ProtocolsUnderLoad,
    ::testing::Combine(::testing::Values(Protocol::Homa, Protocol::Basic,
                                         Protocol::PHost, Protocol::Pias,
                                         Protocol::PFabric),
                       ::testing::Values(0.3, 0.55)),
    [](const auto& info) {
        std::string n = protocolName(std::get<0>(info.param));
        n.erase(std::remove(n.begin(), n.end(), '-'), n.end());
        return n + "_" +
               std::to_string(static_cast<int>(std::get<1>(info.param) * 100));
    });

TEST(RpcExperiment, EchoSlowdownsReasonableAtModerateLoad) {
    RpcExperimentConfig cfg;
    cfg.workload = WorkloadId::W3;
    cfg.load = 0.5;
    cfg.stop = milliseconds(8);
    RpcExperimentResult r = runRpcExperiment(cfg);
    EXPECT_TRUE(r.keptUp);
    EXPECT_GT(r.issued, 300u);
    EXPECT_GE(r.slowdown->overallPercentile(0.5), 1.0 - 1e-9);
    EXPECT_LT(r.slowdown->overallPercentile(0.5), 3.0);
}

TEST(RpcExperiment, HomaBeatsStreamingTail) {
    RpcExperimentConfig cfg;
    cfg.workload = WorkloadId::W3;
    cfg.load = 0.7;
    cfg.stop = milliseconds(8);
    RpcExperimentResult homa = runRpcExperiment(cfg);
    cfg.proto.kind = Protocol::StreamSC;
    RpcExperimentResult stream = runRpcExperiment(cfg);
    EXPECT_LT(10 * homa.slowdown->overallPercentile(0.99),
              stream.slowdown->overallPercentile(0.99));
}

TEST(ExperimentDriver, WarmupZeroCountsEveryMessage) {
    ExperimentConfig cfg = smallConfig(WorkloadId::W2, 0.4);
    cfg.warmupFraction = 0.0;
    ExperimentResult r = runExperiment(cfg);
    EXPECT_EQ(r.windowStart, cfg.traffic.start);
    // Every generated message is in-window, so the window counters and the
    // all-inclusive totals coincide.
    EXPECT_GT(r.generated, 0u);
    EXPECT_EQ(r.delivered, r.deliveredTotal);
    EXPECT_EQ(r.slowdown->count(), r.delivered);
}

TEST(ExperimentDriver, WarmupOneYieldsEmptyWindowSafely) {
    ExperimentConfig cfg = smallConfig(WorkloadId::W2, 0.4);
    cfg.warmupFraction = 1.0;
    ExperimentResult r = runExperiment(cfg);
    EXPECT_EQ(r.windowStart, r.windowEnd);
    EXPECT_EQ(r.generated, 0u);
    EXPECT_EQ(r.delivered, 0u);
    EXPECT_EQ(r.slowdown->count(), 0u);
    EXPECT_FALSE(r.keptUp);
    EXPECT_EQ(r.downlinkUtilization, 0.0);  // zero-length window
    EXPECT_GT(r.deliveredTotal, 0u);        // traffic still flowed
}

TEST(ExperimentDriver, WindowBoundariesExcludeStraddlingMessages) {
    // Trace replay pins message creation times exactly: one message lands
    // before windowStart (warm-up), one inside the window, one at the very
    // first instant of the window, and generation stops at windowEnd.
    ExperimentConfig cfg;
    cfg.net = NetworkConfig::singleRack16();
    cfg.traffic.stop = milliseconds(10);
    cfg.warmupFraction = 0.5;  // windowStart = 5 ms
    cfg.traffic.scenario.kind = TrafficPatternKind::TraceReplay;
    cfg.traffic.scenario.traceText =
        "1000 1 2 2000\n"    // 1 ms: warm-up, excluded
        "5000 3 4 2000\n"    // exactly windowStart: included
        "7000 5 6 2000\n";   // inside the window: included
    ExperimentResult r = runExperiment(cfg);
    EXPECT_EQ(r.generated, 2u);
    EXPECT_EQ(r.delivered, 2u);
    EXPECT_EQ(r.deliveredTotal, 3u);
    EXPECT_EQ(r.slowdown->count(), 2u);
}

TEST(ExperimentDriver, IncastOverflowDropsPropagateToResult) {
    // Finite tail-drop buffers + an N-to-1 fan-in hotspot: the hot
    // receiver's TOR downlink must overflow, and the qdiscs' drop counts
    // must surface as ExperimentResult::switchDrops.
    ExperimentConfig cfg = smallConfig(WorkloadId::W3, 0.6);
    cfg.traffic.scenario.kind = TrafficPatternKind::Incast;
    cfg.traffic.scenario.hotspots = 2;
    cfg.traffic.scenario.hotspotDegree = 32;
    cfg.net.switchQdisc = [] {
        StrictPriorityOptions o;
        o.capBytes = 50'000;  // far below the fan-in burst
        return std::make_unique<StrictPriorityQdisc>(o);
    };
    ExperimentResult r = runExperiment(cfg);
    EXPECT_GT(r.switchDrops, 0u);
    EXPECT_EQ(r.switchTrims, 0u);  // tail-drop path, not trimming
    EXPECT_FALSE(r.keptUp);        // 32x oversubscription cannot keep up
}

TEST(ExperimentDriver, IncastOverflowTrimsOnNdp) {
    // Same hotspot under NDP's default switch: overflowing DATA packets
    // are trimmed to headers (never dropped), and the trim counts must
    // surface as ExperimentResult::switchTrims.
    ExperimentConfig cfg = smallConfig(WorkloadId::W3, 0.6, Protocol::Ndp);
    cfg.traffic.scenario.kind = TrafficPatternKind::Incast;
    cfg.traffic.scenario.hotspots = 2;
    cfg.traffic.scenario.hotspotDegree = 32;
    ExperimentResult r = runExperiment(cfg);
    EXPECT_GT(r.switchTrims, 0u);
    EXPECT_EQ(r.switchDrops, 0u);
}

TEST(ExperimentDriver, GenerousBuffersAbsorbTheSameIncast) {
    // Control for the drop test: the identical hotspot with the default
    // unbounded switch produces zero drops (the overload shows up as
    // backlog, not loss).
    ExperimentConfig cfg = smallConfig(WorkloadId::W3, 0.6);
    cfg.traffic.scenario.kind = TrafficPatternKind::Incast;
    cfg.traffic.scenario.hotspots = 2;
    cfg.traffic.scenario.hotspotDegree = 32;
    ExperimentResult r = runExperiment(cfg);
    EXPECT_EQ(r.switchDrops, 0u);
    EXPECT_EQ(r.switchTrims, 0u);
}

TEST(ExperimentDriver, CallerMisuseThrows) {
    // Serving scenarios belong to runRpcExperiment.
    ExperimentConfig serving = smallConfig(WorkloadId::W3, 0.5);
    serving.traffic.scenario.serving.tenants.emplace_back();
    EXPECT_THROW((void)runExperiment(serving), std::invalid_argument);
    // A topo spec set directly on the config bypasses parse-time checks.
    ExperimentConfig badTopo = smallConfig(WorkloadId::W3, 0.5);
    badTopo.traffic.scenario.topoSpec = "racks=0";
    EXPECT_THROW((void)runExperiment(badTopo), std::invalid_argument);
    // Fluid flows bypass the switches faults act on.
    ExperimentConfig fluidFaults = smallConfig(WorkloadId::W3, 0.5);
    fluidFaults.fluidThresholdBytes = 20000;
    fluidFaults.traffic.scenario.faults.emplace_back();
    EXPECT_THROW((void)runExperiment(fluidFaults), std::invalid_argument);
}

TEST(FindMaxLoad, DetectsACapForPHost) {
    // pHost (no overcommitment) must cap strictly below Homa on W3.
    ExperimentConfig base = smallConfig(WorkloadId::W3, 0.5, Protocol::PHost);
    base.traffic.stop = milliseconds(5);
    const double phost = findMaxLoad(base, 50, 10, 95);
    base.proto.kind = Protocol::Homa;
    const double homa = findMaxLoad(base, 50, 10, 95);
    EXPECT_GE(homa, phost);
    EXPECT_LT(phost, 95.0);
}

}  // namespace
}  // namespace homa
