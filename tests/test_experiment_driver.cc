// Integration tests of the experiment harness itself: load calibration,
// measurement windows, utilization accounting, overload detection.
#include <gtest/gtest.h>

#include <cmath>
#include <functional>
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

TEST(ExperimentDriver, PriorityUsageSumsToUtilization) {
    // Every downlink wire byte is counted at exactly one priority, so the
    // per-priority shares of the window's capacity add up to its
    // utilization.
    ExperimentResult r = runExperiment(smallConfig(WorkloadId::W3, 0.6));
    double sum = 0;
    for (double v : r.prioUsage) {
        EXPECT_GE(v, 0.0);
        sum += v;
    }
    EXPECT_GT(sum, 0.0);
    EXPECT_NEAR(sum, r.downlinkUtilization, 1e-9);
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

TEST(RpcExperiment, CallerMisuseThrows) {
    // Checked before anything is built, in every build type. Unchecked,
    // each would crash (an empty server pool divides by zero in
    // Rng::below), never return (an open loop at load 0) or run silently
    // empty.
    struct Case {
        const char* expect;
        std::function<void(RpcExperimentConfig&)> mutate;
    };
    const Case cases[] = {
        {"no server host", [](RpcExperimentConfig& c) { c.clients = 16; }},
        {"load must be finite and > 0",
         [](RpcExperimentConfig& c) { c.load = 0; }},
        {"clients must be >= 1", [](RpcExperimentConfig& c) { c.clients = 0; }},
        {"Homa wire priorities must be in [1, 8]",
         [](RpcExperimentConfig& c) { c.proto.homa.wirePriorities = 9; }},
        {"Homa resend timeout must be > 0",
         [](RpcExperimentConfig& c) { c.proto.homa.resendTimeout = 0; }},
        {"Homa max resends must be >= 0",
         [](RpcExperimentConfig& c) { c.proto.homa.maxResends = -1; }},
        {"Homa sender linger must be >= 0",
         [](RpcExperimentConfig& c) { c.proto.homa.senderLinger = -1; }},
    };
    for (const Case& c : cases) {
        RpcExperimentConfig cfg;
        c.mutate(cfg);
        EXPECT_THROW((void)runRpcExperiment(cfg), std::invalid_argument)
            << c.expect;
        try {
            (void)runRpcExperiment(cfg);
        } catch (const std::invalid_argument& e) {
            const std::string why = e.what();
            EXPECT_EQ(why.rfind("runRpcExperiment: ", 0), 0u) << why;
            EXPECT_NE(why.find(c.expect), std::string::npos) << why;
        }
    }
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
    // Checked before anything is built, in every build type. Unchecked,
    // these would run silently empty (load 0, stop == start, warm-up 2,
    // window 0), exit or abort inside the library (a trace without a
    // schedule, an out-of-range fault target), ignore a knob (on-off over
    // a trace, ECMP on one rack), or never return (Pareto shape 1).
    struct Case {
        const char* expect;
        std::function<void(ExperimentConfig&)> mutate;
    };
    auto onOff = [](ExperimentConfig& c) -> OnOffConfig& {
        c.traffic.scenario.onOff.enabled = true;
        return c.traffic.scenario.onOff;
    };
    const Case cases[] = {
        // Serving scenarios belong to runRpcExperiment.
        {"must run through runRpcExperiment",
         [](ExperimentConfig& c) {
             c.traffic.scenario.serving.tenants.emplace_back();
         }},
        // A topo spec set directly on the config bypasses parse-time checks.
        {"bad topo spec 'racks=0'",
         [](ExperimentConfig& c) { c.traffic.scenario.topoSpec = "racks=0"; }},
        // Fluid flows bypass the switches faults act on.
        {"fluid does not compose with fault injection",
         [](ExperimentConfig& c) {
             c.fluidThresholdBytes = 20000;
             c.traffic.scenario.faults.emplace_back();
         }},
        // A DAG shape set directly on the config bypasses the spec parser.
        {"dag: fanout must be >= 1",
         [](ExperimentConfig& c) {
             c.traffic.scenario.kind = TrafficPatternKind::Dag;
             c.traffic.scenario.dag.fanout = 0;
         }},
        {"dag: depth must be >= 1",
         [](ExperimentConfig& c) {
             c.traffic.scenario.kind = TrafficPatternKind::Dag;
             c.traffic.scenario.dag.depth = 0;
         }},
        {"open-loop load must be in (0, 1.5]",
         [](ExperimentConfig& c) { c.traffic.load = 0; }},
        {"open-loop load must be in (0, 1.5]",
         [](ExperimentConfig& c) { c.traffic.load = -1; }},
        {"open-loop load must be in (0, 1.5]",
         [](ExperimentConfig& c) { c.traffic.load = std::nan(""); }},
        {"traffic.stop must be after traffic.start",
         [](ExperimentConfig& c) { c.traffic.stop = c.traffic.start; }},
        {"warmupFraction must be in [0, 1]",
         [](ExperimentConfig& c) { c.warmupFraction = 2; }},
        {"closed-loop window must be >= 1",
         [](ExperimentConfig& c) {
             c.traffic.scenario.kind = TrafficPatternKind::ClosedLoop;
             c.traffic.scenario.closedLoopWindow = 0;
         }},
        {"pattern 'trace' needs a schedule",
         [](ExperimentConfig& c) {
             c.traffic.scenario.kind = TrafficPatternKind::TraceReplay;
         }},
        {"on-off does not compose with trace replay",
         [&onOff](ExperimentConfig& c) {
             c.traffic.scenario.kind = TrafficPatternKind::TraceReplay;
             c.traffic.scenario.traceText = "10 1 2 1000\n";
             onOff(c);
         }},
        {"on-off onMean must be > 0",
         [&onOff](ExperimentConfig& c) { onOff(c).onMean = 0; }},
        {"on-off pareto shape must be > 1",
         [&onOff](ExperimentConfig& c) {
             onOff(c).dist = OnOffDist::Pareto;
             onOff(c).paretoShape = 1.0;
         }},
        {"tor fault target index 5 out of range",
         [](ExperimentConfig& c) {
             FaultSpec kill;
             ASSERT_TRUE(parseFaultSpec("kill=tor5,at=1ms", kill));
             c.traffic.scenario.faults.push_back(kill);
         }},
        {"ecmp needs uplinks",
         [](ExperimentConfig& c) { c.traffic.scenario.ecmpUplinks = true; }},
        // Homa's knobs: switches have 8 priority levels, and one logical
        // level with derived levels made allocationFromSample call
        // std::clamp(x, 1, 0).
        {"Homa wire priorities must be in [1, 8]",
         [](ExperimentConfig& c) { c.proto.homa.wirePriorities = 0; }},
        {"Homa logical priorities must be in [2, 8]",
         [](ExperimentConfig& c) { c.proto.homa.logicalPriorities = 1; }},
        {"Homa unscheduled priorities must be below the logical priorities",
         [](ExperimentConfig& c) { c.proto.homa.unschedPriorities = 8; }},
        {"Homa oldest-message reservation must be in [0, 1]",
         [](ExperimentConfig& c) { c.proto.homa.oldestReservation = 5; }},
        // Loss recovery: a zero or negative timeout ran silently and lost
        // messages, and a negative linger forgot every message at once.
        {"Homa resend timeout must be > 0",
         [](ExperimentConfig& c) { c.proto.homa.resendTimeout = 0; }},
        {"Homa resend timeout must be > 0",
         [](ExperimentConfig& c) {
             c.proto.homa.resendTimeout = -milliseconds(1);
         }},
        {"Homa max resends must be >= 0",
         [](ExperimentConfig& c) { c.proto.homa.maxResends = -1; }},
        {"Homa sender linger must be >= 0",
         [](ExperimentConfig& c) { c.proto.homa.senderLinger = -1; }},
    };
    for (const Case& c : cases) {
        ExperimentConfig cfg = smallConfig(WorkloadId::W1, 0.5);
        cfg.net = NetworkConfig::singleRack16();
        cfg.traffic.stop = milliseconds(1);
        c.mutate(cfg);
        try {
            (void)runExperiment(cfg);
            ADD_FAILURE() << "no throw: " << c.expect;
        } catch (const std::invalid_argument& e) {
            const std::string why = e.what();
            EXPECT_EQ(why.rfind("runExperiment: ", 0), 0u) << why;
            EXPECT_NE(why.find(c.expect), std::string::npos) << why;
        }
    }
}

TEST(ExperimentDriver, PiasFactoryWithoutAWorkloadThrows) {
    // PIAS's demotion thresholds come from the workload's sizes, so a
    // caller that passes none gets the reason, in every build type, instead
    // of a null dereference.
    ProtocolConfig proto;
    proto.kind = Protocol::Pias;
    try {
        (void)makeTransportFactory(proto, NetworkConfig::singleRack16(),
                                   nullptr);
        ADD_FAILURE() << "no throw";
    } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find("workload"), std::string::npos)
            << e.what();
    }
}

TEST(ExperimentDriver, UnreadableTraceThrowsInsteadOfExiting) {
    // The trace is read while the config is checked, so a missing file or
    // a malformed line is a reason for the caller, before anything is
    // built: not an exit inside the library, nor an exception escaping a
    // sweep's worker thread mid-run.
    struct Case {
        const char* expect;
        std::string path;
        std::string text;
    };
    const std::string missing = ::testing::TempDir() + "no-such-file.trace";
    const Case cases[] = {
        {"cannot open trace file: ", missing, ""},
        {"trace line 2: expected '<time_us> <src> <dst> <size>'", "",
         "10 1 2 1000\n20 2 3\n"},
    };
    for (const Case& c : cases) {
        ExperimentConfig cfg = smallConfig(WorkloadId::W1, 0.5);
        cfg.net = NetworkConfig::singleRack16();
        cfg.traffic.stop = milliseconds(1);
        cfg.traffic.scenario.kind = TrafficPatternKind::TraceReplay;
        cfg.traffic.scenario.tracePath = c.path;
        cfg.traffic.scenario.traceText = c.text;
        EXPECT_NE(experimentConfigError(cfg).find(c.expect), std::string::npos)
            << experimentConfigError(cfg);
        EXPECT_THROW((void)runExperiment(cfg), std::invalid_argument)
            << c.expect;
    }
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
