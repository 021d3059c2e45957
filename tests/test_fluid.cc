// Fluid fast-path tests: engine calibration against the oracle, the
// solver against its pre-link-class reference (bitwise, over random
// arrivals and departures), the FluidFidelity suite (hybrid-vs-packet
// slowdown percentiles within tolerance, threshold extremes, conservation
// ledgers), determinism goldens (same-seed replay, thread-count
// invariance), and the "+fluid:" scenario spec grammar.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <iterator>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "driver/sweep.h"
#include "sim/fluid.h"

namespace homa {
namespace {

ExperimentConfig fluidConfig(WorkloadId wl, double load, int64_t threshold) {
    ExperimentConfig cfg;
    cfg.traffic.workload = wl;
    cfg.traffic.load = load;
    cfg.traffic.stop = milliseconds(2);
    cfg.drainGrace = milliseconds(50);
    cfg.fluidThresholdBytes = threshold;
    return cfg;
}

// Larger than any workload's biggest message: admits nothing.
constexpr int64_t kNeverFluid = int64_t{1} << 40;

// ---------------------------------------------------------------- engine

struct EngineFixture {
    NetworkConfig net = NetworkConfig::fatTree144();
    EventLoop loop;
    Oracle oracle;
    FluidEngine engine;
    Time deliveredAt = -1;
    uint64_t deliveries = 0;

    explicit EngineFixture(double reserved = 0.0,
                           NetworkConfig cfg = NetworkConfig::fatTree144())
        : net(cfg), oracle(net), engine(loop, net, makeConfig(reserved)) {
        engine.setDeliveryCallback(
            [this](const Message&, const DeliveryInfo& info) {
                deliveredAt = info.completed;
                deliveries++;
            });
    }

    FluidConfig makeConfig(double reserved) {
        FluidConfig fc;
        fc.thresholdBytes = 0;
        fc.reservedFraction = reserved;
        fc.bestOneWay = [this](uint32_t s, bool intraRack) {
            return oracle.bestOneWay(s, intraRack);
        };
        return fc;
    }

    Message msg(MsgId id, HostId src, HostId dst, uint32_t length) {
        Message m;
        m.id = id;
        m.src = src;
        m.dst = dst;
        m.length = length;
        m.created = loop.now();
        return m;
    }
};

TEST(FluidEngine, UnloadedCrossRackFlowCompletesAtOracleBest) {
    EngineFixture f;
    ASSERT_TRUE(f.engine.offer(f.msg(1, 0, 20, 1000000)));
    f.loop.run();
    ASSERT_EQ(f.deliveries, 1u);
    const double best =
        static_cast<double>(f.oracle.bestOneWay(1000000, false));
    // The solver quantizes the transfer end to whole picoseconds; the
    // latency-tail calibration absorbs everything else exactly.
    EXPECT_NEAR(static_cast<double>(f.deliveredAt), best, 100.0);
}

TEST(FluidEngine, UnloadedIntraRackFlowCompletesAtOracleBest) {
    EngineFixture f;
    ASSERT_TRUE(f.engine.offer(f.msg(1, 0, 1, 500000)));
    f.loop.run();
    ASSERT_EQ(f.deliveries, 1u);
    const double best = static_cast<double>(f.oracle.bestOneWay(500000, true));
    EXPECT_NEAR(static_cast<double>(f.deliveredAt), best, 100.0);
}

TEST(FluidEngine, TwoFlowsSharingADownlinkHalveTheirRate) {
    EngineFixture f;
    // Different source racks, same destination host: the only shared link
    // is the receiver NIC, so each flow gets half its capacity and the
    // transfer takes ~2x the unloaded time (plus the pipeline tail).
    ASSERT_TRUE(f.engine.offer(f.msg(1, 0, 40, 2000000)));
    ASSERT_TRUE(f.engine.offer(f.msg(2, 16, 40, 2000000)));
    f.loop.run();
    ASSERT_EQ(f.deliveries, 2u);
    const double best =
        static_cast<double>(f.oracle.bestOneWay(2000000, false));
    // wire bytes: 2e6 payload + ceil(2e6/1442) packets x 82 overhead
    const double serialization = 800.0 * 2113734.0;
    const double expected = best + serialization;  // 2x transfer + same tail
    EXPECT_NEAR(static_cast<double>(f.deliveredAt), expected,
                0.01 * expected);
}

TEST(FluidEngine, OversubscribedCoreTrunkBottlenecksCrossPodFlows) {
    NetworkConfig cfg = NetworkConfig::fatTree144();
    cfg.racks = 8;
    cfg.hostsPerRack = 4;
    cfg.aggrSwitches = 2;
    cfg.coreSwitches = 2;
    cfg.podCount = 2;
    cfg.oversubscription = 4.0;
    EngineFixture f(0.0, cfg);
    // Saturate the pod-0 -> core trunk with one flow per pod-0 host, all
    // aimed at pod 1. Pod trunk capacity: aggr x core x aggrCoreLink.
    const int podHosts = 16;
    for (int h = 0; h < podHosts; h++) {
        ASSERT_TRUE(f.engine.offer(
            f.msg(h + 1, h, static_cast<HostId>(podHosts + h), 1000000)));
    }
    f.loop.run();
    EXPECT_EQ(f.deliveries, static_cast<uint64_t>(podHosts));
    const double podTrunkBytesPerPs =
        2.0 * 2.0 / static_cast<double>(cfg.aggrCoreLink().psPerByte);
    const double perFlow = podTrunkBytesPerPs / podHosts;
    const double wire = 1056908.0;  // 1e6 + 694 packets x 82 overhead
    // All 16 flows bottleneck on the shared trunk, far below NIC rate.
    EXPECT_LT(perFlow, 1.0 / 800.0);
    EXPECT_GT(static_cast<double>(f.deliveredAt), wire / perFlow);
    FluidStats s = f.engine.stats();
    EXPECT_EQ(s.flows, static_cast<uint64_t>(podHosts));
    EXPECT_EQ(s.delivered, static_cast<uint64_t>(podHosts));
    EXPECT_EQ(s.wireBytes, s.deliveredWireBytes);
}

TEST(FluidEngine, ReservedFractionScalesCapacity) {
    EngineFixture half(0.5);
    ASSERT_TRUE(half.engine.offer(half.msg(1, 0, 20, 2000000)));
    half.loop.run();
    EngineFixture full(0.0);
    ASSERT_TRUE(full.engine.offer(full.msg(1, 0, 20, 2000000)));
    full.loop.run();
    // Half the capacity -> the transfer component doubles; with the tail
    // re-calibrated against the scaled NIC the total is not exactly 2x,
    // but must sit clearly above the unreserved run.
    EXPECT_GT(half.deliveredAt, full.deliveredAt);
    EXPECT_GT(static_cast<double>(half.deliveredAt),
              1.5 * static_cast<double>(full.deliveredAt));
}

TEST(FluidEngine, BelowThresholdMessagesAreDeclined) {
    NetworkConfig net = NetworkConfig::fatTree144();
    EventLoop loop;
    Oracle oracle(net);
    FluidConfig fc;
    fc.thresholdBytes = 10000;
    fc.bestOneWay = [&oracle](uint32_t s, bool ir) {
        return oracle.bestOneWay(s, ir);
    };
    FluidEngine engine(loop, net, std::move(fc));
    Message m;
    m.id = 1;
    m.src = 0;
    m.dst = 20;
    m.length = 9999;
    EXPECT_FALSE(engine.offer(m));
    m.length = 10000;
    EXPECT_TRUE(engine.offer(m));
    EXPECT_EQ(engine.stats().flows, 1u);
}

TEST(FluidEngine, ConstructorRejectsBadConfig) {
    NetworkConfig net = NetworkConfig::fatTree144();
    EventLoop loop;
    FluidConfig noOracle;
    noOracle.thresholdBytes = 0;
    EXPECT_THROW((void)FluidEngine(loop, net, noOracle),
                 std::invalid_argument);
    FluidConfig nanReserve = noOracle;
    nanReserve.bestOneWay = [](uint32_t, bool) { return Duration{1}; };
    nanReserve.reservedFraction = std::numeric_limits<double>::quiet_NaN();
    EXPECT_THROW((void)FluidEngine(loop, net, nanReserve),
                 std::invalid_argument);
}

// Offers a multi-level bottleneck set at staggered times on `f`'s engine
// and returns (id, delivery time - first offer) per delivery. All flows
// are intra-rack, so only NICs constrain them: hosts 1..5 share host 0's
// downlink (1/5 of a NIC each); host 5's uplink also carries 5->6 and
// 5->7, which split the 4/5 left (2/5 each); 8->9 runs alone at line
// rate. Once the levels form, each solve drops links between rounds.
std::vector<std::pair<MsgId, Duration>> runMultiLevelSet(EngineFixture& f) {
    struct Offer {
        HostId src, dst;
    };
    const Offer offers[] = {{1, 0}, {5, 6}, {2, 0}, {8, 9},
                            {3, 0}, {5, 7}, {4, 0}, {5, 0}};
    const Time base = f.loop.now();
    std::vector<std::pair<MsgId, Duration>> out;
    f.engine.setDeliveryCallback(
        [&out, base](const Message& m, const DeliveryInfo& info) {
            out.emplace_back(m.id, info.completed - base);
        });
    for (size_t i = 0; i < std::size(offers); i++) {
        f.loop.at(base + microseconds(static_cast<int64_t>(i)), [&f, &offers,
                                                                  i] {
            const MsgId id = 100 + static_cast<MsgId>(i);
            ASSERT_TRUE(f.engine.offer(
                f.msg(id, offers[i].src, offers[i].dst, 1000000)));
        });
    }
    f.loop.run();
    return out;
}

TEST(FluidEngine, SolverScratchStateResetsBetweenSolves) {
    EngineFixture fresh;
    const auto expected = runMultiLevelSet(fresh);
    ASSERT_EQ(expected.size(), 8u);

    // The same set on an engine that already ran flows to completion over
    // the same NICs (with their own multi-round solves) must deliver at
    // exactly the same times: no solver state may survive a solve.
    EngineFixture reused;
    ASSERT_TRUE(reused.engine.offer(reused.msg(1, 1, 0, 300000)));
    ASSERT_TRUE(reused.engine.offer(reused.msg(2, 2, 0, 600000)));
    ASSERT_TRUE(reused.engine.offer(reused.msg(3, 5, 6, 900000)));
    ASSERT_TRUE(reused.engine.offer(reused.msg(4, 5, 0, 1200000)));
    reused.loop.run();
    ASSERT_EQ(reused.deliveries, 4u);
    EXPECT_EQ(runMultiLevelSet(reused), expected);

    // And the levels themselves: 8->9 finishes at the oracle best; host
    // 0's downlink stays saturated, so the last of the five flows into it
    // finishes after 5 x wire bytes at NIC rate.
    const double wire = 1056908.0;  // 1e6 + 694 packets x 82 overhead
    const double best =
        static_cast<double>(fresh.oracle.bestOneWay(1000000, true));
    for (const auto& [id, at] : expected) {
        if (id == 103) {
            EXPECT_NEAR(static_cast<double>(at), 3e6 + best, 100.0);
        }
    }
    const double fifth = best + 4.0 * 800.0 * wire;
    EXPECT_NEAR(static_cast<double>(expected.back().second), fifth,
                0.01 * fifth);
}

// ---------------------------------------------------- solver reference

// The progressive-filling solver as it read before link classes, kept as
// a reference over (link capacities, per-flow link lists in admission
// order): every round rescans every link with unfrozen flows and every
// unfrozen flow's links.
std::vector<double> referenceRates(
    const std::vector<double>& capacity,
    const std::vector<std::vector<int>>& flowLinks) {
    constexpr double kSaturationEps = 1e-9;  // as in sim/fluid.cc
    std::vector<double> rate(flowLinks.size(), 0.0);
    std::vector<double> alloc(capacity.size(), 0.0);
    std::vector<int> active(capacity.size(), 0);
    std::vector<int> links;
    for (const std::vector<int>& fl : flowLinks) {
        for (int l : fl) {
            if (active[l]++ == 0) links.push_back(l);
        }
    }
    std::vector<size_t> unfrozen(flowLinks.size());
    std::iota(unfrozen.begin(), unfrozen.end(), size_t{0});
    for (size_t round = 0; !unfrozen.empty() && round <= flowLinks.size();
         round++) {
        double inc = std::numeric_limits<double>::infinity();
        for (int l : links) {
            const double room =
                (capacity[l] - alloc[l]) / static_cast<double>(active[l]);
            if (room < inc) inc = room;
        }
        if (!std::isfinite(inc) || inc < 0) inc = 0;
        for (size_t i : unfrozen) {
            rate[i] += inc;
            for (int l : flowLinks[i]) alloc[l] += inc;
        }
        size_t kept = 0;
        for (size_t i : unfrozen) {
            bool saturated = false;
            for (size_t k = 0; k < flowLinks[i].size() && !saturated; k++) {
                const int l = flowLinks[i][k];
                saturated = capacity[l] - alloc[l] <=
                            kSaturationEps * capacity[l];
            }
            if (!saturated) {
                unfrozen[kept++] = i;
                continue;
            }
            for (int l : flowLinks[i]) active[l]--;
        }
        if (kept == unfrozen.size()) break;  // fp corner: accept rates
        unfrozen.resize(kept);
        size_t live = 0;
        for (int l : links) {
            if (active[l] > 0) {
                links[live++] = l;
            } else {
                alloc[l] = 0;
            }
        }
        links.resize(live);
    }
    return rate;
}

struct DifferentialCase {
    const char* topo;  // parseTopoSpec body; nullptr: 144-host fat-tree
    double reserved;
    bool incast;  // three in four flows converge on two hot receivers
    int flows = 240;
    uint64_t minConcurrent = 60;  // the peak of overlapping flows reaches it
};

// Offers `flows` seeded random flows over 200 us (log-uniform 1 KB - 2 MB,
// far more than the NICs drain, so many overlap and then leave one by
// one) and, after every event the loop runs — each offer, epoch and
// delivery — compares every rate with the reference bit for bit.
void expectRatesMatchReference(const DifferentialCase& c, uint64_t seed) {
    NetworkConfig net = NetworkConfig::fatTree144();
    std::string err;
    if (c.topo != nullptr) {
        ASSERT_TRUE(parseTopoSpec(c.topo, net, &err)) << err;
    }
    EngineFixture f(c.reserved, net);
    Rng rng(seed);
    const int hosts = net.hostCount();
    const HostId hot[2] = {0, static_cast<HostId>(hosts - 1)};
    for (int i = 0; i < c.flows; i++) {
        const Time at = static_cast<Time>(rng.below(200000000));
        const HostId dst = c.incast && rng.chance(0.75)
                               ? hot[rng.below(2)]
                               : static_cast<HostId>(rng.below(hosts));
        HostId src = dst;
        while (src == dst) src = static_cast<HostId>(rng.below(hosts));
        const auto length = static_cast<uint32_t>(
            std::exp(rng.uniform(std::log(1e3), std::log(2e6))));
        f.loop.at(at, [&f, i, src, dst, length] {
            f.engine.offer(f.msg(static_cast<MsgId>(i + 1), src, dst, length));
        });
    }
    uint64_t events = 0;
    while (f.loop.runOne()) {
        events++;
        const FluidEngine::SolverState s = f.engine.solverState();
        const std::vector<double> want =
            referenceRates(s.capacity, s.flowLinks);
        ASSERT_EQ(s.rates.size(), want.size());
        for (size_t i = 0; i < want.size(); i++) {
            ASSERT_EQ(std::bit_cast<uint64_t>(s.rates[i]),
                      std::bit_cast<uint64_t>(want[i]))
                << (c.topo != nullptr ? c.topo : "fat-tree")
                << " reserved=" << c.reserved << " incast=" << c.incast
                << " seed=" << seed << " event " << events << " flow " << i
                << " of " << want.size() << ": " << std::hexfloat
                << s.rates[i] << " vs reference " << want[i];
        }
    }
    const FluidStats st = f.engine.stats();
    EXPECT_EQ(st.delivered, static_cast<uint64_t>(c.flows));
    EXPECT_GE(st.maxConcurrent, c.minConcurrent);
}

TEST(FluidSolver, RatesMatchReferenceBitForBit) {
    const char* topos[] = {nullptr, "racks=8,hosts=4,aggr=2,core=2,oversub=4",
                           "aggr=1", "racks=1"};
    uint64_t seed = 1;
    for (const char* topo : topos) {
        for (double reserved : {0.0, 0.5}) {
            for (bool incast : {false, true}) {
                expectRatesMatchReference({topo, reserved, incast}, seed++);
                if (HasFatalFailure()) return;
            }
        }
    }
    // The sparse regime of bench_e2e's fluid_10k: 1,280 hosts, about 500
    // flows at the peak, most on host links of their own. Its last rounds
    // freeze most flows at once, so the solver's flow sweep runs here as
    // well as its walk of the saturated links' flow lists.
    expectRatesMatchReference({"racks=32,hosts=40", 0.0, false, 1200, 450},
                              seed);
}

// -------------------------------------------------------------- fidelity

TEST(FluidFidelity, AllPacketThresholdIsByteIdenticalToDisabled) {
    // The "infinite threshold" extreme: the engine is attached but admits
    // nothing, so the run — and its fingerprint, which omits the fluid
    // block when no flow was admitted — must be byte-identical to a run
    // without the engine. This is what keeps pre-fluid goldens valid.
    ExperimentConfig off = fluidConfig(WorkloadId::W4, 0.5, -1);
    ExperimentConfig allPacket = fluidConfig(WorkloadId::W4, 0.5, kNeverFluid);
    const ExperimentResult a = runExperiment(off);
    const ExperimentResult b = runExperiment(allPacket);
    ASSERT_TRUE(b.fluid != nullptr);
    EXPECT_EQ(b.fluid->flows, 0u);
    EXPECT_EQ(resultFingerprint(a), resultFingerprint(b));
}

TEST(FluidFidelity, AllFluidExtremeDeliversEverythingNearBest) {
    // Threshold 0: every message is a fluid flow; at moderate load the
    // max-min shares sit near line rate, so slowdowns hug 1.0.
    ExperimentConfig cfg = fluidConfig(WorkloadId::W4, 0.5, 0);
    const ExperimentResult r = runExperiment(cfg);
    ASSERT_TRUE(r.fluid != nullptr);
    EXPECT_GT(r.fluid->flows, 0u);
    EXPECT_EQ(r.fluid->flows, r.fluid->delivered);
    EXPECT_EQ(r.fluid->wireBytes, r.fluid->deliveredWireBytes);
    EXPECT_TRUE(r.keptUp);
    EXPECT_GE(r.slowdown->overallPercentile(0.50), 1.0);
    EXPECT_LT(r.slowdown->overallPercentile(0.50), 1.5);
}

// Hybrid-vs-packet tolerance: the fluid model trades per-packet fidelity
// for speed, so percentiles drift — the p50 (dominated by the untouched
// packet regime, which sees *less* contention once elephants leave the
// wires) stays tight, while the p99 (the regime boundary) may move by up
// to this factor either way. These FluidFidelity.* tests pin the bands;
// no bench gate repeats them.
void expectHybridWithinTolerance(TrafficPatternKind kind, int hotspots = 0) {
    ExperimentConfig packet = fluidConfig(WorkloadId::W4, 0.5, -1);
    packet.traffic.scenario.kind = kind;
    if (hotspots > 0) {
        packet.traffic.scenario.hotspots = hotspots;
        packet.traffic.scenario.hotspotDegree = 16;
    }
    ExperimentConfig hybrid = packet;
    hybrid.fluidThresholdBytes = 100000;
    const ExperimentResult p = runExperiment(packet);
    const ExperimentResult h = runExperiment(hybrid);
    ASSERT_TRUE(h.fluid != nullptr);
    EXPECT_GT(h.fluid->flows, 0u);
    const double p50p = p.slowdown->overallPercentile(0.50);
    const double p50h = h.slowdown->overallPercentile(0.50);
    const double p99p = p.slowdown->overallPercentile(0.99);
    const double p99h = h.slowdown->overallPercentile(0.99);
    EXPECT_GT(p50p, 0.0);
    EXPECT_GT(p99p, 0.0);
    EXPECT_NEAR(p50h, p50p, 0.25 * p50p)
        << "hybrid p50 drifted: packet=" << p50p << " hybrid=" << p50h;
    EXPECT_LT(p99h, 2.5 * p99p)
        << "hybrid p99 too pessimistic: packet=" << p99p
        << " hybrid=" << p99h;
    EXPECT_GT(p99h, p99p / 2.5)
        << "hybrid p99 too optimistic: packet=" << p99p
        << " hybrid=" << p99h;
}

TEST(FluidFidelity, UniformHybridPercentilesWithinTolerance) {
    expectHybridWithinTolerance(TrafficPatternKind::Uniform);
}

TEST(FluidFidelity, PermutationHybridPercentilesWithinTolerance) {
    expectHybridWithinTolerance(TrafficPatternKind::Permutation);
}

TEST(FluidFidelity, IncastHybridPercentilesWithinTolerance) {
    expectHybridWithinTolerance(TrafficPatternKind::Incast, 2);
}

TEST(FluidFidelity, HybridConservationLedger) {
    // Injected == delivered + drops, per regime: the fluid ledger must
    // zero out (every admitted wire byte delivered), the packet regime
    // must deliver everything it generated (Homa does not drop), and the
    // two regimes together must account for every generated message.
    ExperimentConfig cfg = fluidConfig(WorkloadId::W4, 0.6, 50000);
    const ExperimentResult r = runExperiment(cfg);
    ASSERT_TRUE(r.fluid != nullptr);
    EXPECT_GT(r.fluid->flows, 0u);
    EXPECT_EQ(r.fluid->flows, r.fluid->delivered);
    EXPECT_EQ(r.fluid->wireBytes, r.fluid->deliveredWireBytes);
    EXPECT_EQ(r.switchDrops, 0u);
    EXPECT_TRUE(r.keptUp);
    // deliveredTotal covers both regimes; the fluid share is within it.
    EXPECT_GE(r.deliveredTotal, r.fluid->delivered);
}

TEST(FluidFidelity, PerRegimeStatsSplitTheTraffic) {
    ExperimentConfig cfg = fluidConfig(WorkloadId::W4, 0.5, 20000);
    const ExperimentResult r = runExperiment(cfg);
    ASSERT_TRUE(r.fluid != nullptr);
    EXPECT_EQ(r.fluid->thresholdBytes, 20000);
    EXPECT_GT(r.fluid->flows, 0u);
    EXPECT_LT(r.fluid->flows, r.deliveredTotal);  // both regimes ran
    EXPECT_GT(r.fluid->slowP50, 0.0);
    EXPECT_GE(r.fluid->slowP99, r.fluid->slowP50);
    EXPECT_GT(r.fluid->maxConcurrent, 0u);
    EXPECT_GT(r.fluid->solves, 0u);
}

// ----------------------------------------------------------- determinism

TEST(FluidDeterminism, SameSeedReplaysByteIdentically) {
    ExperimentConfig cfg = fluidConfig(WorkloadId::W4, 0.5, 20000);
    const ExperimentResult a = runExperiment(cfg);
    ASSERT_TRUE(a.fluid != nullptr);
    EXPECT_GT(a.fluid->flows, 0u);
    EXPECT_EQ(resultFingerprint(a), resultFingerprint(runExperiment(cfg)));
    ExperimentConfig reseeded = cfg;
    reseeded.traffic.seed = cfg.traffic.seed + 1;
    EXPECT_NE(resultFingerprint(a),
              resultFingerprint(runExperiment(reseeded)));
}

TEST(FluidDeterminism, ThreadCountInvariant) {
    // Fluid runs force the network serial (the engine's flow set lives on
    // shard 0), so any --sim-threads value must yield byte-identical
    // results — the fluid form of the serial-vs-parallel identity.
    ExperimentConfig serial = fluidConfig(WorkloadId::W3, 0.6, 30000);
    ExperimentConfig threaded = serial;
    threaded.parallel.threads = 4;
    EXPECT_EQ(resultFingerprint(runExperiment(serial)),
              resultFingerprint(runExperiment(threaded)));
}

TEST(FluidDeterminism, ThresholdChangesFingerprint) {
    ExperimentConfig a = fluidConfig(WorkloadId::W4, 0.5, 20000);
    ExperimentConfig b = fluidConfig(WorkloadId::W4, 0.5, 40000);
    EXPECT_NE(resultFingerprint(runExperiment(a)),
              resultFingerprint(runExperiment(b)));
}

TEST(FluidDeterminism, SpecDrivenRunMatchesConfigDriven) {
    // "+fluid:" in the scenario spec and ExperimentConfig's knob must be
    // the same experiment (the spec wins when both are set).
    ExperimentConfig viaConfig = fluidConfig(WorkloadId::W4, 0.5, 25000);
    ExperimentConfig viaSpec = fluidConfig(WorkloadId::W4, 0.5, -1);
    ScenarioConfig parsed;
    ASSERT_TRUE(scenarioFromSpec("uniform+fluid:25000", parsed));
    viaSpec.traffic.scenario = parsed;
    EXPECT_EQ(resultFingerprint(runExperiment(viaConfig)),
              resultFingerprint(runExperiment(viaSpec)));
}

// FNV-1a of the full resultFingerprint for six fluid runs. The first
// three (144 hosts, at most 60 concurrent flows) were captured before the
// solver's active-set rewrite; the last three before its link-class
// rewrite, at sizes where classes matter: 457 concurrent flows on 1,280
// hosts, many flows per host link (incast), and binding trunks that push
// links out of their class early (aggr=1). The tests above are all
// relative (replay, thread count, spec vs config); these pin the rates
// themselves, so a solver change that moves any flow's rate by one ulp
// fails here. On mismatch the live fingerprint is streamed.
uint64_t fnv1a(const std::string& s) {
    uint64_t h = 1469598103934665603ull;
    for (unsigned char c : s) {
        h ^= c;
        h *= 1099511628211ull;
    }
    return h;
}

TEST(FluidDeterminism, SolverGoldenFingerprints) {
    struct Golden {
        const char* name;
        double load;
        int64_t threshold;
        const char* topo;  // nullptr: the default 144-host fat-tree
        TrafficPatternKind pattern;
        int hotspots;       // incast only; 0 keeps the scenario default
        int hotspotDegree;  // incast only; 0 keeps the scenario default
        uint64_t hash;
        size_t length;
    };
    constexpr TrafficPatternKind kUniform = TrafficPatternKind::Uniform;
    const Golden goldens[] = {
        {"fat-tree hybrid", 0.5, 20000, nullptr, kUniform, 0, 0,
         0xbda93d03b9b340d4ull, 1681},
        {"all-fluid", 0.5, 0, nullptr, kUniform, 0, 0, 0x480a4e6e2516038eull,
         1653},
        {"three-tier oversub=4 hybrid", 0.5, 10000,
         "racks=8,hosts=4,aggr=2,core=2,oversub=4", kUniform, 0, 0,
         0x6a22df06b999464bull, 1819},
        {"1280-host hybrid", 0.5, 20000, "racks=32,hosts=40", kUniform, 0, 0,
         0x8f4a0fcbd3b8d6b0ull, 1757},
        {"incast all-fluid", 0.6, 0, nullptr, TrafficPatternKind::Incast, 4,
         16, 0x960f7530aa7c3760ull, 1750},
        {"aggr=1 all-fluid", 0.8, 0, "aggr=1", kUniform, 0, 0,
         0xba2673dceaf7793eull, 1772},
    };
    for (const Golden& g : goldens) {
        ExperimentConfig cfg = fluidConfig(WorkloadId::W4, g.load, g.threshold);
        cfg.traffic.seed = 99;
        if (g.topo != nullptr) cfg.traffic.scenario.topoSpec = g.topo;
        cfg.traffic.scenario.kind = g.pattern;
        if (g.hotspots > 0) cfg.traffic.scenario.hotspots = g.hotspots;
        if (g.hotspotDegree > 0) {
            cfg.traffic.scenario.hotspotDegree = g.hotspotDegree;
        }
        const ExperimentResult r = runExperiment(cfg);
        ASSERT_TRUE(r.fluid != nullptr) << g.name;
        EXPECT_GT(r.fluid->flows, 0u) << g.name;
        const std::string fp = resultFingerprint(r);
        EXPECT_EQ(fnv1a(fp), g.hash)
            << g.name << std::hex << " hash 0x" << fnv1a(fp) << std::dec
            << " length " << fp.size() << " live fingerprint:\n"
            << fp;
        EXPECT_EQ(fp.size(), g.length) << g.name;
    }
}

// ------------------------------------------------------------- spec

TEST(FluidSpec, ParsesThresholdModifier) {
    ScenarioConfig cfg;
    ASSERT_TRUE(scenarioFromSpec("uniform+fluid:20000", cfg));
    EXPECT_EQ(cfg.kind, TrafficPatternKind::Uniform);
    EXPECT_EQ(cfg.fluidThresholdBytes, 20000);
    ASSERT_TRUE(scenarioFromSpec("incast+fluid:0+on-off", cfg));
    EXPECT_EQ(cfg.fluidThresholdBytes, 0);
    EXPECT_TRUE(cfg.onOff.enabled);
}

TEST(FluidSpec, DefaultLeavesThresholdUnset) {
    ScenarioConfig cfg;
    ASSERT_TRUE(scenarioFromSpec("uniform", cfg));
    EXPECT_EQ(cfg.fluidThresholdBytes, -1);
}

TEST(FluidSpec, RejectsMalformedSpecs) {
    ScenarioConfig cfg;
    std::string err;
    EXPECT_FALSE(scenarioFromSpec("uniform+fluid:", cfg, &err));
    EXPECT_FALSE(scenarioFromSpec("uniform+fluid:12k", cfg, &err));
    EXPECT_FALSE(scenarioFromSpec("uniform+fluid:-1", cfg, &err));
    EXPECT_FALSE(scenarioFromSpec("fluid:20000", cfg, &err));
    EXPECT_NE(err.find("fluid"), std::string::npos);
    EXPECT_FALSE(
        scenarioFromSpec("uniform+fluid:100+fluid:200", cfg, &err));
}

TEST(FluidSpec, RejectsFluidWithFaults) {
    ScenarioConfig cfg;
    std::string err;
    EXPECT_FALSE(scenarioFromSpec(
        "uniform+fluid:20000+fault:flap=aggr0,at=5ms,for=1ms", cfg, &err));
    EXPECT_NE(err.find("fault"), std::string::npos);
    EXPECT_FALSE(scenarioFromSpec(
        "uniform+fault:flap=aggr0,at=5ms,for=1ms+fluid:20000", cfg, &err));
}

// ------------------------------------------------- CLI misuse (--fluid)

#ifdef HOMA_RUN_EXPERIMENT_BIN

TEST(FluidCli, RejectsBadFluidFlags) {
    auto runCli = [](const std::string& args) {
        const std::string cmd = std::string(HOMA_RUN_EXPERIMENT_BIN) + " " +
                                args + " > /dev/null 2>&1";
        const int status = std::system(cmd.c_str());
        return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
    };
    EXPECT_EQ(runCli("--fluid"), 2);         // missing threshold
    EXPECT_EQ(runCli("--fluid 12k"), 2);     // not a byte count
    EXPECT_EQ(runCli("--fluid -5"), 2);      // negative
    // Fluid does not compose with fault injection, in either flag order.
    EXPECT_EQ(runCli("--fluid 20000 --fault kill=aggr0,at=1ms"), 2);
    EXPECT_EQ(runCli("--fault kill=aggr0,at=1ms --fluid 20000"), 2);
}

#endif  // HOMA_RUN_EXPERIMENT_BIN

}  // namespace
}  // namespace homa
