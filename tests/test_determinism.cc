// Determinism golden tests: the ARCHITECTURE.md claim that runs replay
// bit-for-bit from a seed, locked in at the harness layer — same seed =>
// byte-identical ExperimentResult fingerprints (counts, slowdown
// percentiles, queue occupancies) across repeated runs and across
// SweepRunner thread counts; different seeds => different results.
#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <stdexcept>

#include "driver/rpc_experiment.h"
#include "driver/sweep.h"
#include "sim/parallel.h"

namespace homa {
namespace {

ExperimentConfig smallConfig(WorkloadId wl, double load,
                             Protocol kind = Protocol::Homa) {
    ExperimentConfig cfg;
    cfg.proto.kind = kind;
    cfg.traffic.workload = wl;
    cfg.traffic.load = load;
    cfg.traffic.stop = milliseconds(2);
    cfg.drainGrace = milliseconds(20);
    return cfg;
}

TEST(Determinism, SameSeedGivesByteIdenticalResults) {
    const ExperimentConfig cfg = smallConfig(WorkloadId::W2, 0.6);
    const ExperimentResult a = runExperiment(cfg);
    EXPECT_GT(a.delivered, 0u);
    EXPECT_EQ(resultFingerprint(a), resultFingerprint(runExperiment(cfg)));
}

TEST(Determinism, SameSeedIdenticalAcrossProtocolsAndScenarios) {
    for (Protocol kind : {Protocol::PFabric, Protocol::Ndp}) {
        ExperimentConfig cfg = smallConfig(WorkloadId::W3, 0.5, kind);
        cfg.traffic.scenario.kind = TrafficPatternKind::RackSkew;
        EXPECT_EQ(resultFingerprint(runExperiment(cfg)),
                  resultFingerprint(runExperiment(cfg)))
            << protocolName(kind);
    }
}

TEST(Determinism, ClosedLoopAndOnOffReplayByteIdentically) {
    // The new arrival modes golden-locked like the Poisson ones: the
    // closed-loop refill chain and the ON-OFF period sequence must replay
    // bit-for-bit from the seed (fingerprints cover the closed-loop
    // per-client metrics too), and a different seed must actually move
    // the results.
    ExperimentConfig closed = smallConfig(WorkloadId::W1, 0.5);
    closed.traffic.scenario.kind = TrafficPatternKind::ClosedLoop;
    closed.traffic.scenario.closedLoopWindow = 4;
    closed.traffic.scenario.thinkTime = microseconds(2);

    ExperimentConfig bursty = smallConfig(WorkloadId::W2, 0.6);
    bursty.traffic.scenario.onOff.enabled = true;

    ExperimentConfig both = closed;
    both.traffic.scenario.onOff.enabled = true;

    for (const ExperimentConfig& cfg : {closed, bursty, both}) {
        const ExperimentResult a = runExperiment(cfg);
        EXPECT_GT(a.delivered, 0u);
        EXPECT_EQ(resultFingerprint(a), resultFingerprint(runExperiment(cfg)));
        ExperimentConfig reseeded = cfg;
        reseeded.traffic.seed = cfg.traffic.seed + 1;
        EXPECT_NE(resultFingerprint(a),
                  resultFingerprint(runExperiment(reseeded)));
    }
}

TEST(Determinism, DagTreesReplayByteIdentically) {
    // The DAG engine's whole cascade — tree shapes, per-node sizes, child
    // requests, fan-in completions, window refills — must replay
    // bit-for-bit from the seed; fingerprints cover the per-tree metrics.
    ExperimentConfig cfg = smallConfig(WorkloadId::W1, 0.5);
    cfg.traffic.scenario.kind = TrafficPatternKind::Dag;
    cfg.traffic.scenario.dag.fanout = 4;
    cfg.traffic.scenario.dag.depth = 2;
    cfg.traffic.scenario.dag.roots = 8;
    cfg.traffic.scenario.dag.stageResponseBytes = {4000, 1000};

    ExperimentConfig bursty = cfg;
    bursty.traffic.scenario.onOff.enabled = true;

    ExperimentConfig sampledSizes = cfg;  // workload-sampled responses
    sampledSizes.traffic.scenario.dag.stageResponseBytes.clear();

    for (const ExperimentConfig& point : {cfg, bursty, sampledSizes}) {
        const ExperimentResult a = runExperiment(point);
        EXPECT_GT(a.delivered, 0u);
        ASSERT_TRUE(a.dag);
        EXPECT_GT(a.dag->trees(), 0u);
        EXPECT_EQ(resultFingerprint(a), resultFingerprint(runExperiment(point)));
        ExperimentConfig reseeded = point;
        reseeded.traffic.seed = point.traffic.seed + 1;
        EXPECT_NE(resultFingerprint(a),
                  resultFingerprint(runExperiment(reseeded)));
    }
}

TEST(Determinism, DifferentSeedsGiveDifferentResults) {
    ExperimentConfig a = smallConfig(WorkloadId::W2, 0.6);
    ExperimentConfig b = a;
    b.traffic.seed = a.traffic.seed + 1;
    EXPECT_NE(resultFingerprint(runExperiment(a)),
              resultFingerprint(runExperiment(b)));
}

TEST(SweepRunner, ResultsIdenticalAtOneAndManyThreads) {
    // A mixed grid: protocols, workloads, and scenarios. The contract: the
    // fingerprint of every point is byte-identical whatever the thread
    // count, because each point is an isolated simulation and collection
    // order is the input order.
    std::vector<ExperimentConfig> points;
    points.push_back(smallConfig(WorkloadId::W1, 0.5));
    points.push_back(smallConfig(WorkloadId::W3, 0.7, Protocol::PFabric));
    ExperimentConfig incast = smallConfig(WorkloadId::W2, 0.6);
    incast.traffic.scenario.kind = TrafficPatternKind::Incast;
    points.push_back(incast);
    ExperimentConfig perm = smallConfig(WorkloadId::W2, 0.6, Protocol::Pias);
    perm.traffic.scenario.kind = TrafficPatternKind::Permutation;
    points.push_back(perm);
    ExperimentConfig closed = smallConfig(WorkloadId::W1, 0.5);
    closed.traffic.scenario.kind = TrafficPatternKind::ClosedLoop;
    closed.traffic.scenario.closedLoopWindow = 4;
    points.push_back(closed);
    ExperimentConfig bursty = smallConfig(WorkloadId::W1, 0.6);
    bursty.traffic.scenario.onOff.enabled = true;
    points.push_back(bursty);
    ExperimentConfig burstyClosed = closed;
    burstyClosed.traffic.scenario.onOff.enabled = true;
    points.push_back(burstyClosed);
    ExperimentConfig dag = smallConfig(WorkloadId::W1, 0.5);
    dag.traffic.scenario.kind = TrafficPatternKind::Dag;
    dag.traffic.scenario.dag.fanout = 4;
    dag.traffic.scenario.dag.depth = 2;
    dag.traffic.scenario.dag.roots = 8;
    points.push_back(dag);
    ExperimentConfig burstyDag = dag;
    burstyDag.traffic.scenario.onOff.enabled = true;
    burstyDag.proto.kind = Protocol::PFabric;
    points.push_back(burstyDag);

    SweepOptions serial;
    serial.threads = 1;
    serial.deriveSeeds = true;
    SweepOptions parallel = serial;
    parallel.threads = 4;

    SweepOutcome one = SweepRunner(serial).run(points);
    SweepOutcome many = SweepRunner(parallel).run(points);
    ASSERT_EQ(one.results.size(), points.size());
    ASSERT_EQ(many.results.size(), points.size());
    for (size_t i = 0; i < points.size(); i++) {
        EXPECT_GT(one.results[i].delivered, 0u) << "point " << i;
        EXPECT_EQ(resultFingerprint(one.results[i]),
                  resultFingerprint(many.results[i]))
            << "point " << i;
    }
}

TEST(ParallelDeterminism, MatchesSerialAcrossAllProtocols) {
    // The tentpole contract of the parallel engine (sim/parallel.h): a run
    // sharded across worker threads is byte-identical to the serial run —
    // not statistically close, the same fingerprint — for every protocol.
    // Conservative windows + the canonical switch-transit order make the
    // event interleaving a pure function of the configuration.
    for (Protocol kind : {Protocol::Homa, Protocol::Basic, Protocol::PHost,
                          Protocol::Pias, Protocol::PFabric, Protocol::Ndp}) {
        ExperimentConfig cfg = smallConfig(WorkloadId::W2, 0.6, kind);
        const ExperimentResult serial = runExperiment(cfg);
        EXPECT_GT(serial.delivered, 0u) << protocolName(kind);
        cfg.parallel.threads = 4;
        EXPECT_EQ(resultFingerprint(serial),
                  resultFingerprint(runExperiment(cfg)))
            << protocolName(kind);
    }
}

TEST(ParallelDeterminism, FingerprintInvariantAcrossThreadCounts) {
    // Not just serial == 4 threads: every thread count lands on the same
    // bytes (shard count changes which loop owns which rack, but the
    // window protocol replays the same global event order regardless).
    ExperimentConfig cfg = smallConfig(WorkloadId::W3, 0.7);
    cfg.parallel.threads = 1;
    const std::string golden = resultFingerprint(runExperiment(cfg));
    for (int threads : {2, 3, 4}) {
        cfg.parallel.threads = threads;
        EXPECT_EQ(golden, resultFingerprint(runExperiment(cfg)))
            << threads << " threads";
    }
}

TEST(ParallelDeterminism, MatchesSerialAcrossScenarios) {
    // Scenario machinery exercises different generator paths (per-host
    // arrival processes, ON-OFF modulation, trace replay with explicit
    // cross-rack sends) — all must replay identically under sharding.
    ExperimentConfig incast = smallConfig(WorkloadId::W2, 0.6);
    incast.traffic.scenario.kind = TrafficPatternKind::Incast;

    ExperimentConfig skew = smallConfig(WorkloadId::W3, 0.5, Protocol::PFabric);
    skew.traffic.scenario.kind = TrafficPatternKind::RackSkew;

    ExperimentConfig perm = smallConfig(WorkloadId::W2, 0.6, Protocol::Pias);
    perm.traffic.scenario.kind = TrafficPatternKind::Permutation;

    ExperimentConfig bursty = smallConfig(WorkloadId::W1, 0.6);
    bursty.traffic.scenario.onOff.enabled = true;

    ExperimentConfig trace = smallConfig(WorkloadId::W1, 0.5);
    trace.traffic.scenario.kind = TrafficPatternKind::TraceReplay;
    trace.traffic.scenario.traceText =
        "100 0 17 20000\n"    // cross-rack (rack 0 -> rack 1)
        "100 17 0 20000\n"    // simultaneous reverse direction
        "150 5 130 150000\n"  // rack 0 -> rack 8, spans many windows
        "150 131 6 1000\n"
        "900 40 41 500\n";    // rack-local, stays inside one shard

    for (const ExperimentConfig& point : {incast, skew, perm, bursty, trace}) {
        ExperimentConfig par = point;
        par.parallel.threads = 4;
        const ExperimentResult a = runExperiment(point);
        EXPECT_GT(a.deliveredTotal, 0u) << patternName(point.traffic.scenario.kind);
        EXPECT_EQ(resultFingerprint(a), resultFingerprint(runExperiment(par)))
            << patternName(point.traffic.scenario.kind);
    }
}

TEST(ParallelDeterminism, ZeroLookaheadScenariosFallBackToSerial) {
    // Closed-loop and DAG scenarios react to deliveries with zero
    // lookahead, so the driver runs them single-shard whatever
    // parallel.threads says — the knob must be a no-op, not a crash or a
    // divergence.
    ExperimentConfig closed = smallConfig(WorkloadId::W1, 0.5);
    closed.traffic.scenario.kind = TrafficPatternKind::ClosedLoop;
    closed.traffic.scenario.closedLoopWindow = 4;

    ExperimentConfig dag = smallConfig(WorkloadId::W1, 0.5);
    dag.traffic.scenario.kind = TrafficPatternKind::Dag;
    dag.traffic.scenario.dag.fanout = 4;
    dag.traffic.scenario.dag.depth = 2;
    dag.traffic.scenario.dag.roots = 8;

    for (const ExperimentConfig& point : {closed, dag}) {
        ExperimentConfig par = point;
        par.parallel.threads = 4;
        EXPECT_EQ(resultFingerprint(runExperiment(point)),
                  resultFingerprint(runExperiment(par)));
    }
}

TEST(ParallelDeterminism, SingleRackClampsToOneShard) {
    // A single-switch topology has no cross-shard seam to cut, so the
    // shard count clamps to 1: asking for threads must be identity.
    ExperimentConfig cfg = smallConfig(WorkloadId::W2, 0.6);
    cfg.net = NetworkConfig::singleRack16();
    const std::string golden = resultFingerprint(runExperiment(cfg));
    cfg.parallel.threads = 8;
    EXPECT_EQ(golden, resultFingerprint(runExperiment(cfg)));
}

TEST(ParallelDeterminism, SweepSimThreadsComposesByteIdentically) {
    // SweepOptions::simThreads stacks shard-level parallelism under
    // point-level fan-out; the composition must still reproduce the
    // serial sweep bit-for-bit (same derived seeds, same fingerprints).
    std::vector<ExperimentConfig> points;
    points.push_back(smallConfig(WorkloadId::W1, 0.5));
    points.push_back(smallConfig(WorkloadId::W3, 0.7, Protocol::PFabric));

    SweepOptions serial;
    serial.threads = 1;
    serial.deriveSeeds = true;
    SweepOptions stacked = serial;
    stacked.threads = 2;
    stacked.simThreads = 3;

    SweepOutcome one = SweepRunner(serial).run(points);
    SweepOutcome many = SweepRunner(stacked).run(points);
    ASSERT_EQ(one.results.size(), many.results.size());
    for (size_t i = 0; i < one.results.size(); i++) {
        EXPECT_EQ(resultFingerprint(one.results[i]),
                  resultFingerprint(many.results[i]))
            << "point " << i;
    }
}

// FNV-1a of a full resultFingerprint, for the hard-coded goldens below.
uint64_t fnv1a(const std::string& s) {
    uint64_t h = 1469598103934665603ull;
    for (unsigned char c : s) {
        h ^= c;
        h *= 1099511628211ull;
    }
    return h;
}

TEST(ParallelDeterminism, SameInstantBatchQueuesBeforeThePortPicks) {
    // A port finishing at instant T while its switch has packets due at T
    // must pick among all of them (port.h, DueRouter). In this run the
    // only packets due at such an instant crossed shards at 4 threads, so
    // their routing kick ran after the finish; when the finish let the
    // first routed packet take the idle port, 4 threads diverged from
    // serial while 2 and 3 matched. The serial bytes are pinned too.
    ExperimentConfig cfg;
    cfg.traffic.workload = WorkloadId::W4;
    cfg.traffic.load = 0.8;
    cfg.traffic.seed = 4;
    cfg.traffic.stop = milliseconds(5);
    cfg.traffic.scenario.topoSpec = "racks=8,hosts=8,aggr=4";
    const std::string serial = resultFingerprint(runExperiment(cfg));
    EXPECT_EQ(fnv1a(serial), 0x649c2f47a694b761ull)
        << std::hex << "hash 0x" << fnv1a(serial) << std::dec
        << " live fingerprint:\n" << serial;
    for (int threads : {2, 3, 4}) {
        cfg.parallel.threads = threads;
        EXPECT_EQ(serial, resultFingerprint(runExperiment(cfg)))
            << threads << " threads";
    }
}

// ------------------------------------------------------ fault goldens

ExperimentConfig faultConfig(Protocol kind, const std::string& faultBody,
                             bool ecmp = false) {
    ExperimentConfig cfg = smallConfig(WorkloadId::W2, 0.6, kind);
    FaultSpec f;
    std::string err;
    EXPECT_TRUE(parseFaultSpec(faultBody, f, &err)) << faultBody << ": " << err;
    cfg.traffic.scenario.faults.push_back(f);
    cfg.traffic.scenario.ecmpUplinks = ecmp;
    return cfg;
}

TEST(FaultDeterminism, FaultRunsReplayByteIdentically) {
    // A faulted run is still a pure function of the seed: the flap
    // schedule, the degrade RNG draws, and the flap-train expansion all
    // derive from it, so same seed => same fingerprint (fault counters
    // included), different seed => different results.
    for (const char* body :
         {"flap=aggr0,at=500us,for=200us",
          "degrade=aggr1,at=200us,for=1ms,bw=0.5,drop=0.02",
          "flap-train=aggr2,at=100us,count=5,gap=300us,for=80us"}) {
        ExperimentConfig cfg = faultConfig(Protocol::Homa, body);
        const ExperimentResult a = runExperiment(cfg);
        ASSERT_TRUE(a.faults) << body;
        EXPECT_GT(a.delivered, 0u) << body;
        EXPECT_EQ(resultFingerprint(a), resultFingerprint(runExperiment(cfg)))
            << body;
        ExperimentConfig reseeded = cfg;
        reseeded.traffic.seed = cfg.traffic.seed + 1;
        EXPECT_NE(resultFingerprint(a),
                  resultFingerprint(runExperiment(reseeded)))
            << body;
    }
}

TEST(FaultDeterminism, SerialEqualsParallelUnderFaults) {
    // The fault layer composes with the parallel engine: every primitive
    // action lands on its owning shard's loop before the run starts, so a
    // faulted sharded run is byte-identical to the serial one — including
    // the drop-by-cause counters in the fingerprint. The serial bytes are
    // pinned too (captured before the event loop's fixed-delay lanes): the
    // flaps and the kill cancel packets mid-serialization, and the degrade
    // stretches serialization to times no healthy link uses.
    struct Case {
        Protocol kind;
        const char* body;
        bool ecmp;
        bool killsOnWire;
        uint64_t hash;
        size_t length;
    };
    const Case cases[] = {
        {Protocol::Homa, "flap=aggr0,at=500us,for=200us", false, true,
         0x62f9b2d4390b06abull, 1852},
        {Protocol::PFabric, "degrade=aggr1,at=200us,for=1ms,bw=0.5,drop=0.02",
         false, false, 0xd09ec2a5e60f53f4ull, 1770},
        {Protocol::Ndp, "kill=aggr0,at=400us", true, true,
         0x099a7b18af05fcb9ull, 1770},
        {Protocol::Basic, "flap-train=tor1,at=100us,count=4,gap=250us,for=60us",
         false, true, 0x7889b5392b0b3e6eull, 1751},
    };
    for (const Case& c : cases) {
        ExperimentConfig cfg = faultConfig(c.kind, c.body, c.ecmp);
        const ExperimentResult serial = runExperiment(cfg);
        ASSERT_TRUE(serial.faults) << c.body;
        EXPECT_GT(serial.faults->linkDownEvents + serial.faults->switchKills +
                      serial.faults->degradeEvents,
                  0u)
            << c.body;
        if (c.killsOnWire) {
            EXPECT_GT(serial.faults->wireDrops, 0u) << c.body;
        }
        const std::string fp = resultFingerprint(serial);
        EXPECT_EQ(fnv1a(fp), c.hash)
            << c.body << std::hex << " hash 0x" << fnv1a(fp) << std::dec
            << " live fingerprint:\n" << fp;
        EXPECT_EQ(fp.size(), c.length) << c.body;
        cfg.parallel.threads = 4;
        EXPECT_EQ(fp, resultFingerprint(runExperiment(cfg)))
            << protocolName(c.kind) << " " << c.body;
    }
}

TEST(SweepRunner, FaultPointsIdenticalAtOneAndManyThreads) {
    // Fault scenarios ride through the sweep fan-out like any other point.
    std::vector<ExperimentConfig> points;
    points.push_back(faultConfig(Protocol::Homa, "flap=aggr0,at=500us,for=200us"));
    points.push_back(faultConfig(Protocol::PFabric, "kill=aggr1,at=400us",
                                 /*ecmp=*/true));
    points.push_back(smallConfig(WorkloadId::W1, 0.5));  // fault-free control

    SweepOptions serial;
    serial.threads = 1;
    serial.deriveSeeds = true;
    SweepOptions parallel = serial;
    parallel.threads = 4;

    const SweepOutcome one = SweepRunner(serial).run(points);
    const SweepOutcome many = SweepRunner(parallel).run(points);
    ASSERT_EQ(one.results.size(), many.results.size());
    ASSERT_TRUE(one.results[0].faults);
    ASSERT_FALSE(one.results[2].faults);
    for (size_t i = 0; i < one.results.size(); i++) {
        EXPECT_EQ(resultFingerprint(one.results[i]),
                  resultFingerprint(many.results[i]))
            << "point " << i;
    }
}

TEST(SweepRunner, DerivedSeedsDifferPerPointAndReproduce) {
    // Two sweep points with identical configs must still run different
    // experiments (per-point seed derivation) ...
    ExperimentConfig cfg = smallConfig(WorkloadId::W1, 0.5);
    SweepOptions opts;
    opts.threads = 2;
    opts.deriveSeeds = true;
    SweepOutcome out = SweepRunner(opts).run({cfg, cfg});
    EXPECT_NE(resultFingerprint(out.results[0]),
              resultFingerprint(out.results[1]));
    // ... and running point i standalone with the derived seed reproduces
    // the sweep's result exactly (the documented seed-derivation rule).
    cfg.traffic.seed = deriveSweepSeed(opts.baseSeed, 1);
    EXPECT_EQ(resultFingerprint(runExperiment(cfg)),
              resultFingerprint(out.results[1]));
}

TEST(SweepRunner, InvalidPointThrowsBeforeRunningAny) {
    // One bad point fails the sweep on the caller's thread before any
    // point is built (thrown from a worker, it would std::terminate).
    std::atomic<bool> built{false};
    ExperimentConfig good = smallConfig(WorkloadId::W1, 0.5);
    good.net.switchQdisc = [&built] {
        built = true;
        return std::make_unique<StrictPriorityQdisc>();
    };
    ExperimentConfig serving = smallConfig(WorkloadId::W1, 0.5);
    serving.traffic.scenario.serving.tenants.emplace_back();
    SweepOptions opts;
    opts.threads = 2;
    try {
        (void)SweepRunner(opts).run({good, serving});
        ADD_FAILURE() << "no throw";
    } catch (const std::invalid_argument& e) {
        EXPECT_EQ(std::string(e.what()).rfind("sweep point 1: serving", 0), 0u)
            << e.what();
    }
    EXPECT_FALSE(built);

    RpcExperimentConfig noServer;
    noServer.clients = 16;
    try {
        (void)runRpcSweep({RpcExperimentConfig{}, noServer}, opts);
        ADD_FAILURE() << "no throw";
    } catch (const std::invalid_argument& e) {
        EXPECT_EQ(std::string(e.what()),
                  "sweep point 1: clients leave no server host");
    }
    // The RPC harness runs one shard, so a sim-thread count would do
    // nothing: it is refused, not silently dropped.
    opts.simThreads = 2;
    EXPECT_THROW((void)runRpcSweep({RpcExperimentConfig{}}, opts),
                 std::invalid_argument);
}

// --------------------------------------------------- serving goldens

// A serving mix exercising all three selector policies, hedging, and
// both arrival modes — everything the serving fingerprint covers.
RpcExperimentConfig servingConfig(uint64_t seed = 31) {
    RpcExperimentConfig cfg;
    cfg.net = NetworkConfig::singleRack16();
    cfg.seed = seed;
    cfg.stop = milliseconds(3);

    TenantConfig open;
    open.name = "open";
    open.workload = WorkloadId::W1;
    open.mode = ArrivalMode::Open;
    open.load = 0.4;
    open.clients = 4;
    TenantConfig closed;
    closed.name = "closed";
    closed.workload = WorkloadId::W2;
    closed.mode = ArrivalMode::Closed;
    closed.window = 4;
    closed.clients = 2;
    closed.group = "bulk";

    ReplicaGroupConfig fast;  // hedged p2c pool
    fast.name = "fast";
    fast.replicas = 5;
    fast.policy = LbPolicy::PowerOfTwo;
    fast.hedgePercentile = 0.90;
    fast.hedgeMinSamples = 8;
    ReplicaGroupConfig bulk;
    bulk.name = "bulk";
    bulk.replicas = 0;
    bulk.policy = LbPolicy::RoundRobin;

    cfg.serving.tenants = {open, closed};
    cfg.serving.groups = {fast, bulk};
    return cfg;
}

TEST(ServingDeterminism, SameSeedReplaysByteIdentically) {
    // Tenants + replica selection + hedging are all derived from the
    // seed: the whole serving cascade — arrival draws, p2c depth
    // tie-breaks, hedge timers, cancellations — must replay bit-for-bit,
    // and a different seed must actually move the results.
    const RpcExperimentConfig cfg = servingConfig();
    const RpcExperimentResult a = runRpcExperiment(cfg);
    ASSERT_TRUE(a.tenants);
    EXPECT_GT(a.serving.logicalCompleted, 0u);
    EXPECT_GT(a.serving.hedgesIssued, 0u);
    EXPECT_EQ(resultFingerprint(a), resultFingerprint(runRpcExperiment(cfg)));
    EXPECT_NE(resultFingerprint(a),
              resultFingerprint(runRpcExperiment(servingConfig(32))));
}

TEST(ServingDeterminism, SweepPointsIdenticalAtOneAndManyThreads) {
    // Serving points ride the RPC sweep fan-out: per-point derived seeds,
    // collection in input order, byte-identical whatever the width.
    std::vector<RpcExperimentConfig> points;
    points.push_back(servingConfig());
    RpcExperimentConfig random = servingConfig();
    random.serving.groups[0].policy = LbPolicy::Random;
    points.push_back(random);
    RpcExperimentConfig unhedged = servingConfig();
    unhedged.serving.groups[0].hedgePercentile = 0;
    points.push_back(unhedged);

    SweepOptions serial;
    serial.threads = 1;
    serial.deriveSeeds = true;
    SweepOptions parallel = serial;
    parallel.threads = 4;

    const RpcSweepOutcome one = runRpcSweep(points, serial);
    const RpcSweepOutcome many = runRpcSweep(points, parallel);
    ASSERT_EQ(one.results.size(), points.size());
    ASSERT_EQ(many.results.size(), points.size());
    for (size_t i = 0; i < points.size(); i++) {
        EXPECT_GT(one.results[i].serving.logicalCompleted, 0u)
            << "point " << i;
        EXPECT_EQ(resultFingerprint(one.results[i]),
                  resultFingerprint(many.results[i]))
            << "point " << i;
    }
    // Identical configs at different grid indices still differ (per-point
    // seed derivation), and the derived seed reproduces the point.
    EXPECT_NE(resultFingerprint(one.results[0]),
              resultFingerprint(one.results[1]));
    RpcExperimentConfig standalone = points[2];
    standalone.seed = deriveSweepSeed(serial.baseSeed, 2);
    EXPECT_EQ(resultFingerprint(runRpcExperiment(standalone)),
              resultFingerprint(one.results[2]));
}

TEST(ServingDeterminism, NoTenantsFingerprintHasNoServingBlock) {
    // The serving block is gated on the tracker's presence: a plain RPC
    // run's fingerprint must not grow tenant keys just because the
    // serving layer exists — existing goldens stay byte-identical.
    RpcExperimentConfig cfg;
    cfg.net = NetworkConfig::singleRack16();
    cfg.stop = milliseconds(2);
    const RpcExperimentResult r = runRpcExperiment(cfg);
    ASSERT_FALSE(r.tenants);
    const std::string fp = resultFingerprint(r);
    EXPECT_EQ(fp.find("tn"), std::string::npos) << fp;
    EXPECT_EQ(fp.find("sv"), std::string::npos) << fp;
    EXPECT_EQ(resultFingerprint(r), resultFingerprint(runRpcExperiment(cfg)));
}

TEST(SweepRunner, SeedDerivationIsAPureSpreadFunction) {
    std::set<uint64_t> seen;
    for (uint64_t base : {0ull, 99ull, 1ull << 63}) {
        for (uint64_t i = 0; i < 100; i++) {
            EXPECT_EQ(deriveSweepSeed(base, i), deriveSweepSeed(base, i));
            seen.insert(deriveSweepSeed(base, i));
        }
    }
    EXPECT_EQ(seen.size(), 300u);  // no collisions across bases or indices
}

// ------------------------------------------------- hard-coded goldens
//
// Replay tests above only prove a run repeats itself; these pin the
// bytes. FNV-1a of the full resultFingerprint, captured before the
// percentile and completed-id bookkeeping were rewritten: any change to
// the hedge-delay percentiles or to which duplicate DATA the Homa
// receiver drops moves them. On mismatch the test streams the live
// fingerprint so the diff is inspectable.
TEST(ServingDeterminism, HedgedHomaGoldenFingerprint) {
    // Hedge delays come from tenant latency percentiles refreshed every
    // 64 completions, so every hedge timer depends on them.
    const RpcExperimentConfig cfg = servingConfig();
    ASSERT_EQ(cfg.proto.kind, Protocol::Homa);
    const RpcExperimentResult r = runRpcExperiment(cfg);
    ASSERT_GT(r.serving.hedgesIssued, 0u);
    const std::string fp = resultFingerprint(r);
    EXPECT_EQ(fnv1a(fp), 0xbb8b77e24aba18cfull)
        << std::hex << "hash 0x" << fnv1a(fp) << std::dec
        << " live fingerprint:\n" << fp;
    EXPECT_EQ(fp.size(), 1112u);
}

// One row per RPC-harness mode and issue path: open and closed echo, with
// and without ON-OFF gating, a sender-driven baseline, staged and sampled
// DAG trees (with joins), and serving with think time, random selection
// and NDP. The echo, DAG and serving runners share one set-up, issue gate,
// priming and close, so any reorder of an RNG draw or a same-instant event
// there moves a row.
TEST(RpcHarnessDeterminism, ModeGoldenFingerprints) {
    struct Row {
        const char* name;
        RpcExperimentConfig cfg;
        uint64_t hash;
        size_t length;
    };
    RpcExperimentConfig base;
    base.stop = milliseconds(3);
    std::vector<Row> rows;

    RpcExperimentConfig echoOpen = base;
    echoOpen.workload = WorkloadId::W1;
    echoOpen.load = 0.5;
    rows.push_back({"echo open", echoOpen, 0x23f12d5a27fa7fcfull, 1424});

    RpcExperimentConfig echoThink = base;
    echoThink.workload = WorkloadId::W1;
    echoThink.closedLoopWindow = 2;
    echoThink.thinkTime = microseconds(5);
    rows.push_back({"echo closed + think", echoThink, 0xb8fe1f4bd2a461fcull,
                    1257});

    RpcExperimentConfig echoClosedOnOff = echoThink;
    echoClosedOnOff.onOff.enabled = true;
    rows.push_back({"echo closed + ON-OFF", echoClosedOnOff,
                    0x5e4cf58bf98ce095ull, 1255});

    RpcExperimentConfig echoOpenOnOff = base;
    echoOpenOnOff.workload = WorkloadId::W1;
    echoOpenOnOff.load = 0.4;
    echoOpenOnOff.onOff.enabled = true;
    echoOpenOnOff.onOff.onMean = microseconds(50);
    echoOpenOnOff.onOff.offMean = microseconds(150);
    rows.push_back({"echo open + ON-OFF", echoOpenOnOff,
                    0x648d84c596b928f3ull, 1426});

    RpcExperimentConfig echoPFabric = base;
    echoPFabric.workload = WorkloadId::W3;
    echoPFabric.load = 0.6;
    echoPFabric.proto.kind = Protocol::PFabric;
    rows.push_back({"echo open pFabric", echoPFabric, 0x3f3b27cb104403b0ull,
                    1411});

    RpcExperimentConfig dagStaged = base;
    dagStaged.workload = WorkloadId::W1;
    dagStaged.dagMode = true;
    dagStaged.dag.fanout = 4;
    dagStaged.dag.depth = 2;
    dagStaged.dag.stageResponseBytes = {2000, 500};
    rows.push_back({"DAG staged", dagStaged, 0xe4988c189d385872ull, 448});

    RpcExperimentConfig dagJoins = base;
    dagJoins.workload = WorkloadId::W1;
    dagJoins.dagMode = true;
    dagJoins.dag.fanout = 3;
    dagJoins.dag.depth = 2;
    dagJoins.dag.window = 2;
    dagJoins.dag.joinFraction = 0.5;
    dagJoins.onOff.enabled = true;
    rows.push_back({"DAG joins + ON-OFF, sampled sizes", dagJoins,
                    0x0f3e9710c8a7894dull, 465});

    RpcExperimentConfig serving = servingConfig();
    serving.serving.tenants[1].think = microseconds(5);
    serving.serving.groups[0].policy = LbPolicy::Random;
    serving.proto.kind = Protocol::Ndp;
    rows.push_back({"serving think + random + NDP", serving,
                    0x5f549e93861bdea6ull, 1116});

    for (Row& row : rows) {
        const std::string fp = resultFingerprint(runRpcExperiment(row.cfg));
        EXPECT_EQ(fnv1a(fp), row.hash)
            << row.name << std::hex << ": hash 0x" << fnv1a(fp) << std::dec
            << " live fingerprint:\n" << fp;
        EXPECT_EQ(fp.size(), row.length) << row.name;
    }
}

// A small fat tree whose aggr0 runs at 2% speed and drops 2% of packets
// for 4 ms. Data queued there outlives the RESEND timeout, so receivers
// RESEND and senders retransmit; whichever copy loses the race arrives
// after its message completed and must be dropped as a duplicate tail.
ExperimentConfig lossyHomaConfig() {
    ExperimentConfig cfg = smallConfig(WorkloadId::W2, 0.6);
    cfg.net.racks = 3;
    cfg.net.hostsPerRack = 4;
    cfg.net.aggrSwitches = 2;
    FaultSpec degrade;
    EXPECT_TRUE(parseFaultSpec(
        "degrade=aggr0,at=200us,for=4ms,bw=0.02,drop=0.02", degrade));
    cfg.traffic.scenario.faults.push_back(degrade);
    return cfg;
}

struct LossyReplay {
    uint64_t delivered = 0;
    uint64_t probDrops = 0;
    uint64_t resends = 0;
    uint64_t duplicateTails = 0;
};

// The lossy point rebuilt at the network level the way runExperiment
// builds it, so the Homa receivers' counters can be read afterwards.
LossyReplay replayLossyPoint(const ExperimentConfig& cfg) {
    NetworkConfig netCfg = cfg.net;
    netCfg.switchQdisc = switchQdiscFor(cfg.proto);
    Network net(netCfg, makeTransportFactory(cfg.proto, netCfg,
                                             &workload(cfg.traffic.workload)));
    FaultTimeline faults(net, cfg.traffic.scenario.faults,
                         deriveFaultSeed(cfg.traffic.seed));
    faults.schedule();
    LossyReplay out;
    net.setDeliveryCallback(
        [&out](const Message&, const DeliveryInfo&) { out.delivered++; });
    TrafficGenerator gen(net, cfg.traffic);
    gen.start();
    runNetworkUntil(net, cfg.traffic.stop + cfg.drainGrace);
    out.probDrops = faults.collect().probDrops;
    for (HostId h = 0; h < net.hostCount(); h++) {
        const HomaReceiver& rx =
            static_cast<HomaTransport&>(net.host(h).transport()).receiver();
        out.resends += rx.resendsSent();
        out.duplicateTails += rx.duplicateTailsDropped();
    }
    return out;
}

TEST(FaultDeterminism, LossyHomaGoldenFingerprint) {
    const ExperimentConfig cfg = lossyHomaConfig();
    const ExperimentResult r = runExperiment(cfg);
    ASSERT_TRUE(r.faults);
    EXPECT_GT(r.faults->probDrops, 0u);
    const std::string fp = resultFingerprint(r);
    EXPECT_EQ(fnv1a(fp), 0xd6a792f7fd818b50ull)
        << std::hex << "hash 0x" << fnv1a(fp) << std::dec
        << " live fingerprint:\n" << fp;
    EXPECT_EQ(fp.size(), 1847u);

    // Not vacuous: the same run, replayed where the receivers are
    // reachable, issues RESENDs and drops duplicate tails.
    const LossyReplay replay = replayLossyPoint(cfg);
    EXPECT_EQ(replay.delivered, r.deliveredTotal);
    EXPECT_EQ(replay.probDrops, r.faults->probDrops);
    EXPECT_GT(replay.resends, 0u);
    EXPECT_GT(replay.duplicateTails, 0u);
}

}  // namespace
}  // namespace homa
