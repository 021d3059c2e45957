// Fan-out/fan-in DAG workload tests: spec parsing and validation, tree
// sampling, the unloaded critical-path ideal, fan-in completion semantics
// (a parent's response must never be emitted before its last child's
// response is delivered — verified with accounting external to the
// engine, as in test_closed_loop.cc), straggler dominance of tree
// latency, end-to-end metrics from runExperiment, and the CLI runner's
// contradictory-flag validation.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <map>
#include <set>
#include <tuple>

#ifdef HOMA_RUN_EXPERIMENT_BIN
#include <sys/wait.h>
#endif

#include "driver/sweep.h"
#include "workload/generator.h"

namespace homa {
namespace {

// ---------------------------------------------------------------- specs

TEST(DagSpec, ParsesDefaultsAndParameters) {
    ScenarioConfig s;
    ASSERT_TRUE(scenarioFromSpec("dag", s));
    EXPECT_EQ(s.kind, TrafficPatternKind::Dag);
    EXPECT_FALSE(s.onOff.enabled);

    ASSERT_TRUE(scenarioFromSpec("dag:fanout=40,depth=2", s));
    EXPECT_EQ(s.kind, TrafficPatternKind::Dag);
    EXPECT_EQ(s.dag.fanout, 40);
    EXPECT_EQ(s.dag.depth, 2);

    ASSERT_TRUE(scenarioFromSpec(
        "dag:fanout=8,depth=1,window=2,roots=4,req=100,"
        "resp=16000/2000,straggler=0.1,factor=20+on-off", s));
    EXPECT_TRUE(s.onOff.enabled);
    EXPECT_EQ(s.dag.fanout, 8);
    EXPECT_EQ(s.dag.depth, 1);
    EXPECT_EQ(s.dag.window, 2);
    EXPECT_EQ(s.dag.roots, 4);
    EXPECT_EQ(s.dag.requestBytes, 100u);
    ASSERT_EQ(s.dag.stageResponseBytes.size(), 2u);
    EXPECT_EQ(s.dag.stageResponseBytes[0], 16000u);
    EXPECT_EQ(s.dag.stageResponseBytes[1], 2000u);
    EXPECT_DOUBLE_EQ(s.dag.stragglerFraction, 0.1);
    EXPECT_DOUBLE_EQ(s.dag.stragglerFactor, 20.0);
}

TEST(DagSpec, RejectsMalformedSpecs) {
    ScenarioConfig untouched;
    untouched.kind = TrafficPatternKind::RackSkew;
    for (const char* spec :
         {"dag:", "dag:bogus=1", "dag:fanout", "dag:fanout=",
          "dag:fanout=abc", "dag:fanout=0", "dag:depth=0", "dag:window=0",
          "dag:resp=", "dag:resp=100/", "dag:straggler=1.5",
          "dag:factor=0.5", "dag:fanout=100,depth=3",
          "uniform:fanout=2", "incast:hotspots=2", "dag+onoff"}) {
        EXPECT_FALSE(scenarioFromSpec(spec, untouched)) << spec;
    }
    EXPECT_EQ(untouched.kind, TrafficPatternKind::RackSkew);
}

TEST(DagSpec, ValidateReportsTheFirstProblem) {
    DagConfig ok;
    EXPECT_EQ(validateDagConfig(ok), nullptr);
    DagConfig bad = ok;
    bad.fanout = 0;
    EXPECT_NE(validateDagConfig(bad), nullptr);
    bad = ok;
    bad.depth = 0;
    EXPECT_NE(validateDagConfig(bad), nullptr);
    bad = ok;
    bad.stragglerFraction = 2.0;
    EXPECT_NE(validateDagConfig(bad), nullptr);
    bad = ok;
    bad.fanout = 100;
    bad.depth = 3;  // 100 + 10^4 + 10^6 nodes: over the cap
    EXPECT_NE(validateDagConfig(bad), nullptr);
    EXPECT_EQ(dagTreeNodeCount(bad), kMaxDagNodes + 1);  // saturates
}

TEST(DagSpec, PatternNameRoundTrips) {
    TrafficPatternKind kind = TrafficPatternKind::Uniform;
    ASSERT_TRUE(patternFromName("dag", kind));
    EXPECT_EQ(kind, TrafficPatternKind::Dag);
    EXPECT_STREQ(patternName(TrafficPatternKind::Dag), "dag");
}

// ------------------------------------------------------------- sampling

DagTreeSpec sampleTree(const DagConfig& cfg, uint64_t seed = 7,
                       int hosts = 16) {
    Rng rng(seed);
    return sampleDagTree(cfg, nullptr, rng, /*root=*/0, hosts);
}

TEST(DagTree, SamplesTheConfiguredShape) {
    DagConfig cfg;
    cfg.fanout = 3;
    cfg.depth = 2;
    cfg.stageResponseBytes = {16000, 2000};
    const DagTreeSpec tree = sampleTree(cfg);
    ASSERT_EQ(tree.nodes.size(), 1u + 3u + 9u);
    EXPECT_EQ(dagTreeNodeCount(cfg), 12);
    EXPECT_EQ(tree.nodes[0].parent, -1);
    EXPECT_EQ(tree.nodes[0].stage, 0);
    for (size_t i = 1; i < tree.nodes.size(); i++) {
        const DagNodeSpec& n = tree.nodes[i];
        ASSERT_GE(n.parent, 0);
        ASSERT_LT(static_cast<size_t>(n.parent), i);  // BFS order
        const DagNodeSpec& p = tree.nodes[n.parent];
        EXPECT_EQ(n.stage, p.stage + 1);
        EXPECT_NE(n.host, p.host);
        // The parent's child range covers this node.
        EXPECT_GE(static_cast<int>(i), p.firstChild);
        EXPECT_LT(static_cast<int>(i), p.firstChild + p.childCount);
        EXPECT_EQ(n.respBytes, n.stage == 1 ? 16000u : 2000u);
    }
    for (const DagNodeSpec& n : tree.nodes) {
        if (n.stage < cfg.depth) {
            EXPECT_EQ(n.childCount, 3);
        } else {
            EXPECT_EQ(n.childCount, 0);
        }
    }
    // One request per edge plus every node's response.
    EXPECT_EQ(dagTreeBytes(cfg, tree),
              12 * 320 + 3 * 16000 + 9 * 2000);
}

TEST(DagTree, StragglersInflateOnlyLeaves) {
    DagConfig cfg;
    cfg.fanout = 4;
    cfg.depth = 2;
    cfg.stageResponseBytes = {1000, 100};
    cfg.stragglerFraction = 1.0;  // every leaf
    cfg.stragglerFactor = 3.0;
    const DagTreeSpec tree = sampleTree(cfg);
    for (const DagNodeSpec& n : tree.nodes) {
        if (n.stage == 1) {
            EXPECT_EQ(n.respBytes, 1000u);
        } else if (n.stage == 2) {
            EXPECT_EQ(n.respBytes, 300u);
        }
    }
}

TEST(DagTree, IdealIsTheSlowestLeafToRootChain) {
    DagConfig cfg;
    cfg.fanout = 2;
    cfg.depth = 2;
    cfg.requestBytes = 10;
    cfg.stageResponseBytes = {50, 20};
    const DagTreeSpec tree = sampleTree(cfg);
    // Cost = bytes (host-independent), so every leaf chain costs
    // (10 + 20) at the leaf edge plus (10 + 50) at the aggregator edge.
    const Duration ideal = dagTreeIdeal(
        tree, cfg.requestBytes,
        [](HostId, HostId, uint32_t bytes) {
            return static_cast<Duration>(bytes);
        });
    EXPECT_EQ(ideal, 10 + 20 + 10 + 50);
    EXPECT_EQ(dagTreeIdeal(tree, cfg.requestBytes, nullptr), 0);
}

// ------------------------------------------------- multi-parent joins

// Delivers every message after a size-dependent service time without
// simulating packets: exercises the pure tree control flow.
class DelayTransport final : public Transport {
public:
    explicit DelayTransport(HostServices& host) : host_(host) {}
    void sendMessage(const Message& m) override {
        const Duration service =
            microseconds(1) + static_cast<Duration>(m.length) * 100;
        host_.loop().after(service, [this, m] {
            DeliveryInfo info;
            info.completed = host_.loop().now();
            notifyDelivered(m, info);
        });
    }
    void handlePacket(const Packet&) override {}

private:
    HostServices& host_;
};

TrafficConfig dagConfig(DagConfig dag, Duration stop = milliseconds(2)) {
    TrafficConfig cfg;
    cfg.workload = WorkloadId::W1;
    cfg.stop = stop;
    cfg.scenario.kind = TrafficPatternKind::Dag;
    cfg.scenario.dag = dag;
    return cfg;
}

TEST(DagJoins, SamplingIsDeterministicAndWellFormed) {
    DagConfig cfg;
    cfg.fanout = 3;
    cfg.depth = 3;
    cfg.stageResponseBytes = {4000, 1000, 200};
    cfg.joinFraction = 0.5;
    const DagTreeSpec tree = sampleTree(cfg);
    ASSERT_FALSE(tree.joins.empty());
    int lastChild = -1;
    for (const DagJoinEdge& e : tree.joins) {
        ASSERT_GE(e.parent, 0);
        ASSERT_LT(static_cast<size_t>(e.child), tree.nodes.size());
        // An extra parent sits exactly one stage up, is never the node's
        // own parent, never shares its host, and precedes it in BFS
        // order — the acyclicity guarantee.
        EXPECT_LT(e.parent, e.child);
        EXPECT_EQ(tree.nodes[e.parent].stage, tree.nodes[e.child].stage - 1);
        EXPECT_NE(e.parent, tree.nodes[e.child].parent);
        EXPECT_NE(tree.nodes[e.parent].host, tree.nodes[e.child].host);
        EXPECT_GE(tree.nodes[e.child].stage, 2);  // no root-level joins
        EXPECT_GT(e.child, lastChild);  // child-ascending, one edge per node
        lastChild = e.child;
    }
    // Same seed => the same DAG, edge for edge.
    const DagTreeSpec again = sampleTree(cfg);
    ASSERT_EQ(again.joins.size(), tree.joins.size());
    for (size_t i = 0; i < tree.joins.size(); i++) {
        EXPECT_EQ(again.joins[i].parent, tree.joins[i].parent);
        EXPECT_EQ(again.joins[i].child, tree.joins[i].child);
    }
    // The adjacency view covers every edge exactly once.
    const std::vector<std::vector<int>> kids = dagJoinChildren(tree);
    size_t total = 0;
    for (const std::vector<int>& k : kids) total += k.size();
    EXPECT_EQ(total, tree.joins.size());
}

TEST(DagJoins, ZeroFractionIsByteIdenticalToPureTrees) {
    // joinFraction = 0 must draw nothing from the RNG: the sampled shape
    // is node-for-node identical to a config that predates the knob, so
    // existing tree goldens are unperturbed by the DAG extension.
    DagConfig pure;
    pure.fanout = 3;
    pure.depth = 3;
    pure.stageResponseBytes = {4000, 1000, 200};
    DagConfig zeroed = pure;
    zeroed.joinFraction = 0.0;
    const DagTreeSpec a = sampleTree(pure);
    const DagTreeSpec b = sampleTree(zeroed);
    EXPECT_TRUE(b.joins.empty());
    ASSERT_EQ(a.nodes.size(), b.nodes.size());
    for (size_t i = 0; i < a.nodes.size(); i++) {
        EXPECT_EQ(a.nodes[i].host, b.nodes[i].host);
        EXPECT_EQ(a.nodes[i].parent, b.nodes[i].parent);
        EXPECT_EQ(a.nodes[i].respBytes, b.nodes[i].respBytes);
    }
}

TEST(DagJoins, JoinsOnlyLengthenTheIdealAndAddBytes) {
    DagConfig cfg;
    cfg.fanout = 3;
    cfg.depth = 3;
    cfg.requestBytes = 10;
    cfg.stageResponseBytes = {50, 30, 20};
    cfg.joinFraction = 0.7;
    const DagTreeSpec joined = sampleTree(cfg);
    ASSERT_FALSE(joined.joins.empty());
    DagTreeSpec stripped = joined;
    stripped.joins.clear();
    const DagCostFn cost = [](HostId, HostId, uint32_t bytes) {
        return static_cast<Duration>(bytes);
    };
    // Join edges add constraints (an extra parent to answer) and carry
    // their own request + response copy: the ideal can only grow, and
    // the byte count grows by exactly one edge's worth per join.
    EXPECT_GE(dagTreeIdeal(joined, cfg.requestBytes, cost),
              dagTreeIdeal(stripped, cfg.requestBytes, cost));
    int64_t joinBytes = 0;
    for (const DagJoinEdge& e : joined.joins) {
        joinBytes += cfg.requestBytes + joined.nodes[e.child].respBytes;
    }
    EXPECT_EQ(dagTreeBytes(cfg, joined),
              dagTreeBytes(cfg, stripped) + joinBytes);
    // A pure tree's ideal must match the historical slowest-chain value
    // (the absolute-time reformulation is a pure refactor for trees).
    EXPECT_GT(dagTreeIdeal(stripped, cfg.requestBytes, cost), 0);
}

TEST(DagJoins, EngineHoldsFanInForJoinChildrenToo) {
    // External ledger over the message-level engine: a node may answer
    // *any* parent only after every one of its own children AND every
    // join child it queried has delivered its response to it.
    DagConfig dag;
    dag.fanout = 3;
    dag.depth = 3;
    dag.roots = 4;
    dag.stageResponseBytes = {500, 300, 200};
    dag.joinFraction = 0.5;
    Network net(NetworkConfig::singleRack16(), [](HostServices& h) {
        return std::make_unique<DelayTransport>(h);
    });
    TrafficGenerator* genPtr = nullptr;
    // (tree, child, parent) triples whose response was delivered — join
    // children answer each parent separately, so the parent matters.
    std::set<std::tuple<uint64_t, int, int>> deliveredResponses;
    uint64_t joinEdgesSeen = 0, joinFanInsChecked = 0;
    std::set<uint64_t> treesSeen;
    TrafficGenerator gen(net, dagConfig(dag, milliseconds(3)), [&](const Message& m) {
        const auto role = genPtr->dag()->roleOf(m.id);
        ASSERT_TRUE(role.has_value());
        const DagTreeSpec* spec = genPtr->dag()->treeSpec(role->tree);
        ASSERT_NE(spec, nullptr);
        if (treesSeen.insert(role->tree).second) {
            joinEdgesSeen += spec->joins.size();
        }
        if (!role->response) return;
        const DagNodeSpec& n = spec->nodes[role->node];
        for (int c = 0; c < n.childCount; c++) {
            EXPECT_TRUE(deliveredResponses.count(
                {role->tree, n.firstChild + c, role->node}) != 0)
                << "tree " << role->tree << " node " << role->node
                << " responded before own child " << n.firstChild + c;
        }
        const std::vector<std::vector<int>> kids = dagJoinChildren(*spec);
        for (int jc : kids[static_cast<size_t>(role->node)]) {
            EXPECT_TRUE(deliveredResponses.count(
                {role->tree, jc, role->node}) != 0)
                << "tree " << role->tree << " node " << role->node
                << " responded before join child " << jc;
            joinFanInsChecked++;
        }
    });
    genPtr = &gen;
    net.setDeliveryCallback([&](const Message& m, const DeliveryInfo&) {
        const auto role = gen.dag()->roleOf(m.id);
        ASSERT_TRUE(role.has_value());
        if (role->response) {
            deliveredResponses.insert({role->tree, role->node, role->parent});
        }
        gen.onDelivered(m);
    });
    gen.start();
    net.loop().runUntil(milliseconds(4));
    EXPECT_GT(gen.dag()->treesCompleted(), 5u);
    EXPECT_GT(joinEdgesSeen, 0u);       // the DAGs actually had joins
    EXPECT_GT(joinFanInsChecked, 0u);   // and their fan-ins were checked
}

TEST(DagJoins, SpecParsesAndEndToEndReplaysByteIdentically) {
    ScenarioConfig s;
    ASSERT_TRUE(scenarioFromSpec("dag:fanout=3,depth=3,join=0.4", s));
    EXPECT_DOUBLE_EQ(s.dag.joinFraction, 0.4);
    ScenarioConfig untouched;
    EXPECT_FALSE(scenarioFromSpec("dag:join=1.5", untouched));
    EXPECT_FALSE(scenarioFromSpec("dag:join=abc", untouched));

    ExperimentConfig cfg;
    cfg.net = NetworkConfig::singleRack16();
    cfg.traffic.workload = WorkloadId::W1;
    cfg.traffic.stop = milliseconds(2);
    cfg.traffic.scenario.kind = TrafficPatternKind::Dag;
    cfg.traffic.scenario.dag.fanout = 3;
    cfg.traffic.scenario.dag.depth = 3;
    cfg.traffic.scenario.dag.roots = 4;
    cfg.traffic.scenario.dag.stageResponseBytes = {4000, 1000, 200};
    cfg.traffic.scenario.dag.joinFraction = 0.5;
    const ExperimentResult a = runExperiment(cfg);
    ASSERT_TRUE(a.dag);
    EXPECT_GT(a.dag->trees(), 0u);
    EXPECT_EQ(resultFingerprint(a), resultFingerprint(runExperiment(cfg)));
    ExperimentConfig reseeded = cfg;
    reseeded.traffic.seed = cfg.traffic.seed + 1;
    EXPECT_NE(resultFingerprint(a), resultFingerprint(runExperiment(reseeded)));
}

// --------------------------------------------- fan-in semantics (external)

TEST(DagFanIn, ParentResponseNeverFiresBeforeLastChildDelivery) {
    DagConfig dag;
    dag.fanout = 3;
    dag.depth = 2;
    dag.roots = 4;
    dag.stageResponseBytes = {500, 200};
    Network net(NetworkConfig::singleRack16(), [](HostServices& h) {
        return std::make_unique<DelayTransport>(h);
    });
    TrafficGenerator* genPtr = nullptr;
    // External ledger: which (tree, node) responses have been delivered.
    std::set<std::pair<uint64_t, int>> deliveredResponses;
    uint64_t responsesChecked = 0;
    TrafficGenerator gen(net, dagConfig(dag), [&](const Message& m) {
        const auto role = genPtr->dag()->roleOf(m.id);
        ASSERT_TRUE(role.has_value());  // every dag message is the engine's
        if (!role->response) return;
        const DagTreeSpec* spec = genPtr->dag()->treeSpec(role->tree);
        ASSERT_NE(spec, nullptr);
        const DagNodeSpec& n = spec->nodes[role->node];
        // The node fires its own response only after every one of its
        // children's responses was *delivered* to it.
        for (int c = 0; c < n.childCount; c++) {
            EXPECT_TRUE(deliveredResponses.count(
                {role->tree, n.firstChild + c}) != 0)
                << "tree " << role->tree << " node " << role->node
                << " responded before child " << n.firstChild + c;
            responsesChecked++;
        }
    });
    genPtr = &gen;
    net.setDeliveryCallback([&](const Message& m, const DeliveryInfo&) {
        const auto role = gen.dag()->roleOf(m.id);
        ASSERT_TRUE(role.has_value());
        if (role->response) {
            deliveredResponses.insert({role->tree, role->node});
        }
        gen.onDelivered(m);
    });
    gen.start();
    net.loop().runUntil(milliseconds(3));
    EXPECT_GT(gen.dag()->treesCompleted(), 20u);
    EXPECT_GT(responsesChecked, 100u);  // internal-node fan-ins were checked
}

TEST(DagFanIn, TreeWindowNeverExceeded) {
    DagConfig dag;
    dag.fanout = 2;
    dag.depth = 2;
    dag.window = 3;
    Network net(NetworkConfig::singleRack16(), [](HostServices& h) {
        return std::make_unique<DelayTransport>(h);
    });
    TrafficGenerator* genPtr = nullptr;
    // External per-root accounting of outstanding trees: a tree starts
    // when its first message appears, ends at the completion callback.
    std::map<uint64_t, HostId> treeRoot;
    std::map<HostId, int> outstanding;
    int maxSeen = 0;
    TrafficGenerator gen(net, dagConfig(dag), [&](const Message& m) {
        const auto role = genPtr->dag()->roleOf(m.id);
        ASSERT_TRUE(role.has_value());
        if (treeRoot.count(role->tree) != 0) return;
        const DagTreeSpec* spec = genPtr->dag()->treeSpec(role->tree);
        ASSERT_NE(spec, nullptr);
        treeRoot[role->tree] = spec->nodes[0].host;
        const int now = ++outstanding[spec->nodes[0].host];
        maxSeen = std::max(maxSeen, now);
    });
    genPtr = &gen;
    gen.setOnTreeComplete([&](const DagTreeResult& r) {
        outstanding[r.root]--;
        EXPECT_GE(outstanding[r.root], 0);
    });
    net.setDeliveryCallback([&](const Message& m, const DeliveryInfo&) {
        gen.onDelivered(m);
    });
    gen.start();
    net.loop().runUntil(milliseconds(3));
    EXPECT_GT(gen.dag()->treesCompleted(), 100u);
    EXPECT_GT(maxSeen, 0);
    EXPECT_LE(maxSeen, dag.window);
    EXPECT_EQ(gen.maxOutstanding(), maxSeen);
}

// ------------------------------------------------------------ end to end

ExperimentConfig dagExperiment(DagConfig dag) {
    ExperimentConfig cfg;
    cfg.net = NetworkConfig::singleRack16();
    cfg.traffic.workload = WorkloadId::W1;
    cfg.traffic.stop = milliseconds(2);
    cfg.traffic.scenario.kind = TrafficPatternKind::Dag;
    cfg.traffic.scenario.dag = dag;
    cfg.drainGrace = milliseconds(20);
    return cfg;
}

TEST(DagEndToEnd, ExperimentReportsDagMetrics) {
    DagConfig dag;
    dag.fanout = 4;
    dag.depth = 2;
    dag.roots = 4;
    dag.stageResponseBytes = {4000, 1000};
    ExperimentResult r = runExperiment(dagExperiment(dag));
    EXPECT_GT(r.delivered, 0u);
    EXPECT_TRUE(r.keptUp);  // bounded in-flight: the tree loop keeps up
    EXPECT_FALSE(r.closedLoop);
    ASSERT_TRUE(r.dag);
    EXPECT_EQ(r.dag->roots(), 4);
    EXPECT_GT(r.dag->trees(), 50u);
    EXPECT_EQ(r.dag->totalNodes(), r.dag->trees() * 20u);
    EXPECT_GT(r.maxOutstanding, 0);
    EXPECT_LE(r.maxOutstanding, dag.window);
    for (int root = 0; root < r.dag->roots(); root++) {
        EXPECT_GT(r.dag->rootTrees(root), 0u) << "root " << root;
    }
    EXPECT_GE(r.dag->maxRootTrees(), r.dag->minRootTrees());
    EXPECT_GE(r.dag->completionPercentileUs(0.99),
              r.dag->completionPercentileUs(0.50));
    EXPECT_GT(r.dag->treesPerSec(), 0.0);
    EXPECT_GT(r.dag->aggregateGbps(), 0.0);
    // The ideal is a lower bound (it ignores fan-out serialization), so
    // measured slowdown sits at or above ~1.
    EXPECT_GT(r.dag->slowdownSamples(), 0u);
    EXPECT_GE(r.dag->slowdownPercentile(0.50), 1.0);
}

TEST(DagEndToEnd, StragglersDominateTreeLatency) {
    DagConfig base;
    base.fanout = 8;
    base.depth = 1;
    base.roots = 4;
    base.stageResponseBytes = {2000};
    DagConfig straggly = base;
    straggly.stragglerFraction = 0.2;  // P(tree has none) = 0.8^8 ~ 0.17
    straggly.stragglerFactor = 40.0;   // 80 KB shard vs 2 KB siblings
    ExperimentResult fast = runExperiment(dagExperiment(base));
    ExperimentResult slow = runExperiment(dagExperiment(straggly));
    ASSERT_TRUE(fast.dag);
    ASSERT_TRUE(slow.dag);
    EXPECT_GT(fast.dag->trees(), 50u);
    EXPECT_GT(slow.dag->trees(), 20u);
    // One inflated shard gates the whole tree: the median tree is several
    // times slower even though only ~1.6 of 8 shards straggle.
    EXPECT_GT(slow.dag->completionPercentileUs(0.50),
              3.0 * fast.dag->completionPercentileUs(0.50));
}

TEST(DagEndToEnd, ComposesWithOnOffModulation) {
    DagConfig dag;
    dag.fanout = 4;
    dag.depth = 1;
    dag.roots = 8;
    dag.stageResponseBytes = {1000};
    ExperimentConfig cfg = dagExperiment(dag);
    ExperimentResult plain = runExperiment(cfg);
    cfg.traffic.scenario.onOff.enabled = true;  // duty cycle 0.25
    ExperimentResult gated = runExperiment(cfg);
    ASSERT_TRUE(plain.dag);
    ASSERT_TRUE(gated.dag);
    EXPECT_GT(gated.dag->trees(), 10u);
    // Idle periods must actually suppress tree issues.
    EXPECT_LT(static_cast<double>(gated.dag->trees()),
              0.7 * static_cast<double>(plain.dag->trees()));
}

TEST(DagEndToEnd, SpecRunsForAllSixProtocolsWithSweepIdentity) {
    // The acceptance bar for the scenario seam: a `dag:` spec parsed the
    // way the benches parse HOMA_SCENARIO runs end-to-end on every
    // protocol family, and the whole grid fingerprints byte-identically
    // at 1 vs N sweep threads.
    ScenarioConfig scenario;
    ASSERT_TRUE(scenarioFromSpec(
        "dag:fanout=4,depth=2,roots=4,resp=4000/1000", scenario));
    std::vector<ExperimentConfig> points;
    for (Protocol kind : {Protocol::Homa, Protocol::Basic, Protocol::PHost,
                          Protocol::Pias, Protocol::PFabric, Protocol::Ndp}) {
        ExperimentConfig cfg;
        cfg.net = NetworkConfig::singleRack16();
        cfg.proto.kind = kind;
        cfg.traffic.workload = WorkloadId::W1;
        cfg.traffic.stop = milliseconds(2);
        cfg.traffic.scenario = scenario;
        cfg.drainGrace = milliseconds(20);
        points.push_back(std::move(cfg));
    }
    SweepOptions serial;
    serial.threads = 1;
    serial.deriveSeeds = true;
    SweepOptions parallel = serial;
    parallel.threads = 4;
    SweepOutcome one = SweepRunner(serial).run(points);
    SweepOutcome many = SweepRunner(parallel).run(points);
    for (size_t i = 0; i < points.size(); i++) {
        const char* proto = protocolName(points[i].proto.kind);
        ASSERT_TRUE(one.results[i].dag) << proto;
        EXPECT_GT(one.results[i].dag->trees(), 10u) << proto;
        EXPECT_EQ(resultFingerprint(one.results[i]),
                  resultFingerprint(many.results[i]))
            << proto;
    }
}

// ------------------------------------------------- CLI misuse validation

#ifdef HOMA_RUN_EXPERIMENT_BIN

int runCli(const std::string& args) {
    const std::string cmd = std::string(HOMA_RUN_EXPERIMENT_BIN) + " " +
                            args + " > /dev/null 2>&1";
    const int status = std::system(cmd.c_str());
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

TEST(RunExperimentCli, RejectsContradictoryFlagCombinations) {
    // Usage errors exit with status 2.
    EXPECT_EQ(runCli("--dag-fanout 4"), 2);               // dag flags, no dag
    EXPECT_EQ(runCli("--dag-depth 2 --pattern incast"), 2);
    EXPECT_EQ(runCli("--pattern dag --window 3"), 2);     // closed-loop knob
    EXPECT_EQ(runCli("--pattern dag --think-us 5"), 2);
    EXPECT_EQ(runCli("--trace /dev/null --dag-fanout 2"), 2);
    EXPECT_EQ(runCli("--pattern dag --trace /dev/null"), 2);
    EXPECT_EQ(runCli("--pattern dag --dag-fanout 0"), 2);  // invalid config
    EXPECT_EQ(runCli("--pattern dag --dag-fanout 100 --dag-depth 3"), 2);
    EXPECT_EQ(runCli("--pattern dag --dag-stage-sizes 16000,abc"), 2);
    EXPECT_EQ(runCli("--pattern dag --dag-stage-sizes 16000,"), 2);
    EXPECT_EQ(runCli("--pattern dag --dag-stage-sizes 0"), 2);
    EXPECT_EQ(runCli("--pattern dag --dag-req -5"), 2);
    EXPECT_EQ(runCli("--pattern dag --dag-req 4294967297"), 2);
    EXPECT_EQ(runCli("--pattern dag --dag-fanout abc"), 2);
    EXPECT_EQ(runCli("--pattern dag --dag-straggler x"), 2);
    EXPECT_EQ(runCli("--pattern dag --dag-join 1.5"), 2);  // out of [0, 1]
    EXPECT_EQ(runCli("--pattern dag --dag-join abc"), 2);
    EXPECT_EQ(runCli("--window 3"), 2);                   // pre-existing rule
    EXPECT_EQ(runCli("--on-us 5"), 2);
    // Every number parses whole and in range (not a crash or a wrap).
    EXPECT_EQ(runCli("--load abc"), 2);
    EXPECT_EQ(runCli("--window-ms x"), 2);
    EXPECT_EQ(runCli("--sim-threads q"), 2);
    EXPECT_EQ(runCli("--pattern incast --hotspots z"), 2);
    EXPECT_EQ(runCli("--workload W9"), 2);
    EXPECT_EQ(runCli("--cutoff -5"), 2);
    EXPECT_EQ(runCli("--seed -1"), 2);
    // Values the library rejects (not an empty run).
    EXPECT_EQ(runCli("--load 0"), 2);
    // Homa knobs outside what Homa can run (not a silent run).
    EXPECT_EQ(runCli("--single-rack --window-ms 1 --wire-priorities 0"), 2);
    EXPECT_EQ(runCli("--single-rack --window-ms 1 --wire-priorities 99"), 2);
    EXPECT_EQ(runCli("--single-rack --window-ms 1 --sched 20"), 2);
    EXPECT_EQ(runCli("--single-rack --window-ms 1 --unsched 9"), 2);
    EXPECT_EQ(runCli("--single-rack --window-ms 1 --reservation 5"), 2);
    EXPECT_EQ(runCli("--window-ms -3"), 2);
    // Pattern knobs without their pattern (not silently ignored).
    EXPECT_EQ(runCli("--hotspots 4"), 2);
    EXPECT_EQ(runCli("--rack-local 0.9"), 2);
    EXPECT_EQ(runCli("--pareto-alpha 2"), 2);
}

TEST(RunExperimentCli, RejectsHomaKnobsOutsideHoma) {
    // The Homa knobs configure only Homa (Basic takes just rttBytes), so
    // under another protocol they are rejected, not silently ignored; and
    // --sched/--unsched count levels, so 0 is not "keep the default".
    EXPECT_EQ(runCli("--protocol pFabric --single-rack --window-ms 1 "
                     "--cutoff 1000 --grant-policy fifo"),
              2);
    EXPECT_EQ(runCli("--protocol Basic --single-rack --window-ms 1 "
                     "--overcommit 2"),
              2);
    EXPECT_EQ(runCli("--protocol NDP --single-rack --window-ms 1 "
                     "--no-incast-control"),
              2);
    EXPECT_EQ(runCli("--single-rack --window-ms 1 --sched 0"), 2);
    EXPECT_EQ(runCli("--single-rack --window-ms 1 --unsched 0"), 2);
    EXPECT_EQ(runCli("--single-rack --window-ms 1 --sched 5 --unsched 2 "
                     "--grant-policy fifo"),
              0);
}

TEST(RunExperimentCli, RunsAValidDagPoint) {
    EXPECT_EQ(runCli("--single-rack --workload W1 --window-ms 1 "
                     "--pattern dag --dag-fanout 2 --dag-depth 1 "
                     "--dag-roots 2 --dag-stage-sizes 1000"),
              0);
}

#endif  // HOMA_RUN_EXPERIMENT_BIN

}  // namespace
}  // namespace homa
