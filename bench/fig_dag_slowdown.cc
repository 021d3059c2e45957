// Fan-out/fan-in DAG slowdown: per-tree completion-time and slowdown
// percentiles for partition-aggregate request trees, across the six
// protocol families (Homa, Basic, pHost, PIAS, pFabric, NDP).
//
// This is the workload class the paper is motivated by (§1): a
// coordinator fans a query out, every worker may fan out again, and the
// reply waits for the slowest leaf — so the receiver-driven SRPT +
// incast-control machinery either tames the fan-in or the tree tail
// explodes. Three tree shapes: a wide flat aggregation (the Figure 10
// regime with dependencies), a two-level partition-aggregate, and the
// same two-level tree with a 10% straggler shard. The whole protocol x
// shape grid fans out across cores via SweepRunner; HOMA_SCENARIO does
// not apply (the scenario *is* the subject). --shard=i/N / --merge
// distribute the grid across machines (see bench/bench_shard.h).
#include "bench_common.h"
#include "bench_shard.h"

using namespace homa;
using namespace homa::bench;

namespace {

struct Shape {
    const char* name;
    DagConfig dag;
};

std::vector<Shape> shapes() {
    // Aggregators return 16 KB summaries, leaves 2 KB shards; queries are
    // 320 B. Four coordinator hosts keep one tree in flight each.
    DagConfig wide;
    wide.fanout = 24;
    wide.depth = 1;
    wide.roots = 4;
    wide.stageResponseBytes = {2000};

    DagConfig agg;
    agg.fanout = 8;
    agg.depth = 2;
    agg.roots = 4;
    agg.stageResponseBytes = {16000, 2000};

    DagConfig straggle = agg;
    straggle.stragglerFraction = 0.1;
    straggle.stragglerFactor = 20.0;

    return {{"wide fanout=24 depth=1", wide},
            {"partition-aggregate fanout=8 depth=2", agg},
            {"straggler 10% x20", straggle}};
}

}  // namespace

int main(int argc, char** argv) {
    const SweepCli cli = parseSweepCli(argc, argv);
    if (cli.merge) return runShardMerge("fig_dag", cli);
    printHeader("DAG slowdown: fan-out/fan-in RPC dependency trees",
                "per-tree completion and slowdown, partition-aggregate "
                "workloads, 144-host fat-tree");

    const Protocol protocols[] = {Protocol::Homa,  Protocol::Basic,
                                  Protocol::PHost, Protocol::Pias,
                                  Protocol::PFabric, Protocol::Ndp};

    std::vector<Shape> grid = shapes();
    std::vector<ExperimentConfig> configs;
    std::vector<std::string> labels;
    for (const Shape& shape : grid) {
        for (Protocol kind : protocols) {
            ExperimentConfig cfg;
            cfg.proto.kind = kind;
            cfg.traffic.workload = WorkloadId::W1;  // sizes fixed per stage
            cfg.traffic.stop = fullScale() ? milliseconds(40) : milliseconds(4);
            cfg.traffic.scenario.kind = TrafficPatternKind::Dag;
            cfg.traffic.scenario.dag = shape.dag;
            labels.push_back(std::string(protocolName(kind)) + "/" +
                             shape.name);
            configs.push_back(std::move(cfg));
        }
    }
    if (cli.sharded) {
        return runShardedSweep("fig_dag", cli, sweepOptionsFromEnv(),
                               std::move(configs), labels);
    }
    SweepOutcome sweep = SweepRunner(sweepOptionsFromEnv()).run(std::move(configs));

    size_t i = 0;
    for (const Shape& shape : grid) {
        std::printf("--- %s (req 320 B, W=%d, %d roots) ---\n", shape.name,
                    shape.dag.window, shape.dag.roots);
        Table t({"protocol", "trees", "p50 us", "p99 us", "slow p50",
                 "slow p99", "trees/s", "keptUp"});
        for (Protocol kind : protocols) {
            const ExperimentResult& r = sweep.results[i++];
            t.addRow({protocolName(kind), std::to_string(r.dag->trees()),
                      Table::num(r.dag->completionPercentileUs(0.50)),
                      Table::num(r.dag->completionPercentileUs(0.99)),
                      Table::num(r.dag->slowdownPercentile(0.50)),
                      Table::num(r.dag->slowdownPercentile(0.99)),
                      std::to_string(static_cast<long long>(
                          r.dag->treesPerSec())),
                      r.keptUp ? "yes" : "no"});
        }
        std::printf("%s\n", t.format().c_str());
    }
    printSweepFooter(sweep);
    std::printf(
        "Expected shape: Homa's grant scheduler + incast control keep the\n"
        "p99 tree tail close to p50 even at fanout 24; protocols without\n"
        "receiver-driven fan-in handling (Basic, pHost) widen at p99, and\n"
        "the straggler row is dominated by the inflated shard for all.\n");
    return 0;
}
