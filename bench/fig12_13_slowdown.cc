// Figures 12 and 13: one-way message slowdown in the 144-host fat-tree for
// Homa, pFabric, pHost, PIAS (all workloads) and NDP (W5), at high and
// moderate load.
//
// Like the paper, protocols that cannot sustain 80% run at the highest
// load they support (pHost ~60%, NDP ~70%); the 50% row runs everyone at
// 50%. The whole load x workload x protocol grid fans out across cores via
// SweepRunner (results are identical to the sequential run); HOMA_SCENARIO
// selects a non-uniform traffic pattern. --shard=i/N / --merge distribute
// the grid across machines (see bench/bench_shard.h).
#include "bench_common.h"
#include "bench_shard.h"

using namespace homa;
using namespace homa::bench;

namespace {

struct Entry {
    Protocol kind;
    double loadCap;  // highest load this protocol sustains (paper, Fig 15)
};

std::vector<Entry> entries(WorkloadId wl) {
    std::vector<Entry> out = {
        {Protocol::Homa, 0.90},
        {Protocol::PFabric, 0.85},
        {Protocol::PHost, 0.62},
        {Protocol::Pias, 0.75},
    };
    if (wl == WorkloadId::W5) out.push_back({Protocol::Ndp, 0.70});
    return out;
}

struct Point {
    double requestedLoad;
    WorkloadId wl;
    std::string label;
};

}  // namespace

int main(int argc, char** argv) {
    const SweepCli cli = parseSweepCli(argc, argv);
    if (cli.merge) return runShardMerge("fig12_13", cli);
    printHeader("Figures 12 & 13: simulation slowdown comparison",
                "99th-percentile and median one-way slowdown vs message "
                "size, 144-host fat-tree");

    const ScenarioConfig scenario = scenarioFromEnv();

    // Build the whole grid up front, then fan it across the thread pool.
    std::vector<Point> points;
    std::vector<ExperimentConfig> configs;
    for (double requestedLoad : {0.8, 0.5}) {
        for (WorkloadId wl : kAllWorkloads) {
            for (const Entry& e : entries(wl)) {
                ExperimentConfig cfg;
                cfg.proto.kind = e.kind;
                cfg.traffic.workload = wl;
                cfg.traffic.load = std::min(requestedLoad, e.loadCap);
                cfg.traffic.stop = simWindow();
                cfg.traffic.scenario = scenario;
                std::string label = protocolName(e.kind);
                if (cfg.traffic.load < requestedLoad) {
                    label += '@';
                    label += std::to_string(
                        static_cast<int>(cfg.traffic.load * 100));
                }
                points.push_back({requestedLoad, wl, std::move(label)});
                configs.push_back(std::move(cfg));
            }
        }
    }
    if (cli.sharded) {
        std::vector<std::string> labels;
        labels.reserve(points.size());
        for (const Point& p : points) {
            labels.push_back(workload(p.wl).name() + "/" + p.label + "@" +
                             std::to_string(
                                 static_cast<int>(p.requestedLoad * 100)));
        }
        return runShardedSweep("fig12_13", cli, sweepOptionsFromEnv(),
                               std::move(configs), labels);
    }
    SweepOutcome sweep = SweepRunner(sweepOptionsFromEnv()).run(std::move(configs));

    // Group consecutive points by their stored (load, workload): the
    // grouping comes from the data, not a mirrored copy of the build loop.
    for (size_t i = 0; i < points.size();) {
        const double requestedLoad = points[i].requestedLoad;
        const WorkloadId wl = points[i].wl;
        const SizeDistribution& dist = workload(wl);
        std::printf("--- Workload %s, %d%% network load ---\n",
                    dist.name().c_str(),
                    static_cast<int>(requestedLoad * 100));

        const size_t first = i;
        std::vector<std::pair<std::string, const SlowdownTracker*>> curves;
        for (; i < points.size() && points[i].requestedLoad == requestedLoad &&
               points[i].wl == wl;
             i++) {
            curves.emplace_back(points[i].label,
                                sweep.results[i].slowdown.get());
        }
        std::printf("[Figure 12] 99%% slowdown:\n");
        printSlowdownTable(dist, curves, /*tail=*/true);
        std::printf("[Figure 13] median slowdown:\n");
        printSlowdownTable(dist, curves, /*tail=*/false);
        for (size_t j = first; j < i; j++) {
            const ExperimentResult& r = sweep.results[j];
            std::printf("  %-12s delivered %llu/%llu keptUp=%d drops=%llu\n",
                        points[j].label.c_str(),
                        static_cast<unsigned long long>(r.delivered),
                        static_cast<unsigned long long>(r.generated),
                        static_cast<int>(r.keptUp),
                        static_cast<unsigned long long>(r.switchDrops));
        }
        std::printf("\n");
    }
    printSweepFooter(sweep);
    std::printf(
        "Expected shape (paper): Homa ~= pFabric and well under pHost/PIAS\n"
        "for small messages (p99 <= ~2.2 for the shortest half of each\n"
        "workload at 80%%); PIAS jumps for messages > 1 packet; NDP is\n"
        "uniformly worse for multi-RTT messages (fair-share, no SRPT).\n");
    return 0;
}
