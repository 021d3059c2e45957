// Core oversubscription sweep on the three-tier fat-tree: slowdown and
// per-tier link utilization vs the NetworkConfig::oversubscription knob,
// per protocol.
//
// The paper's evaluation assumes "the core is never the bottleneck"
// (§3): the 144-host tree has full bisection bandwidth, so all queueing
// happens at the TOR downlinks where receiver-driven scheduling can see
// it. This bench stresses exactly that assumption: the same uniform
// traffic on a 2-pod tree whose aggr->core links shrink by 1x/2x/4x/8x.
// At oversub 1 the three-tier numbers track the two-tier ones; as the
// knob grows, cross-pod traffic contends on links no receiver schedules,
// core utilization climbs past the TOR->aggr level, and the slowdown
// tail departs — for every protocol, since none of them control the
// core. HOMA_SCENARIO swaps the traffic pattern (e.g. "permutation" or
// "incast" to skew the matrix); the topology axis is the subject, so
// "topo:" modifiers in HOMA_SCENARIO are rejected.
#include "bench_common.h"

using namespace homa;
using namespace homa::bench;

int main(int argc, char** argv) {
    (void)argc;
    (void)argv;
    printHeader("Core oversubscription: slowdown vs bisection ratio",
                "three-tier extension of §5.2; 64-host 2-pod tree, "
                "uniform traffic at 80% load");

    const ScenarioConfig scenario = scenarioFromEnv();
    if (!scenario.topoSpec.empty()) {
        std::fprintf(stderr,
                     "fig_oversub sweeps the topology itself; drop the "
                     "topo: modifier from HOMA_SCENARIO\n");
        return 2;
    }

    const Protocol protocols[] = {Protocol::Homa, Protocol::PFabric,
                                  Protocol::Ndp};
    const double oversubs[] = {1, 2, 4, 8};

    std::vector<ExperimentConfig> configs;
    for (Protocol kind : protocols) {
        for (double oversub : oversubs) {
            ExperimentConfig cfg;
            cfg.proto.kind = kind;
            cfg.traffic.workload = WorkloadId::W3;
            cfg.traffic.load = 0.8;
            cfg.traffic.stop = simWindow();
            cfg.traffic.scenario = scenario;
            char spec[96];
            std::snprintf(spec, sizeof(spec),
                          "racks=8,hosts=8,aggr=2,core=2,pods=2,oversub=%g",
                          oversub);
            cfg.traffic.scenario.topoSpec = spec;
            configs.push_back(std::move(cfg));
        }
    }
    SweepOutcome sweep =
        SweepRunner(sweepOptionsFromEnv()).run(std::move(configs));

    size_t i = 0;
    for (Protocol kind : protocols) {
        std::printf("--- %s ---\n", protocolName(kind));
        Table t({"oversub", "slow p50", "slow p99", "aggr util", "core util",
                 "coreQ mean B", "coreQ max B", "keptUp"});
        for (double oversub : oversubs) {
            const ExperimentResult& r = sweep.results[i++];
            t.addRow({Table::num(oversub, 0),
                      Table::num(r.slowdown->overallPercentile(0.50)),
                      Table::num(r.slowdown->overallPercentile(0.99)),
                      Table::num(r.aggrLinkUtilization, 2),
                      Table::num(r.coreLinkUtilization, 2),
                      Table::num(r.aggrUp.meanBytes, 0),
                      std::to_string(static_cast<long long>(r.aggrUp.maxBytes)),
                      r.keptUp ? "yes" : "no"});
        }
        std::printf("%s\n", t.format().c_str());
    }
    printSweepFooter(sweep);
    std::printf(
        "Expected shape: at oversub 1 core utilization sits below the\n"
        "TOR->aggr level and every protocol behaves like the two-tier\n"
        "tree. As the knob grows the aggr->core links saturate first —\n"
        "core util overtakes aggr util — and the slowdown tail inflates\n"
        "for all protocols alike: the contended queues sit in the core,\n"
        "where neither receiver-driven grants (Homa), in-network SRPT\n"
        "(pFabric), nor trimming (NDP) has any purchase.\n");
    return 0;
}
