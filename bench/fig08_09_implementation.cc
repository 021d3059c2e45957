// Figures 8 and 9: tail and median slowdown of echo RPCs on the 16-host
// single-switch cluster at 80% network load, for Homa, priority-collapsed
// Homa variants (HomaP1/P2/P4), Basic, and streaming transports.
//
// "Stream-SC" is a single connection per client-server pair (the InfRC
// configuration: unbounded window); "Stream-MC" gives every message its own
// connection (InfRC-MC / TCP-MC). The paper's InfRC numbers were measured
// on a different, faster cluster at 33% load; here every transport runs on
// the same simulated cluster at the same load, which is the comparison the
// paper says would make Homa look even better (§5.1).
#include "bench_common.h"
#include "driver/rpc_experiment.h"

using namespace homa;
using namespace homa::bench;

namespace {

struct Variant {
    std::string name;
    ProtocolConfig proto;
};

std::vector<Variant> variants() {
    std::vector<Variant> v;
    v.push_back({protocolName(Protocol::Homa), ProtocolConfig{}});
    for (int x : {4, 2, 1}) {
        ProtocolConfig p;
        p.homa.wirePriorities = x;
        v.push_back({"HomaP" + std::to_string(x), p});
    }
    for (Protocol kind :
         {Protocol::Basic, Protocol::StreamMC, Protocol::StreamSC}) {
        ProtocolConfig p;
        p.kind = kind;
        v.push_back({protocolName(kind), p});
    }
    return v;
}

}  // namespace

int main() {
    printHeader("Figures 8 & 9: implementation measurements (echo RPCs)",
                "99th-percentile (Fig 8) and median (Fig 9) RPC slowdown vs "
                "size, W3-W5 at 80% load, 16-host cluster");

    for (WorkloadId wl : {WorkloadId::W3, WorkloadId::W4, WorkloadId::W5}) {
        const SizeDistribution& dist = workload(wl);
        std::printf("--- Workload %s ---\n", dist.name().c_str());

        std::vector<std::pair<std::string, const SlowdownTracker*>> curves;
        std::vector<RpcExperimentResult> results;
        std::vector<std::string> names;
        for (const Variant& var : variants()) {
            RpcExperimentConfig cfg;
            cfg.proto = var.proto;
            cfg.workload = wl;
            cfg.load = 0.8;
            cfg.stop = rpcWindow(wl);
            cfg.drainGrace = milliseconds(120);
            results.push_back(runRpcExperiment(cfg));
            names.push_back(var.name);
        }
        for (size_t i = 0; i < results.size(); i++) {
            curves.emplace_back(names[i], results[i].slowdown.get());
        }

        std::printf("[Figure 8] 99%% slowdown:\n");
        printSlowdownTable(dist, curves, /*tail=*/true);
        std::printf("[Figure 9] median slowdown:\n");
        printSlowdownTable(dist, curves, /*tail=*/false);
        for (size_t i = 0; i < results.size(); i++) {
            std::printf("  %-10s issued=%llu completed=%llu keptUp=%d\n",
                        names[i].c_str(),
                        static_cast<unsigned long long>(results[i].issued),
                        static_cast<unsigned long long>(results[i].completed),
                        static_cast<int>(results[i].keptUp));
        }
        std::printf("\n");
    }
    std::printf(
        "Expected shape (paper): Homa p99 ~2-3.5 for most sizes; Basic 5-15x\n"
        "worse; HomaP4 ~= Homa, HomaP2 worse, HomaP1 still better than Basic;\n"
        "Stream-SC 100-1000x worse for small RPCs (head-of-line blocking);\n"
        "Stream-MC between Basic and Homa.\n");
    return 0;
}
