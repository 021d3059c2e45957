// Figure 15: the highest network load each protocol can sustain, per
// workload. A load is "sustained" when ~all messages generated in the
// measurement window are delivered by the end of the drain (open-loop
// generation: an overloaded protocol's backlog grows without bound).
#include "bench_common.h"

using namespace homa;
using namespace homa::bench;

int main() {
    printHeader("Figure 15: maximum sustainable network load",
                "highest load (%) each protocol supports per workload");

    const Protocol protos[] = {
        Protocol::Homa, Protocol::PFabric, Protocol::PHost, Protocol::Pias,
        Protocol::Ndp,  // W5 only, like the paper
    };

    const std::vector<WorkloadId> workloads =
        fullScale() ? std::vector<WorkloadId>(std::begin(kAllWorkloads),
                                              std::end(kAllWorkloads))
                    : std::vector<WorkloadId>{WorkloadId::W2, WorkloadId::W3,
                                              WorkloadId::W4, WorkloadId::W5};

    Table table({"Protocol", "W1", "W2", "W3", "W4", "W5"});
    for (Protocol kind : protos) {
        std::vector<std::string> row{protocolName(kind)};
        for (WorkloadId wl : kAllWorkloads) {
            const bool selected =
                std::find(workloads.begin(), workloads.end(), wl) !=
                workloads.end();
            if (!selected || (kind == Protocol::Ndp && wl != WorkloadId::W5)) {
                row.push_back("-");
                continue;
            }
            ExperimentConfig cfg;
            cfg.proto.kind = kind;
            cfg.traffic.workload = wl;
            cfg.traffic.stop = simWindow();
            cfg.drainGrace = milliseconds(fullScale() ? 150 : 60);
            const double cap = fullScale() ? findMaxLoad(cfg, 40, 2.5, 95)
                                           : findMaxLoad(cfg, 50, 10, 95);
            row.push_back(Table::num(cap, 0));
        }
        table.addRow(std::move(row));
    }
    std::printf("%s\n", table.format().c_str());
    std::printf(
        "Expected shape (paper): Homa sustains the highest loads (~80-90%%)\n"
        "and is the most stable across workloads; pFabric is close behind;\n"
        "pHost tops out at ~58-73%%; NDP ~73%% on W5; PIAS in between with\n"
        "more workload sensitivity.\n"
        "NOTE: quick-mode windows are shorter than W4/W5's largest message,\n"
        "so overload detection saturates there (see EXPERIMENTS.md); use\n"
        "HOMA_BENCH_SCALE=full to resolve the paper's capacity ordering.\n");
    return 0;
}
