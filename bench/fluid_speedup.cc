// Fluid fast-path speedup -> BENCH_fluid.json.
//
// ONE 10k+ host experiment point (the million-host-scale story in
// miniature: a 256-rack x 40-host fat-tree where packet simulation is the
// wall clock), run all-packet and then hybrid with the fluid threshold at
// 20 kB. Both runs are serial — the ratio is the fluid engine's
// point-throughput win, not thread scaling. tools/bench_gates.h holds the
// 10x floor. The hybrid's fidelity (slowdown percentiles within bands of
// the packet run) and the all-packet threshold's byte identity are tier-1
// tests: FluidFidelity.* in tests/test_fluid.cc.
//
//   ./bench_fluid_speedup [output.json]   (default BENCH_fluid.json)
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>

#include "bench_common.h"
#include "driver/sweep_shard.h"

using namespace homa;
using namespace homa::bench;

namespace {

double timedRun(const ExperimentConfig& cfg, ExperimentResult& out) {
    const auto t0 = std::chrono::steady_clock::now();
    out = runExperiment(cfg);
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0)
        .count();
}

}  // namespace

int main(int argc, char** argv) {
    const std::string outPath = argc > 1 ? argv[1] : "BENCH_fluid.json";
    printHeader("Fluid fast path: flow-level speedup at 10k-host scale",
                "hybrid packet/fluid engine (BENCH_fluid.json)");

    constexpr int64_t kThreshold = 20000;
    ExperimentConfig big;
    big.net.racks = 256;
    big.net.hostsPerRack = 40;
    big.proto.kind = Protocol::Homa;
    big.traffic.workload = WorkloadId::W4;
    big.traffic.load = 0.5;
    big.traffic.stop = fullScale() ? milliseconds(4) : milliseconds(1);
    big.parallel.threads = 1;  // serial vs serial: engine win, not threads

    ExperimentResult packetBig, hybridBig;
    ExperimentConfig hybridCfg = big;
    hybridCfg.fluidThresholdBytes = kThreshold;
    const double hybridWall = timedRun(hybridCfg, hybridBig);
    std::printf("%d hosts, load %.2f, fluid >= %lld B: %.2f s hybrid "
                "(%llu fluid flows, %llu packet msgs)\n",
                big.net.hostCount(), big.traffic.load,
                static_cast<long long>(kThreshold), hybridWall,
                static_cast<unsigned long long>(hybridBig.fluid->flows),
                static_cast<unsigned long long>(
                    hybridBig.deliveredTotal - hybridBig.fluid->delivered));
    const double packetWall = timedRun(big, packetBig);
    const double speedup = hybridWall > 0 ? packetWall / hybridWall : 0;
    std::printf("all-packet: %.2f s -> speedup %.1fx\n", packetWall, speedup);

    std::string json = "{\n  \"bench\": \"fluid_speedup\",\n";
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "  \"scale\": \"%s\",\n"
                  "  \"hardware_cores\": %u,\n"
                  "  \"hosts\": %d,\n"
                  "  \"load\": %.2f,\n"
                  "  \"threshold_bytes\": %lld,\n",
                  fullScale() ? "full" : "quick",
                  std::thread::hardware_concurrency(), big.net.hostCount(),
                  big.traffic.load, static_cast<long long>(kThreshold));
    json += buf;
    std::snprintf(buf, sizeof(buf),
                  "  \"wall_seconds_packet\": %.4f,\n"
                  "  \"wall_seconds_hybrid\": %.4f,\n"
                  "  \"speedup\": %.4f,\n"
                  "  \"fluid_flows\": %llu,\n"
                  "  \"fluid_solves\": %llu\n}\n",
                  packetWall, hybridWall, speedup,
                  static_cast<unsigned long long>(hybridBig.fluid->flows),
                  static_cast<unsigned long long>(hybridBig.fluid->solves));
    json += buf;

    if (!writeTextFile(outPath, json)) {
        std::fprintf(stderr, "cannot write %s\n", outPath.c_str());
        return 1;
    }
    std::printf("speedup %.1fx at %d hosts; wrote %s\n", speedup,
                big.net.hostCount(), outPath.c_str());
    return 0;
}
