// Shared helpers for the figure/table reproduction harnesses.
//
// Each bench binary regenerates one table or figure from the paper's
// evaluation (§5) and prints it as text. `HOMA_BENCH_SCALE=full` switches
// from the quick preset (minutes for the whole suite) to paper-scale
// message counts.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "driver/experiment.h"
#include "driver/sweep.h"
#include "sim/parse.h"
#include "stats/report.h"

namespace homa::bench {

inline bool fullScale() {
    const char* env = std::getenv("HOMA_BENCH_SCALE");
    return env != nullptr && std::strcmp(env, "full") == 0;
}

/// Scenario override for the figure benches: HOMA_SCENARIO takes a spec
/// "<pattern>" or "<pattern>+on-off" (uniform|permutation|rack-skew|
/// incast|pareto|closed-loop|dag); dag also takes parameters
/// ("dag:fanout=40,depth=2"), every other pattern keeps its
/// ScenarioConfig defaults. Trace replay needs an explicit schedule, which
/// the spec grammar cannot carry (the parser rejects it), so it is driven
/// via example_run_experiment --trace instead.
inline ScenarioConfig scenarioFromEnv() {
    ScenarioConfig s;
    const char* env = std::getenv("HOMA_SCENARIO");
    std::string err;
    if (env != nullptr && !scenarioFromSpec(env, s, &err)) {
        std::fprintf(stderr, "HOMA_SCENARIO '%s': %s\n", env, err.c_str());
        std::exit(2);
    }
    if (s.serving.enabled()) {
        std::fprintf(stderr,
                     "HOMA_SCENARIO with tenants: serving scenarios run "
                     "the RPC harness, not the message-level benches; use "
                     "example_run_experiment --tenants / bench_serving "
                     "instead\n");
        std::exit(2);
    }
    if (s.kind == TrafficPatternKind::ClosedLoop ||
        s.kind == TrafficPatternKind::Dag) {
        // These modes set their own rate, so a bench's load axis
        // collapses: points differing only in load run identical
        // experiments.
        std::fprintf(stderr,
                     "note: %s ignores per-point load; rows labelled with "
                     "different loads will coincide\n", patternName(s.kind));
    }
    return s;
}

/// Sweep thread count for the figure benches: HOMA_SWEEP_THREADS, default
/// all cores (SweepRunner's results are identical either way).
inline SweepOptions sweepOptionsFromEnv() {
    SweepOptions opts;
    const char* env = std::getenv("HOMA_SWEEP_THREADS");
    if (env != nullptr) {
        if (!number(env, opts.threads).empty() || opts.threads < 1 ||
            opts.threads > 4096) {
            std::fprintf(stderr,
                         "HOMA_SWEEP_THREADS: expected a thread count, "
                         "got '%s'\n", env);
            std::exit(2);
        }
    }
    return opts;
}

inline void printSweepFooter(const SweepOutcome& sweep) {
    std::printf("sweep: %zu points on %d threads in %.1f s\n\n",
                sweep.results.size(), sweep.threadsUsed, sweep.wallSeconds);
}

/// Traffic generation window for one-way simulation experiments.
inline Duration simWindow() {
    return fullScale() ? milliseconds(150) : milliseconds(8);
}

/// Window for RPC (implementation-style) experiments. Heavy-tailed
/// workloads need longer windows to issue a statistically useful number of
/// RPCs (W5's mean RPC moves ~2.4 MB, so arrivals are ~millisecond-scale).
inline Duration rpcWindow(WorkloadId wl) {
    Duration base;
    switch (wl) {
        case WorkloadId::W4: base = milliseconds(80); break;
        case WorkloadId::W5: base = milliseconds(400); break;
        default: base = milliseconds(25); break;
    }
    return fullScale() ? 8 * base : base;
}

inline void printHeader(const std::string& what, const std::string& paperRef) {
    std::printf("%s", banner(what).c_str());
    std::printf("Reproduces: %s\n", paperRef.c_str());
    std::printf("Scale: %s (set HOMA_BENCH_SCALE=full for paper-scale runs)\n",
                fullScale() ? "full" : "quick");
    const char* scenario = std::getenv("HOMA_SCENARIO");
    if (scenario != nullptr) std::printf("Scenario: %s\n", scenario);
    std::printf("\n");
}

/// Print per-decile slowdown rows for several labelled trackers side by
/// side (the paper's Figures 8/9/12/13 as a table: one column per curve).
inline void printSlowdownTable(
    const SizeDistribution& dist,
    const std::vector<std::pair<std::string, const SlowdownTracker*>>& curves,
    bool tail /* true: p99, false: median */) {
    std::vector<std::string> header{"size<="};
    for (const auto& [name, tracker] : curves) header.push_back(name);
    Table table(header);
    const auto& deciles = dist.deciles();
    std::vector<std::vector<SlowdownRow>> rows;
    rows.reserve(curves.size());
    for (const auto& [name, tracker] : curves) rows.push_back(tracker->rows());
    for (int i = 0; i < 10; i++) {
        std::vector<std::string> row{Table::bytes(deciles[i])};
        for (const auto& r : rows) {
            row.push_back(Table::num(tail ? r[i].p99 : r[i].median));
        }
        table.addRow(std::move(row));
    }
    std::printf("%s\n", table.format().c_str());
}

}  // namespace homa::bench
