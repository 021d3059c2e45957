// The gate table: every rule bench_compare applies to a BENCH_*.json
// artifact, one row each. A new bench is gated by adding its rows here;
// bench_trajectory reads the same table to tell a gated artifact from an
// unknown one. Google Benchmark artifacts (BENCH_sched.json) carry no
// "bench" field and keep their own per-entry reader in bench_compare.
//
// A row whose key is missing from an artifact fails. Rows that compare
// with a baseline run only in pair mode; the rest also run baseline-free
// (bench_compare --fidelity).
//
// Standard library only, like both tools that include it.
#pragma once

#include <string>

namespace homa::gates {

enum class Rule {
    True,     ///< the key is boolean true, at any tolerance
    AtLeast,  ///< the key is at least `bound`
    Below,    ///< the key is strictly below the key named by `than`
    NoDrop,   ///< the key is not below baseline * (1 - tolerance)
    NoRise,   ///< the key is not above baseline * (1 + tolerance)
};

struct Gate {
    const char* bench;  ///< the artifact's "bench" field
    const char* key;
    Rule rule;
    double bound;       ///< AtLeast's floor
    const char* than;   ///< Below's other key
    /// Skip the row (and annotate the artifact) when the current
    /// artifact's hardware_cores is lower; an artifact without the field
    /// is gated.
    int minCores;
    const char* reason;  ///< what a failure means
};

inline constexpr Gate kGates[] = {
    {"sweep_speedup", "results_identical_across_thread_counts", Rule::True,
     0, nullptr, 0, "the parallel sweep runner broke determinism"},
    // A single core time-slices both passes: it measures the scheduler.
    {"sweep_speedup", "speedup", Rule::NoDrop, 0, nullptr, 2,
     "the sweep runner lost parallel throughput"},
    {"parallel_speedup", "results_identical_across_thread_counts",
     Rule::True, 0, nullptr, 0,
     "the parallel simulation engine broke determinism"},
    // The curve's best point runs 4 workers.
    {"parallel_speedup", "speedup", Rule::NoDrop, 0, nullptr, 4,
     "the parallel engine lost throughput"},
    // Hybrid and all-packet runs are both serial on one machine, so the
    // floor holds on any core count.
    {"fluid_speedup", "speedup", Rule::AtLeast, 10, nullptr, 0,
     "the fluid fast path lost its headline speedup"},
    {"fluid_speedup", "speedup", Rule::NoDrop, 0, nullptr, 0,
     "the fluid fast path slowed down"},
    {"serving", "hedge_conservation_holds", Rule::True, 0, nullptr, 0,
     "the serving harness broke its invariants"},
    {"serving", "sweep_identical", Rule::True, 0, nullptr, 0,
     "the serving harness broke its invariants"},
    // A slowdown is at least 1 by definition; a percentile over no
    // completed calls reads 0.
    {"serving", "p2c_p99_slowdown", Rule::AtLeast, 1, nullptr, 0,
     "the p2c run completed no call for the incast tenant"},
    {"serving", "random_p99_slowdown", Rule::AtLeast, 1, nullptr, 0,
     "the random run completed no call for the incast tenant"},
    {"serving", "p2c_p99_slowdown", Rule::Below, 0, "random_p99_slowdown", 0,
     "power-of-two-choices lost its tail win over random selection"},
    {"serving", "p2c_p99_slowdown", Rule::NoRise, 0, nullptr, 0,
     "the p2c tail drifted from the baseline"},
};

inline bool needsBaseline(Rule r) {
    return r == Rule::NoDrop || r == Rule::NoRise;
}

/// True when the table holds rows for `bench`.
inline bool hasGates(const std::string& bench) {
    for (const Gate& g : kGates) {
        if (bench == g.bench) return true;
    }
    return false;
}

}  // namespace homa::gates
