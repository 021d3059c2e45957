// Parallel sweep running: fan a vector of experiment points across a
// thread pool.
//
// Every figure bench is a load x workload x protocol (x scenario) sweep;
// each point is an independent simulation with its own Network and
// EventLoop, so points parallelize perfectly. The contract that makes the
// parallelism trustworthy: results are byte-identical whatever the thread
// count (including 1), because each point's outcome depends only on its
// own ExperimentConfig — there is no shared mutable state between runs
// (the workload singletons' caches are built under a once_flag), and
// results are collected into the input order, not completion order.
//
// Seed derivation rule: when `deriveSeeds` is set, point i runs with
//   seed_i = deriveSweepSeed(baseSeed, i)
// (a SplitMix64 finalizer over baseSeed + (i+1)*golden-gamma). Seeds are a
// pure function of (baseSeed, index): re-running a sweep, resuming a
// prefix, or running points one at a time by hand reproduces the same
// experiments.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "driver/experiment.h"
#include "driver/rpc_experiment.h"

namespace homa {

/// Deterministic per-point seed: SplitMix64 finalizer over
/// base + (index+1) * 0x9E3779B97F4A7C15 (the golden-ratio gamma).
uint64_t deriveSweepSeed(uint64_t base, uint64_t index);

struct SweepOptions {
    /// Worker threads; <= 0 means std::thread::hardware_concurrency().
    int threads = 0;
    /// Overwrite each point's traffic.seed with deriveSweepSeed(baseSeed, i).
    bool deriveSeeds = false;
    uint64_t baseSeed = 99;
    /// > 0: override every point's parallel.threads, composing point-level
    /// fan-out with the shard-level parallel engine (sim/parallel.h). Total
    /// concurrency is then up to threads * simThreads; results stay
    /// byte-identical either way, so the split is purely a throughput knob
    /// (many small points: sweep threads; few huge points: sim threads).
    /// runRpcSweep rejects it: the RPC harness always runs one shard.
    int simThreads = 0;
};

struct SweepOutcome {
    /// results[i] corresponds to points[i], regardless of thread count.
    std::vector<ExperimentResult> results;
    double wallSeconds = 0;
    int threadsUsed = 1;
};

/// One machine's slice of a distributed sweep: shard `index` of `count`.
///
/// The point-to-shard assignment is deterministic and positional — shard
/// k owns every global point index i with `i % count == k` (round-robin,
/// so a grid whose expensive points cluster at one end still spreads
/// them across shards). Because the assignment and the per-point seed
/// derivation are both pure functions of the global index, a sharded run
/// executes byte-for-byte the same experiments a single-machine run
/// would, whatever the shard count.
struct ShardSpec {
    int index = 0;  ///< 0-based shard id, in [0, count).
    int count = 1;  ///< Total number of shards (>= 1).
};

/// Returns nullptr when `s` is valid, else a static string describing
/// the problem (count < 1, or index outside [0, count)).
const char* validateShardSpec(const ShardSpec& s);

/// Parses "i/N" (e.g. "0/3") into a ShardSpec; returns false — leaving
/// `out` untouched — on malformed text or a spec validateShardSpec
/// rejects. The grammar matches the benches' --shard=i/N flag.
bool parseShardSpec(const std::string& text, ShardSpec& out);

/// True when shard `s` owns global point index `pointIndex`
/// (pointIndex % count == index).
bool shardOwns(const ShardSpec& s, uint64_t pointIndex);

/// The ascending global indices shard `s` owns out of `totalPoints`.
std::vector<uint64_t> shardPointIndices(const ShardSpec& s,
                                        uint64_t totalPoints);

/// The slice of a sweep one shard ran. `indices[k]` is the global point
/// index of `results[k]`/`seeds[k]`; indices are ascending. A shard of a
/// larger grid than it has points (count > totalPoints) is legitimately
/// empty.
struct ShardOutcome {
    std::vector<uint64_t> indices;          ///< global indices, ascending
    std::vector<ExperimentResult> results;  ///< results[k] ~ indices[k]
    std::vector<uint64_t> seeds;            ///< effective traffic.seed per run
    uint64_t totalPoints = 0;               ///< size of the full grid
    double wallSeconds = 0;
    int threadsUsed = 1;
};

/// Fans a vector of experiment points across a thread pool; results are
/// byte-identical whatever the thread count (see the file comment for the
/// contract that makes this trustworthy). Every sweep entry point checks
/// all its points before running any and throws std::invalid_argument
/// ("sweep point <i>: <reason>", i indexing the points it runs) on the
/// caller's thread.
class SweepRunner {
public:
    explicit SweepRunner(SweepOptions opts = {}) : opts_(opts) {}

    /// Run every point; results[i] always corresponds to points[i].
    SweepOutcome run(std::vector<ExperimentConfig> points) const;

    /// Run only the points `shard` owns, with the exact per-point seeds
    /// the full grid would use: seed derivation (when
    /// SweepOptions::deriveSeeds is set) happens over *global* indices
    /// before the slice is taken, so `results[k]` is byte-identical to
    /// `run(points).results[indices[k]]`. Merging every shard's outcome
    /// in index order therefore reproduces the single-machine sweep
    /// bit-for-bit (see sweep_shard.h for the file format + merge).
    ShardOutcome runShard(std::vector<ExperimentConfig> points,
                          const ShardSpec& shard) const;

private:
    SweepOptions opts_;
};

/// RPC-harness sweep: the serving/dag/echo sibling of SweepRunner::run,
/// on the same pool with the same contract — results[i] corresponds to
/// points[i] whatever the thread count, and SweepOptions::deriveSeeds
/// overwrites point i's `seed` with deriveSweepSeed(baseSeed, i) so a
/// width-N sweep runs the exact experiments N width-1 sweeps would.
struct RpcSweepOutcome {
    std::vector<RpcExperimentResult> results;
    double wallSeconds = 0;
    int threadsUsed = 1;
};

RpcSweepOutcome runRpcSweep(std::vector<RpcExperimentConfig> points,
                            const SweepOptions& opts = {});

/// Canonical serialization of everything an ExperimentResult measures
/// (counts, per-decile slowdown rows, utilization, queues, drops), with
/// doubles printed as hex floats. Two results are byte-identical iff their
/// fingerprints are equal — the determinism tests and the sweep bench diff
/// these across runs and thread counts.
std::string resultFingerprint(const ExperimentResult& r);

}  // namespace homa
