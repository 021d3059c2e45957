// Distributed-sweep work-unit CLI: plan a sharded sweep, merge the
// partial results, verify the merge against a single-machine run.
//
//   sweep_shard plan --sweep NAME --points N --shards K
//               [--base-seed S] [--derive-seeds] [--out manifest.json]
//     Emit a work-unit manifest: which global point indices each shard
//     runs (the positional i % K assignment) and the ready-to-paste
//     --shard=i/K args for the bench binaries. Deterministic: the
//     manifest is a pure function of its flags.
//
//   sweep_shard merge [--manifest manifest.json] [--out merged.json]
//               [--verify-against full.json] <shard.json...>
//     Reassemble shard results files (any order) into one full-coverage
//     results file. Fails on overlapping shards, duplicate or missing
//     points, or header mismatches (different sweep, grid size, seed
//     rule, or shard count); with --manifest, also on shards that do not
//     match the plan. --verify-against compares every per-point
//     fingerprint (and the whole-sweep fingerprint) against another
//     results file — typically an unsharded run — and fails on any
//     difference, which is the distributed-determinism gate CI uses.
//
//   sweep_shard fingerprint <results.json>
//     Print the canonical sweep fingerprint of a results file.
//
// Formats are documented in docs/BENCHMARKS.md and implemented in
// src/driver/sweep_shard.* (this binary links the homa library).
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "driver/sweep_shard.h"
#include "sim/parse.h"

using namespace homa;

namespace {

[[noreturn]] void usage() {
    std::fprintf(stderr,
                 "usage: sweep_shard plan --sweep NAME --points N "
                 "--shards K [--base-seed S] [--derive-seeds] [--out FILE]\n"
                 "       sweep_shard merge [--manifest FILE] [--out FILE] "
                 "[--verify-against FILE] <shard.json...>\n"
                 "       sweep_shard fingerprint <results.json>\n");
    std::exit(2);
}

bool parseU64Flag(const char* text, uint64_t& out) {
    return number(text, out).empty();
}

ShardFile loadShardFileOrDie(const std::string& path) {
    std::string text, err;
    ShardFile f;
    if (!readTextFile(path, text)) {
        std::fprintf(stderr, "sweep_shard: cannot read %s\n", path.c_str());
        std::exit(1);
    }
    if (!parseShardFile(text, f, err)) {
        std::fprintf(stderr, "sweep_shard: %s: %s\n", path.c_str(),
                     err.c_str());
        std::exit(1);
    }
    return f;
}

int cmdPlan(int argc, char** argv) {
    ShardManifest m;
    std::string out;
    bool havePoints = false, haveShards = false;
    for (int i = 0; i < argc; i++) {
        const std::string arg = argv[i];
        auto value = [&]() -> const char* {
            if (i + 1 >= argc) usage();
            return argv[++i];
        };
        if (arg == "--sweep") {
            m.sweep = value();
        } else if (arg == "--points") {
            if (!parseU64Flag(value(), m.totalPoints) ||
                m.totalPoints > kMaxSweepPoints) {
                std::fprintf(stderr,
                             "sweep_shard: --points must be in [0, %llu]\n",
                             static_cast<unsigned long long>(kMaxSweepPoints));
                usage();
            }
            havePoints = true;
        } else if (arg == "--shards") {
            uint64_t k = 0;
            if (!parseU64Flag(value(), k) || k < 1 || k > 1'000'000) usage();
            m.shardCount = static_cast<int>(k);
            haveShards = true;
        } else if (arg == "--base-seed") {
            if (!parseU64Flag(value(), m.baseSeed)) usage();
        } else if (arg == "--derive-seeds") {
            m.deriveSeeds = true;
        } else if (arg == "--out") {
            out = value();
        } else {
            usage();
        }
    }
    if (m.sweep.empty() || !havePoints || !haveShards) usage();
    const std::string text = writeShardManifest(m);
    if (out.empty()) {
        std::fputs(text.c_str(), stdout);
    } else if (!writeTextFile(out, text)) {
        std::fprintf(stderr, "sweep_shard: cannot write %s\n", out.c_str());
        return 1;
    } else {
        std::printf("wrote %s: %llu points over %d shards\n", out.c_str(),
                    static_cast<unsigned long long>(m.totalPoints),
                    m.shardCount);
    }
    return 0;
}

int cmdMerge(int argc, char** argv) {
    std::string out, manifestPath, verifyPath;
    std::vector<std::string> inputs;
    for (int i = 0; i < argc; i++) {
        const std::string arg = argv[i];
        auto value = [&]() -> const char* {
            if (i + 1 >= argc) usage();
            return argv[++i];
        };
        if (arg == "--out") {
            out = value();
        } else if (arg == "--manifest") {
            manifestPath = value();
        } else if (arg == "--verify-against") {
            verifyPath = value();
        } else if (!arg.empty() && arg[0] == '-') {
            usage();
        } else {
            inputs.push_back(arg);
        }
    }
    if (inputs.empty()) usage();

    std::vector<ShardFile> shards;
    shards.reserve(inputs.size());
    for (const std::string& path : inputs) {
        shards.push_back(loadShardFileOrDie(path));
    }

    std::string err;
    if (!manifestPath.empty()) {
        std::string text;
        ShardManifest m;
        if (!readTextFile(manifestPath, text)) {
            std::fprintf(stderr, "sweep_shard: cannot read %s\n",
                         manifestPath.c_str());
            return 1;
        }
        if (!parseShardManifest(text, m, err)) {
            std::fprintf(stderr, "sweep_shard: %s: %s\n",
                         manifestPath.c_str(), err.c_str());
            return 1;
        }
        for (size_t k = 0; k < shards.size(); k++) {
            if (!shardMatchesManifest(m, shards[k], err)) {
                std::fprintf(stderr, "sweep_shard: %s: %s\n",
                             inputs[k].c_str(), err.c_str());
                return 1;
            }
        }
    }

    ShardFile merged;
    if (!mergeShardFiles(shards, merged, err)) {
        std::fprintf(stderr, "sweep_shard: merge failed: %s\n", err.c_str());
        return 1;
    }
    const std::string fp = sweepFingerprint(merged.points);
    std::printf("merged %zu shard files: sweep \"%s\", %zu points, "
                "fingerprint %s\n", shards.size(), merged.sweep.c_str(),
                merged.points.size(), fp.c_str());

    if (!verifyPath.empty()) {
        const ShardFile ref = loadShardFileOrDie(verifyPath);
        if (!sweepsIdentical(merged, ref, err)) {
            std::fprintf(stderr,
                         "sweep_shard: verify: %s\n"
                         "sweep_shard: merged sweep is NOT byte-identical "
                         "to %s\n", err.c_str(), verifyPath.c_str());
            return 1;
        }
        std::printf("verify: merged sweep identical to %s "
                    "(fingerprint %s)\n", verifyPath.c_str(), fp.c_str());
    }

    if (!out.empty()) {
        if (!writeTextFile(out,
                           writeShardFile(merged, benchCompatExtras(merged)))) {
            std::fprintf(stderr, "sweep_shard: cannot write %s\n",
                         out.c_str());
            return 1;
        }
        std::printf("wrote %s\n", out.c_str());
    }
    return 0;
}

int cmdFingerprint(int argc, char** argv) {
    if (argc != 1) usage();
    const ShardFile f = loadShardFileOrDie(argv[0]);
    std::printf("%s\n", sweepFingerprint(f.points).c_str());
    return 0;
}

}  // namespace

int main(int argc, char** argv) {
    if (argc < 2) usage();
    const std::string cmd = argv[1];
    if (cmd == "plan") return cmdPlan(argc - 2, argv + 2);
    if (cmd == "merge") return cmdMerge(argc - 2, argv + 2);
    if (cmd == "fingerprint") return cmdFingerprint(argc - 2, argv + 2);
    usage();
}
