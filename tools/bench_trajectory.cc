// Benchmark trend report: fold a directory of historical BENCH_*.json
// artifacts into one markdown trajectory table per artifact.
//
//   bench_trajectory <history_dir> <output.md>
//
// <history_dir> holds one subdirectory per CI run (lexicographic order =
// chronological — CI names them run-<zero-padded run number>); each run
// directory is searched recursively for BENCH_*.json files, so both flat
// layouts and `gh run download`'s artifact-name subdirectories work.
// For every artifact name seen anywhere in the history the report shows
// a runs-down table of its headline metrics with per-run deltas, plus a
// first-to-last summary — the long-horizon view a single-baseline
// regression gate (bench_compare) cannot give. Runs where a speedup
// gate was skipped (core-starved runner; bench_compare writes the
// "speedup_gate_skipped" annotation) are marked, not silently mixed in.
//
// Metrics: artifacts with a "bench" field contribute every numeric
// top-level field; google-benchmark artifacts contribute per-benchmark
// cpu_time (capped at 6 columns — the report says what was dropped). A
// missing artifact in some run shows as "—". An artifact whose bench has
// no rows in the gate table (tools/bench_gates.h) gets a per-file
// "unrecognized schema" warning on stderr plus a note in the report, so
// an ungated artifact never passes as a tracked one.
//
// Standard library only — this tool must build with a bare g++ in CI.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "../src/driver/json.h"
#include "bench_gates.h"

namespace fs = std::filesystem;
using homa::json::Json;
using homa::json::loadJson;

namespace {

/// Ordered headline metrics of one artifact instance.
using Metrics = std::vector<std::pair<std::string, double>>;

struct ArtifactRun {
    Metrics metrics;
    bool present = false;
    bool gateSkipped = false;
    std::string skipReason;
};

/// The artifact's headline metrics: per-benchmark cpu_time for Google
/// Benchmark output (capped at 6 columns), else every numeric top-level
/// field.
Metrics extractMetrics(const Json& doc, int& droppedColumns) {
    Metrics out;
    const Json* list = doc.get("benchmarks");
    if (list == nullptr || list->kind != Json::Array) {
        for (const auto& [key, v] : doc.fields) {
            if (v.kind == Json::Number) out.emplace_back(key, v.number);
        }
        return out;
    }
    for (const Json& b : list->items) {
        if (b.str("run_type") != "iteration") continue;
        if (out.size() >= 6) {
            droppedColumns++;
            continue;
        }
        out.emplace_back(b.str("name") + " cpu ns", b.num("cpu_time"));
    }
    return out;
}

std::string fmtValue(double v) {
    char buf[64];
    if (v == 0 || (std::abs(v) >= 0.01 && std::abs(v) < 100000)) {
        std::snprintf(buf, sizeof(buf), "%.3f", v);
    } else {
        std::snprintf(buf, sizeof(buf), "%.3g", v);
    }
    return buf;
}

std::string fmtDelta(double cur, double prev) {
    if (prev == 0) return "—";
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%+.1f%%", 100.0 * (cur / prev - 1.0));
    return buf;
}

}  // namespace

int main(int argc, char** argv) {
    if (argc != 3) {
        std::fprintf(stderr,
                     "usage: bench_trajectory <history_dir> <output.md>\n");
        return 2;
    }
    const fs::path historyDir = argv[1];
    const std::string outPath = argv[2];
    std::error_code ec;
    if (!fs::is_directory(historyDir, ec)) {
        std::fprintf(stderr, "bench_trajectory: %s is not a directory\n",
                     historyDir.string().c_str());
        return 2;
    }

    std::vector<std::string> runs;
    for (const fs::directory_entry& e : fs::directory_iterator(historyDir)) {
        if (e.is_directory()) runs.push_back(e.path().filename().string());
    }
    std::sort(runs.begin(), runs.end());
    if (runs.empty()) {
        std::fprintf(stderr, "bench_trajectory: no run directories in %s\n",
                     historyDir.string().c_str());
        return 2;
    }

    // artifact name -> per-run series (indexed like `runs`).
    std::map<std::string, std::vector<ArtifactRun>> series;
    int droppedColumns = 0;
    int parseFailures = 0;
    int unrecognized = 0;
    for (size_t r = 0; r < runs.size(); r++) {
        for (const fs::directory_entry& e :
             fs::recursive_directory_iterator(historyDir / runs[r])) {
            const std::string name = e.path().filename().string();
            if (!e.is_regular_file() || name.rfind("BENCH_", 0) != 0 ||
                e.path().extension() != ".json") {
                continue;
            }
            Json doc;
            if (!loadJson(e.path().string(), doc)) {
                parseFailures++;
                continue;
            }
            std::vector<ArtifactRun>& runsOf = series[name];
            runsOf.resize(runs.size());
            ArtifactRun& slot = runsOf[r];
            slot.present = true;
            slot.metrics = extractMetrics(doc, droppedColumns);
            if (doc.get("benchmarks") == nullptr &&
                !homa::gates::hasGates(doc.str("bench"))) {
                std::fprintf(stderr,
                             "bench_trajectory: %s: unrecognized schema — "
                             "no rows in tools/bench_gates.h\n",
                             e.path().string().c_str());
                unrecognized++;
            }
            slot.gateSkipped = doc.boolean_("speedup_gate_skipped", false);
            slot.skipReason = doc.str("speedup_gate_skip_reason");
        }
    }
    if (series.empty()) {
        std::fprintf(stderr,
                     "bench_trajectory: no BENCH_*.json artifacts under "
                     "%s\n", historyDir.string().c_str());
        return 2;
    }

    std::string md = "# Benchmark trajectory\n\n";
    md += std::to_string(runs.size()) +
          " run(s), oldest first. Deltas are vs the previous run carrying "
          "the metric.\n";
    if (parseFailures > 0) {
        md += "\n> " + std::to_string(parseFailures) +
              " artifact file(s) failed to parse and were dropped.\n";
    }
    if (unrecognized > 0) {
        md += "\n> " + std::to_string(unrecognized) +
              " artifact file(s) had an unrecognized schema (no rows in "
              "tools/bench_gates.h); their numbers were never gated.\n";
    }

    for (const auto& [artifact, perRun] : series) {
        md += "\n## " + artifact + "\n\n";
        // Column set: union of metric names, first-seen order.
        std::vector<std::string> columns;
        for (const ArtifactRun& ar : perRun) {
            for (const auto& metric : ar.metrics) {
                if (std::find(columns.begin(), columns.end(), metric.first) ==
                    columns.end()) {
                    columns.push_back(metric.first);
                }
            }
        }
        md += "| run |";
        for (const std::string& c : columns) md += " " + c + " | Δ |";
        md += " gate |\n|---|";
        for (size_t i = 0; i < columns.size(); i++) md += "---|---|";
        md += "---|\n";

        std::map<std::string, double> prev;  // last seen value per column
        std::map<std::string, double> first;
        for (size_t r = 0; r < perRun.size(); r++) {
            const ArtifactRun& ar = perRun[r];
            md += "| " + runs[r] + " |";
            for (const std::string& c : columns) {
                const auto it = std::find_if(
                    ar.metrics.begin(), ar.metrics.end(),
                    [&](const auto& kv) { return kv.first == c; });
                if (!ar.present || it == ar.metrics.end()) {
                    md += " — | — |";
                    continue;
                }
                md += " " + fmtValue(it->second) + " |";
                md += prev.count(c) != 0
                          ? " " + fmtDelta(it->second, prev[c]) + " |"
                          : " — |";
                prev[c] = it->second;
                first.emplace(c, it->second);
            }
            if (!ar.present) {
                md += " — |\n";
            } else if (ar.gateSkipped) {
                md += " skipped";
                if (!ar.skipReason.empty()) md += " (" + ar.skipReason + ")";
                md += " |\n";
            } else {
                md += " gated |\n";
            }
        }
        for (const std::string& c : columns) {
            if (first.count(c) != 0 && prev.count(c) != 0 &&
                first[c] != prev[c]) {
                md += "\nOver the window, " + c + ": " +
                      fmtValue(first[c]) + " → " + fmtValue(prev[c]) +
                      " (" + fmtDelta(prev[c], first[c]) + ").\n";
            }
        }
    }
    if (droppedColumns > 0) {
        md += "\n> " + std::to_string(droppedColumns) +
              " google-benchmark series dropped beyond the 6-column cap.\n";
    }

    std::ofstream out(outPath, std::ios::trunc);
    if (!out) {
        std::fprintf(stderr, "bench_trajectory: cannot write %s\n",
                     outPath.c_str());
        return 1;
    }
    out << md;
    std::printf("wrote %s: %zu artifact(s) across %zu run(s)\n",
                outPath.c_str(), series.size(), runs.size());
    return 0;
}
