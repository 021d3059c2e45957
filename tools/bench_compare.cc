// CI perf-regression gate over the BENCH_*.json artifacts.
//
//   bench_compare [--tolerance F] [--skip-missing-current]
//                 <baseline.json> <current.json> [more pairs...]
//   bench_compare --fidelity [--skip-missing-current] <artifact.json> [more...]
//
// Pair mode checks each current artifact against its checked-in baseline
// (bench/baselines/) through every row that tools/bench_gates.h holds for
// the baseline's "bench" field. --fidelity checks bare artifacts through
// the rows that need no baseline. Either way the tool exits 1 when a row
// fails. --tolerance (default 0.15 = 15%) bounds the rows that compare
// with a baseline, so --fidelity rejects it; CI uses a looser value when
// baseline and current come from different machines. An artifact whose bench has no rows fails as
// an "unrecognized schema", so a new BENCH_*.json cannot drop out of CI
// unnoticed.
//
// A row skipped for lack of cores is written back into the current
// artifact ("speedup_gate_skipped": true plus a reason), so downstream
// consumers (artifact uploads, bench_trajectory) see an explicit skip
// instead of a silently ungated number.
//
// Google Benchmark artifacts (bench_micro_sched -> BENCH_sched.json) are
// read per entry: each benchmark's cpu_time must not grow past baseline
// * (1 + tol), the fitted BigO cpu_coefficient likewise, and the
// complexity-class string must not change. The micro benches pin their
// class via ->Complexity(oLogN), so a real complexity regression shows
// in the large-N cpu_time entries and the fitted coefficient, while the
// string equality only guards deliberate re-pinning. Baseline benchmarks
// that disappeared fail; new ones are ignored.
//
// Standard library only — this tool must build with a bare g++ in CI.
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iterator>
#include <map>
#include <string>
#include <vector>

#include "../src/driver/json.h"
#include "bench_gates.h"

namespace {

using homa::json::Json;
using homa::json::loadJson;
using namespace homa::gates;

int failures = 0;

void fail(const char* fmt, ...) {
    std::va_list args;
    va_start(args, fmt);
    std::fputs("FAIL: ", stderr);
    std::vfprintf(stderr, fmt, args);
    std::fputc('\n', stderr);
    va_end(args);
    failures++;
}

/// Records a skipped row inside the compared artifact: inserts
/// "speedup_gate_skipped": true and the reason before the closing brace.
/// Idempotent, and best-effort — a read-only artifact only loses the
/// annotation, not the gate's exit code.
void annotateSkip(const std::string& curPath, const std::string& reason) {
    std::ifstream in(curPath);
    if (!in) return;
    std::string text((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    in.close();
    if (text.find("\"speedup_gate_skipped\"") != std::string::npos) return;
    const size_t brace = text.rfind('}');
    if (brace == std::string::npos) return;
    // Comma unless the object is empty (npos + 1 wraps to 0).
    const size_t last = text.find_last_not_of(" \t\r\n", brace - 1) + 1;
    const bool needComma = last > 0 && text[last - 1] != '{';
    std::string note = needComma ? ",\n" : "\n";
    note += "  \"speedup_gate_skipped\": true,\n";
    note += "  \"speedup_gate_skip_reason\": \"" + reason + "\"\n";
    text = text.substr(0, last) + note + text.substr(brace);
    std::ofstream out(curPath, std::ios::trunc);
    if (!out) return;
    out << text;
}

/// Index google-benchmark entries by name, split by run_type.
std::map<std::string, const Json*> benchmarksByName(const Json& doc,
                                                    const char* runType) {
    std::map<std::string, const Json*> out;
    const Json* list = doc.get("benchmarks");
    if (list == nullptr || list->kind != Json::Array) return out;
    for (const Json& b : list->items) {
        if (b.str("run_type") == runType) out.emplace(b.str("name"), &b);
    }
    return out;
}

void compareGoogleBenchmark(const std::string& basePath, const Json& base,
                            const std::string& curPath, const Json& cur,
                            double tolerance) {
    const auto curIters = benchmarksByName(cur, "iteration");
    for (const auto& [name, b] : benchmarksByName(base, "iteration")) {
        const auto it = curIters.find(name);
        if (it == curIters.end()) {
            fail("%s: benchmark '%s' present in baseline %s but missing",
                 curPath.c_str(), name.c_str(), basePath.c_str());
            continue;
        }
        const double baseTime = b->num("cpu_time");
        const double curTime = it->second->num("cpu_time");
        if (baseTime <= 0) continue;
        const double ratio = curTime / baseTime;
        if (ratio > 1.0 + tolerance) {
            fail("%s: '%s' cpu_time %.1f ns vs baseline %.1f ns "
                 "(%.0f%% slower, tolerance %.0f%%)",
                 curPath.c_str(), name.c_str(), curTime, baseTime,
                 100.0 * (ratio - 1.0), 100.0 * tolerance);
        } else {
            std::printf("ok: %-40s %10.1f ns vs %10.1f ns (%+.1f%%)\n",
                        name.c_str(), curTime, baseTime,
                        100.0 * (ratio - 1.0));
        }
    }
    // BigO aggregates: a complexity regression inflates the fitted
    // coefficient (the fit is dominated by the largest N) far beyond any
    // tolerance.
    const auto curAggr = benchmarksByName(cur, "aggregate");
    for (const auto& [name, b] : benchmarksByName(base, "aggregate")) {
        if (b->str("aggregate_name") != "BigO") continue;
        const auto it = curAggr.find(name);
        if (it == curAggr.end()) {
            fail("%s: BigO aggregate '%s' missing vs baseline",
                 curPath.c_str(), name.c_str());
            continue;
        }
        const std::string baseO = b->str("big_o");
        const std::string curO = it->second->str("big_o");
        if (baseO != curO) {
            fail("%s: '%s' complexity class changed: %s -> %s "
                 "(update bench/baselines/ if intentional)",
                 curPath.c_str(), name.c_str(), baseO.c_str(), curO.c_str());
            continue;
        }
        const double baseCoef = b->num("cpu_coefficient");
        const double curCoef = it->second->num("cpu_coefficient");
        if (baseCoef > 0 && curCoef / baseCoef > 1.0 + tolerance) {
            fail("%s: '%s' fitted %s coefficient %.1f vs baseline %.1f "
                 "(%.0f%% worse, tolerance %.0f%%)",
                 curPath.c_str(), name.c_str(), curO.c_str(), curCoef,
                 baseCoef, 100.0 * (curCoef / baseCoef - 1.0),
                 100.0 * tolerance);
        } else {
            std::printf("ok: %-40s complexity %s, coefficient %.1f\n",
                        name.c_str(), curO.c_str(), curCoef);
        }
    }
}

/// `key`'s number in `doc`, or a failure naming the key and the file.
bool readNumber(const std::string& path, const Json& doc, const char* key,
                double& out) {
    const Json* v = doc.get(key);
    if (v == nullptr || v->kind != Json::Number) {
        fail("%s: '%s' is missing or not a number", path.c_str(), key);
        return false;
    }
    out = v->number;
    return true;
}

/// Applies one row to the current artifact (and, for the rows that need
/// one, its baseline).
void check(const Gate& g, const std::string& curPath, const Json& cur,
           const std::string& basePath, const Json& base, double tolerance) {
    const char* path = curPath.c_str();
    // An artifact that does not record its core count is gated.
    const double cores = cur.num("hardware_cores", g.minCores);
    if (cores < g.minCores) {
        char reason[160];
        std::snprintf(reason, sizeof(reason),
                      "%s %s gate needs >= %d hardware cores, runner had "
                      "%.0f", g.bench, g.key, g.minCores, cores);
        std::printf("skip: %s\n", reason);
        annotateSkip(curPath, reason);
        return;
    }
    if (g.rule == Rule::True) {
        if (!cur.boolean_(g.key, false)) {
            fail("%s: %s is not true — %s", path, g.key, g.reason);
        } else {
            std::printf("ok: %s\n", g.key);
        }
        return;
    }
    double value = 0, other = 0;
    if (!readNumber(curPath, cur, g.key, value)) return;
    if (g.rule == Rule::AtLeast) {
        if (value < g.bound) {
            fail("%s: %s %.3f is below the %gx floor — %s", path, g.key,
                 value, g.bound, g.reason);
        } else {
            std::printf("ok: %s %.3f (floor %g)\n", g.key, value, g.bound);
        }
    } else if (g.rule == Rule::Below) {
        if (!readNumber(curPath, cur, g.than, other)) return;
        if (value >= other) {
            fail("%s: %s %.3f is not strictly below %s %.3f — %s", path,
                 g.key, value, g.than, other, g.reason);
        } else {
            std::printf("ok: %s %.3f < %s %.3f\n", g.key, value, g.than,
                        other);
        }
    } else if (readNumber(basePath, base, g.key, other)) {
        const bool drop = g.rule == Rule::NoDrop;
        if (drop ? value < other * (1.0 - tolerance)
                 : value > other * (1.0 + tolerance)) {
            fail("%s: %s %.3f vs baseline %.3f in %s (%+.0f%%, tolerance "
                 "%.0f%%) — %s", path, g.key, value, other, basePath.c_str(),
                 100.0 * (value / other - 1.0), 100.0 * tolerance, g.reason);
        } else {
            std::printf("ok: %s %.3f vs baseline %.3f\n", g.key, value,
                        other);
        }
    }
}

[[noreturn]] void usage() {
    std::fprintf(stderr,
                 "usage: bench_compare [--tolerance F] "
                 "[--skip-missing-current] "
                 "<baseline.json> <current.json> [more pairs...]\n"
                 "       bench_compare --fidelity [--skip-missing-current] "
                 "<artifact.json> [more...]\n");
    std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
    double tolerance = 0.15;
    bool toleranceSet = false;
    bool skipMissingCurrent = false;
    bool fidelity = false;
    std::vector<std::string> paths;
    for (int i = 1; i < argc; i++) {
        if (std::strcmp(argv[i], "--tolerance") == 0) {
            char* end = nullptr;
            if (i + 1 >= argc) usage();
            tolerance = std::strtod(argv[++i], &end);
            if (end == argv[i] || *end != '\0' || !(tolerance >= 0) ||
                tolerance > 10) {
                usage();
            }
            toleranceSet = true;
        } else if (std::strcmp(argv[i], "--skip-missing-current") == 0) {
            skipMissingCurrent = true;
        } else if (std::strcmp(argv[i], "--fidelity") == 0) {
            fidelity = true;
        } else {
            paths.push_back(argv[i]);
        }
    }
    // Pair mode reads (baseline, current) pairs; --fidelity bare artifacts,
    // and none of its rows reads a tolerance.
    const size_t step = fidelity ? 1 : 2;
    if (paths.empty() || paths.size() % step != 0 ||
        (fidelity && toleranceSet)) {
        usage();
    }

    for (size_t i = 0; i < paths.size(); i += step) {
        const std::string basePath = fidelity ? "" : paths[i];
        const std::string& curPath = paths[i + step - 1];
        // ctest registers the gate against the gitignored bench outputs,
        // which a fresh checkout does not have — skipping (loudly) beats
        // freezing a fallback path at configure time.
        if (skipMissingCurrent && !std::ifstream(curPath)) {
            std::printf("skip: %s not present (benches have not run on "
                        "this machine)\n", curPath.c_str());
            continue;
        }
        Json base, cur;
        if ((!fidelity && !loadJson(basePath, base)) ||
            !loadJson(curPath, cur)) {
            failures++;
            continue;
        }
        if (fidelity) {
            std::printf("--- %s (rows that need no baseline) ---\n",
                        curPath.c_str());
        } else {
            std::printf("--- %s vs baseline %s (tolerance %.0f%%) ---\n",
                        curPath.c_str(), basePath.c_str(), 100.0 * tolerance);
        }
        if (!fidelity && base.get("benchmarks") != nullptr) {
            compareGoogleBenchmark(basePath, base, curPath, cur, tolerance);
            continue;
        }
        const std::string bench = (fidelity ? cur : base).str("bench");
        if (!hasGates(bench)) {
            fail("%s: unrecognized schema '%s' — artifact not gated (add "
                 "its rows to tools/bench_gates.h or drop it)",
                 (fidelity ? curPath : basePath).c_str(), bench.c_str());
            continue;
        }
        for (const Gate& g : kGates) {
            if (bench != g.bench || (fidelity && needsBaseline(g.rule))) {
                continue;
            }
            check(g, curPath, cur, basePath, base, tolerance);
        }
    }
    if (failures > 0) {
        std::fprintf(stderr, "bench_compare: %d failure(s)\n", failures);
        return 1;
    }
    std::printf("bench_compare: every gate holds\n");
    return 0;
}
