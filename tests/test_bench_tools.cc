// Subprocess tests for the CI bench tooling: bench_compare's gate rows
// (tools/bench_gates.h) in pair and baseline-free mode plus the
// skip-annotation write-back, and bench_trajectory's history folding.
// These exec the real binaries the CI workflow runs, against artifacts
// written to the test temp dir and the checked-in fixtures under
// bench/baselines/testdata/.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

namespace homa {
namespace {

#if defined(HOMA_BENCH_COMPARE_BIN) && defined(HOMA_BENCH_TRAJECTORY_BIN)

std::string tempPath(const std::string& name) {
    return ::testing::TempDir() + name;
}

void writeFile(const std::string& path, const std::string& text) {
    std::ofstream out(path, std::ios::trunc);
    ASSERT_TRUE(out) << path;
    out << text;
}

std::string readFile(const std::string& path) {
    std::ifstream in(path);
    std::stringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

size_t countOf(const std::string& text, const std::string& needle) {
    size_t n = 0;
    for (size_t at = text.find(needle); at != std::string::npos;
         at = text.find(needle, at + 1)) {
        n++;
    }
    return n;
}

/// Runs `bin args`, returns the exit status and captures stdout+stderr.
int runTool(const std::string& bin, const std::string& args,
            std::string* output = nullptr) {
    const std::string cmd = bin + " " + args + " 2>&1";
    FILE* pipe = popen(cmd.c_str(), "r");
    EXPECT_NE(pipe, nullptr);
    if (pipe == nullptr) return -1;
    std::string out;
    char buf[512];
    while (fgets(buf, sizeof buf, pipe) != nullptr) out += buf;
    const int status = pclose(pipe);
    if (output != nullptr) *output = out;
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

const std::string kSweepBaseline = R"({
  "bench": "sweep_speedup",
  "hardware_cores": 8,
  "speedup": 3.0,
  "results_identical_across_thread_counts": true
})";

TEST(BenchCompareCli, AnnotatesSkippedSpeedupGateIntoTheArtifact) {
    const std::string base = tempPath("skipgate_base.json");
    const std::string cur = tempPath("skipgate_cur.json");
    writeFile(base, kSweepBaseline);
    writeFile(cur, R"({
  "bench": "sweep_speedup",
  "hardware_cores": 1,
  "speedup": 0.8,
  "results_identical_across_thread_counts": true
})");
    // The starved runner passes (skip, not silent failure)...
    EXPECT_EQ(runTool(HOMA_BENCH_COMPARE_BIN, base + " " + cur), 0);
    // ...but the skip is now recorded in the artifact itself.
    const std::string annotated = readFile(cur);
    EXPECT_NE(annotated.find("\"speedup_gate_skipped\": true"),
              std::string::npos) << annotated;
    EXPECT_NE(annotated.find("hardware cores"), std::string::npos);
    // Idempotent: a second compare does not stack annotations.
    EXPECT_EQ(runTool(HOMA_BENCH_COMPARE_BIN, base + " " + cur), 0);
    EXPECT_EQ(countOf(readFile(cur), "speedup_gate_skipped"), 1u);
}

TEST(BenchCompareCli, GatedRunnerIsNotAnnotated) {
    const std::string base = tempPath("nogate_base.json");
    const std::string cur = tempPath("nogate_cur.json");
    writeFile(base, kSweepBaseline);
    writeFile(cur, kSweepBaseline);
    EXPECT_EQ(runTool(HOMA_BENCH_COMPARE_BIN, base + " " + cur), 0);
    EXPECT_EQ(readFile(cur).find("speedup_gate_skipped"),
              std::string::npos);
}

const std::string kFluidArtifact = R"({
  "bench": "fluid_speedup",
  "hardware_cores": 8,
  "hosts": 10240,
  "speedup": 14.6
})";

TEST(BenchCompareCli, FluidGateEnforcesTheSpeedupFloor) {
    const std::string base = tempPath("fluid_base.json");
    const std::string cur = tempPath("fluid_cur.json");
    writeFile(base, kFluidArtifact);
    writeFile(cur, kFluidArtifact);
    EXPECT_EQ(runTool(HOMA_BENCH_COMPARE_BIN, base + " " + cur), 0);
    // Same artifact, speedup below the floor: fails at any tolerance.
    std::string slow = kFluidArtifact;
    slow.replace(slow.find("14.6"), 4, "08.1");
    writeFile(cur, slow);
    std::string out;
    EXPECT_EQ(runTool(HOMA_BENCH_COMPARE_BIN,
                      "--tolerance 9 " + base + " " + cur, &out), 1);
    EXPECT_NE(out.find("below the 10x floor"), std::string::npos) << out;
}

TEST(BenchCompareCli, FidelityModePassesHealthyAndFailsDegraded) {
    const std::string healthy = tempPath("fid_ok.json");
    writeFile(healthy, kFluidArtifact);
    EXPECT_EQ(runTool(HOMA_BENCH_COMPARE_BIN, "--fidelity " + healthy), 0);
    // The speedup floor needs no baseline, so it gates here too.
    std::string degraded = kFluidArtifact;
    degraded.replace(degraded.find("14.6"), 4, "08.1");
    const std::string bad = tempPath("fid_bad.json");
    writeFile(bad, degraded);
    std::string out;
    EXPECT_EQ(runTool(HOMA_BENCH_COMPARE_BIN, "--fidelity " + bad, &out), 1);
    EXPECT_NE(out.find("below the 10x floor"), std::string::npos) << out;
}

// A healthy serving artifact matching the BENCH_serving.json schema.
const std::string kServingArtifact = R"({
  "bench": "serving",
  "hardware_cores": 8,
  "hosts": 16,
  "tenants": 3,
  "p2c_p99_slowdown": 1.85,
  "random_p99_slowdown": 1.96,
  "tail_win": 1.06,
  "hedges_issued": 100,
  "hedges_won": 40,
  "hedges_cancelled": 60,
  "hedges_failed": 0,
  "hedge_conservation_holds": true,
  "sweep_identical": true
})";

TEST(BenchCompareCli, ServingGateRequiresTheStrictTailWin) {
    const std::string base = tempPath("serving_base.json");
    const std::string cur = tempPath("serving_cur.json");
    writeFile(base, kServingArtifact);
    writeFile(cur, kServingArtifact);
    EXPECT_EQ(runTool(HOMA_BENCH_COMPARE_BIN, base + " " + cur), 0);
    // p2c p99 >= random p99: the headline claim fails at any tolerance.
    std::string lost = kServingArtifact;
    lost.replace(lost.find("\"p2c_p99_slowdown\": 1.85"),
                 std::string("\"p2c_p99_slowdown\": 1.85").size(),
                 "\"p2c_p99_slowdown\": 2.10");
    writeFile(cur, lost);
    std::string out;
    EXPECT_EQ(runTool(HOMA_BENCH_COMPARE_BIN,
                      "--tolerance 9 " + base + " " + cur, &out), 1);
    EXPECT_NE(out.find("not strictly below random"), std::string::npos)
        << out;
}

TEST(BenchCompareCli, ServingGateHardFailsOnBrokenInvariantFlags) {
    const std::string base = tempPath("serving_flag_base.json");
    const std::string cur = tempPath("serving_flag_cur.json");
    writeFile(base, kServingArtifact);
    for (const char* flag : {"hedge_conservation_holds", "sweep_identical"}) {
        std::string broken = kServingArtifact;
        const std::string on = std::string("\"") + flag + "\": true";
        broken.replace(broken.find(on), on.size(),
                       std::string("\"") + flag + "\": false");
        writeFile(cur, broken);
        std::string out;
        EXPECT_EQ(runTool(HOMA_BENCH_COMPARE_BIN,
                          "--tolerance 9 " + base + " " + cur, &out), 1)
            << flag;
        EXPECT_NE(out.find(flag), std::string::npos) << out;
        EXPECT_NE(out.find("broke its invariants"), std::string::npos)
            << out;
    }
}

TEST(BenchCompareCli, ServingGateBoundsBaselineDrift) {
    const std::string base = tempPath("serving_drift_base.json");
    const std::string cur = tempPath("serving_drift_cur.json");
    writeFile(base, kServingArtifact);
    // Still strictly below random, but 30% above the baseline tail.
    std::string drifted = kServingArtifact;
    drifted.replace(drifted.find("\"p2c_p99_slowdown\": 1.85"),
                    std::string("\"p2c_p99_slowdown\": 1.85").size(),
                    "\"p2c_p99_slowdown\": 1.95");
    drifted.replace(drifted.find("\"random_p99_slowdown\": 1.96"),
                    std::string("\"random_p99_slowdown\": 1.96").size(),
                    "\"random_p99_slowdown\": 3.00");
    writeFile(cur, drifted);
    std::string out;
    EXPECT_EQ(runTool(HOMA_BENCH_COMPARE_BIN,
                      "--tolerance 0.02 " + base + " " + cur, &out), 1);
    EXPECT_NE(out.find("vs baseline"), std::string::npos) << out;
    // The same pair passes at the default 15% tolerance (1.95/1.85 ≈ 5%).
    EXPECT_EQ(runTool(HOMA_BENCH_COMPARE_BIN, base + " " + cur), 0);
}

TEST(BenchCompareCli, ServingFidelityModeIsSelfContained) {
    const std::string healthy = tempPath("serving_fid.json");
    writeFile(healthy, kServingArtifact);
    EXPECT_EQ(runTool(HOMA_BENCH_COMPARE_BIN, "--fidelity " + healthy), 0);
    // The checked-in degraded fixture trips three distinct gates.
    std::string out;
    EXPECT_EQ(runTool(HOMA_BENCH_COMPARE_BIN,
                      "--fidelity " + std::string(HOMA_TESTDATA_DIR) +
                          "/BENCH_serving_degraded.json", &out), 1);
    EXPECT_NE(out.find("hedge_conservation_holds"), std::string::npos) << out;
    EXPECT_NE(out.find("sweep_identical"), std::string::npos) << out;
    EXPECT_NE(out.find("not strictly below random"), std::string::npos)
        << out;
}

TEST(BenchCompareCli, ServingGateFailsARunThatCompletedNoCall) {
    // A percentile over no samples reads 0: below random and never above
    // the baseline, so only the slowdown floor of 1 catches it.
    const std::string base = tempPath("serving_empty_base.json");
    const std::string cur = tempPath("serving_empty_cur.json");
    writeFile(base, kServingArtifact);
    for (const std::string field : {"\"p2c_p99_slowdown\": 1.85",
                                     "\"random_p99_slowdown\": 1.96"}) {
        std::string empty = kServingArtifact;
        empty.replace(empty.find(field), field.size(),
                      field.substr(0, field.find(':')) + ": 0");
        writeFile(cur, empty);
        std::string out;
        EXPECT_EQ(runTool(HOMA_BENCH_COMPARE_BIN, base + " " + cur, &out), 1)
            << field;
        EXPECT_NE(out.find("completed no call"), std::string::npos) << out;
        EXPECT_EQ(runTool(HOMA_BENCH_COMPARE_BIN, "--fidelity " + cur), 1)
            << field;
    }
}

TEST(BenchCompareCli, FidelityModeRejectsATolerance) {
    // No baseline-free row reads a tolerance, so passing one is an error.
    const std::string healthy = tempPath("serving_fid_tol.json");
    writeFile(healthy, kServingArtifact);
    EXPECT_EQ(runTool(HOMA_BENCH_COMPARE_BIN,
                      "--fidelity --tolerance 0.5 " + healthy), 2);
}

TEST(BenchCompareCli, UnrecognizedSchemaIsAFailureNotASilentSkip) {
    // A new BENCH_*.json with a schema the gate does not know must fail
    // loudly in both modes — this is how BENCH_serving.json was added
    // without being silently dropped, and how the next artifact will be.
    const std::string mystery = tempPath("mystery.json");
    writeFile(mystery, R"({"bench": "mystery", "metric": 1.0})");
    std::string out;
    EXPECT_EQ(runTool(HOMA_BENCH_COMPARE_BIN,
                      mystery + " " + mystery, &out), 1);
    EXPECT_NE(out.find("unrecognized schema 'mystery'"), std::string::npos)
        << out;
    EXPECT_EQ(runTool(HOMA_BENCH_COMPARE_BIN, "--fidelity " + mystery, &out),
              1);
    EXPECT_NE(out.find("unrecognized schema 'mystery'"), std::string::npos)
        << out;
}

TEST(BenchCompareCli, AMissingKeyFailsAndNamesTheKey) {
    // A row whose key is absent cannot pass: a baseline that lost its
    // speedup must not wave through a current speedup of 0.01.
    const std::string base = tempPath("missing_base.json");
    const std::string cur = tempPath("missing_cur.json");
    writeFile(base, R"({
  "bench": "sweep_speedup",
  "results_identical_across_thread_counts": true
})");
    writeFile(cur, R"({
  "bench": "sweep_speedup",
  "speedup": 0.01,
  "results_identical_across_thread_counts": true
})");
    std::string out;
    EXPECT_EQ(runTool(HOMA_BENCH_COMPARE_BIN, base + " " + cur, &out), 1);
    EXPECT_NE(out.find("'speedup' is missing"), std::string::npos) << out;

    // Same for the serving tail: the drift row needs the baseline's p2c.
    std::string noTail = kServingArtifact;
    const std::string p2c = "\"p2c_p99_slowdown\": 1.85,";
    noTail.erase(noTail.find(p2c), p2c.size());
    writeFile(base, noTail);
    writeFile(cur, kServingArtifact);
    EXPECT_EQ(runTool(HOMA_BENCH_COMPARE_BIN, base + " " + cur, &out), 1);
    EXPECT_NE(out.find("'p2c_p99_slowdown' is missing"), std::string::npos)
        << out;
}

TEST(BenchTrajectoryCli, FoldsRunHistoryIntoAMarkdownReport) {
    const std::string out = tempPath("BENCH_trajectory.md");
    EXPECT_EQ(runTool(HOMA_BENCH_TRAJECTORY_BIN,
                      std::string(HOMA_TESTDATA_DIR) + "/trajectory " + out),
              0);
    const std::string md = readFile(out);
    // Both fixture artifacts, in both layouts (flat and artifact subdir).
    EXPECT_NE(md.find("## BENCH_fluid.json"), std::string::npos) << md;
    EXPECT_NE(md.find("## BENCH_sweep.json"), std::string::npos) << md;
    // Deltas vs the previous run, and the recorded gate skip surfaced.
    EXPECT_NE(md.find("+10.6%"), std::string::npos) << md;
    EXPECT_NE(md.find("skipped"), std::string::npos) << md;
}

TEST(BenchTrajectoryCli, ServingMetricsAppearAndMysterySchemasWarn) {
    // Build a one-run history holding a serving artifact plus an
    // unknown-schema artifact: the serving headline columns must render,
    // and the mystery file must draw the per-file warning and the report
    // note — never a silent empty row.
    const std::string history = tempPath("trajectory_serving");
    ASSERT_EQ(std::system(("rm -rf " + history + " && mkdir -p " + history +
                           "/run-001").c_str()), 0);
    writeFile(history + "/run-001/BENCH_serving.json", kServingArtifact);
    writeFile(history + "/run-001/BENCH_mystery.json",
              R"({"bench": "mystery", "metric": 1.0})");
    const std::string md = tempPath("trajectory_serving.md");
    std::string out;
    EXPECT_EQ(runTool(HOMA_BENCH_TRAJECTORY_BIN, history + " " + md, &out),
              0);
    EXPECT_NE(out.find("BENCH_mystery.json: unrecognized schema"),
              std::string::npos) << out;
    const std::string report = readFile(md);
    EXPECT_NE(report.find("## BENCH_serving.json"), std::string::npos)
        << report;
    EXPECT_NE(report.find("p2c_p99_slowdown"), std::string::npos) << report;
    EXPECT_NE(report.find("tail_win"), std::string::npos) << report;
    EXPECT_NE(report.find("1 artifact file(s) had an unrecognized schema"),
              std::string::npos) << report;
}

TEST(BenchTrajectoryCli, RejectsEmptyHistory) {
    const std::string empty = tempPath("trajectory_empty");
    std::remove(empty.c_str());
    ASSERT_EQ(std::system(("mkdir -p " + empty).c_str()), 0);
    EXPECT_EQ(runTool(HOMA_BENCH_TRAJECTORY_BIN,
                      empty + " " + tempPath("unused.md")), 2);
}

#endif  // HOMA_BENCH_COMPARE_BIN && HOMA_BENCH_TRAJECTORY_BIN

}  // namespace
}  // namespace homa
