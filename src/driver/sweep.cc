#include "driver/sweep.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <stdexcept>
#include <thread>
#include <tuple>
#include <utility>

#include "sim/parse.h"
#include "sim/random.h"

namespace homa {

uint64_t deriveSweepSeed(uint64_t base, uint64_t index) {
    return mix64(base + (index + 1) * kGoldenGamma);
}

const char* validateShardSpec(const ShardSpec& s) {
    if (s.count < 1) return "shard count must be >= 1";
    if (s.index < 0 || s.index >= s.count) {
        return "shard index must be in [0, count)";
    }
    return nullptr;
}

bool parseShardSpec(const std::string& text, ShardSpec& out) {
    const std::vector<std::string> parts = split(text, '/');
    ShardSpec s;
    if (parts.size() != 2 || !count(parts[0], s.index).empty() ||
        !count(parts[1], s.count, 1'000'000).empty() ||
        validateShardSpec(s) != nullptr) {
        return false;
    }
    out = s;
    return true;
}

bool shardOwns(const ShardSpec& s, uint64_t pointIndex) {
    return pointIndex % static_cast<uint64_t>(s.count) ==
           static_cast<uint64_t>(s.index);
}

std::vector<uint64_t> shardPointIndices(const ShardSpec& s,
                                        uint64_t totalPoints) {
    std::vector<uint64_t> out;
    for (uint64_t i = static_cast<uint64_t>(s.index); i < totalPoints;
         i += static_cast<uint64_t>(s.count)) {
        out.push_back(i);
    }
    return out;
}

namespace {

// Seed derivation and the sim-thread override, shared by every sweep.
uint64_t& pointSeed(ExperimentConfig& p) { return p.traffic.seed; }
uint64_t& pointSeed(RpcExperimentConfig& p) { return p.seed; }

void setSimThreads(std::vector<ExperimentConfig>& points, int n) {
    for (ExperimentConfig& p : points) p.parallel.threads = n;
}
void setSimThreads(std::vector<RpcExperimentConfig>&, int) {
    throw std::invalid_argument(
        "simThreads does not apply to RPC sweeps: the RPC harness runs "
        "every point on one shard");
}

template <typename Config>
void applySweepOptions(std::vector<Config>& points, const SweepOptions& opts) {
    if (opts.deriveSeeds) {
        for (size_t i = 0; i < points.size(); i++) {
            pointSeed(points[i]) = deriveSweepSeed(opts.baseSeed, i);
        }
    }
    if (opts.simThreads > 0) setSimThreads(points, opts.simThreads);
}

// Pre-build the workload caches a point reads. Serving points may touch
// several distributions, one per tenant.
void prewarm(const ExperimentConfig& p) {
    workload(p.traffic.workload).meanWireBytes();
}
void prewarm(const RpcExperimentConfig& p) {
    workload(p.workload).meanWireBytes();
    for (const TenantConfig& t : p.serving.tenants) {
        workload(t.workload).meanWireBytes();
    }
}

ExperimentResult runPoint(const ExperimentConfig& p) {
    return runExperiment(p);
}
RpcExperimentResult runPoint(const RpcExperimentConfig& p) {
    return runRpcExperiment(p);
}

std::string configError(const ExperimentConfig& p) {
    return experimentConfigError(p);
}
std::string configError(const RpcExperimentConfig& p) {
    return rpcExperimentConfigError(p);
}

/// Shared parallel section of every sweep: fan `points` across a pool,
/// collecting results into slots[i] (input order). Returns
/// (threadsUsed, wallSeconds). Every point is checked first, on the
/// caller's thread: an exception escaping a worker would std::terminate.
template <typename Config, typename Result>
std::pair<int, double> fanOut(const std::vector<Config>& points,
                              std::vector<Result>& slots, int threads) {
    for (size_t i = 0; i < points.size(); i++) {
        const std::string why = configError(points[i]);
        if (!why.empty()) {
            throw std::invalid_argument("sweep point " + std::to_string(i) +
                                        ": " + why);
        }
    }
    if (threads <= 0) {
        threads = static_cast<int>(std::thread::hardware_concurrency());
        if (threads <= 0) threads = 1;
    }
    threads = std::min<int>(threads, static_cast<int>(points.size()));
    threads = std::max(threads, 1);
    slots.resize(points.size());

    const auto t0 = std::chrono::steady_clock::now();
    // Pre-build the workload caches once, serially: worker threads then
    // only read them (call_once makes the lazy path safe anyway, but this
    // keeps the first point's wall time honest).
    for (const Config& p : points) prewarm(p);

    std::atomic<size_t> next{0};
    auto worker = [&] {
        for (;;) {
            const size_t i = next.fetch_add(1, std::memory_order_relaxed);
            if (i >= points.size()) return;
            slots[i] = runPoint(points[i]);
        }
    };
    if (threads == 1) {
        worker();
    } else {
        std::vector<std::thread> pool;
        pool.reserve(threads);
        for (int t = 0; t < threads; t++) pool.emplace_back(worker);
        for (auto& t : pool) t.join();
    }
    const double wall = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - t0)
                            .count();
    return {threads, wall};
}

void appendNum(std::string& s, const char* key, double v) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%s=%a;", key, v);
    s += buf;
}

void appendInt(std::string& s, const char* key, uint64_t v) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%s=%llu;",
                  key, static_cast<unsigned long long>(v));
    s += buf;
}

}  // namespace

SweepOutcome SweepRunner::run(std::vector<ExperimentConfig> points) const {
    SweepOutcome out;
    applySweepOptions(points, opts_);
    std::tie(out.threadsUsed, out.wallSeconds) =
        fanOut(points, out.results, opts_.threads);
    return out;
}

ShardOutcome SweepRunner::runShard(std::vector<ExperimentConfig> points,
                                   const ShardSpec& shard) const {
    ShardOutcome out;
    out.totalPoints = points.size();
    // Seed derivation over *global* indices, before slicing: point i gets
    // the exact seed it would get in a single-machine run.
    applySweepOptions(points, opts_);
    out.indices = shardPointIndices(shard, points.size());
    std::vector<ExperimentConfig> slice;
    slice.reserve(out.indices.size());
    out.seeds.reserve(out.indices.size());
    for (uint64_t i : out.indices) {
        out.seeds.push_back(points[i].traffic.seed);
        slice.push_back(std::move(points[i]));
    }
    std::tie(out.threadsUsed, out.wallSeconds) =
        fanOut(slice, out.results, opts_.threads);
    return out;
}

RpcSweepOutcome runRpcSweep(std::vector<RpcExperimentConfig> points,
                            const SweepOptions& opts) {
    RpcSweepOutcome out;
    applySweepOptions(points, opts);
    std::tie(out.threadsUsed, out.wallSeconds) =
        fanOut(points, out.results, opts.threads);
    return out;
}

std::string resultFingerprint(const ExperimentResult& r) {
    std::string s;
    appendInt(s, "generated", r.generated);
    appendInt(s, "delivered", r.delivered);
    appendInt(s, "deliveredTotal", r.deliveredTotal);
    appendInt(s, "windowStart", static_cast<uint64_t>(r.windowStart));
    appendInt(s, "windowEnd", static_cast<uint64_t>(r.windowEnd));
    appendNum(s, "util", r.downlinkUtilization);
    appendNum(s, "wasted", r.wastedBandwidth);
    appendNum(s, "torUpMean", r.torUp.meanBytes);
    appendInt(s, "torUpMax", static_cast<uint64_t>(r.torUp.maxBytes));
    appendNum(s, "aggrDownMean", r.aggrDown.meanBytes);
    appendInt(s, "aggrDownMax", static_cast<uint64_t>(r.aggrDown.maxBytes));
    appendNum(s, "torDownMean", r.torDown.meanBytes);
    appendInt(s, "torDownMax", static_cast<uint64_t>(r.torDown.maxBytes));
    if (r.coreSwitches > 0) {
        // Three-tier block only: two-tier fingerprints stay byte-identical
        // to the pre-core-layer format (the regression goldens rely on it).
        appendInt(s, "coreSwitches", static_cast<uint64_t>(r.coreSwitches));
        appendNum(s, "aggrUpMean", r.aggrUp.meanBytes);
        appendInt(s, "aggrUpMax", static_cast<uint64_t>(r.aggrUp.maxBytes));
        appendNum(s, "coreDownMean", r.coreDown.meanBytes);
        appendInt(s, "coreDownMax", static_cast<uint64_t>(r.coreDown.maxBytes));
        appendNum(s, "aggrLinkUtil", r.aggrLinkUtilization);
        appendNum(s, "coreLinkUtil", r.coreLinkUtilization);
    }
    for (int p = 0; p < kPriorityLevels; p++) {
        appendNum(s, "prio", r.prioUsage[p]);
    }
    appendInt(s, "drops", r.switchDrops);
    appendInt(s, "trims", r.switchTrims);
    appendInt(s, "keptUp", r.keptUp ? 1 : 0);
    if (r.closedLoop) {
        appendInt(s, "clMaxOutstanding", static_cast<uint64_t>(r.maxOutstanding));
        appendInt(s, "clCompleted", r.closedLoop->totalCompleted());
        appendInt(s, "clMaxClient", r.closedLoop->maxClientCompleted());
        appendInt(s, "clMinClient", r.closedLoop->minClientCompleted());
        appendNum(s, "clOpsPerSec", r.closedLoop->aggregateOpsPerSec());
        appendNum(s, "clGbps", r.closedLoop->aggregateGbps());
        appendNum(s, "clLatP50", r.closedLoop->latencyPercentileUs(0.50));
        appendNum(s, "clLatP99", r.closedLoop->latencyPercentileUs(0.99));
    }
    if (r.dag) {
        appendInt(s, "dagMaxOutstanding", static_cast<uint64_t>(r.maxOutstanding));
        appendInt(s, "dagTrees", r.dag->trees());
        appendInt(s, "dagNodes", r.dag->totalNodes());
        appendInt(s, "dagBytes", static_cast<uint64_t>(r.dag->totalBytes()));
        appendInt(s, "dagMaxRoot", r.dag->maxRootTrees());
        appendInt(s, "dagMinRoot", r.dag->minRootTrees());
        appendNum(s, "dagTreesPerSec", r.dag->treesPerSec());
        appendNum(s, "dagCompP50", r.dag->completionPercentileUs(0.50));
        appendNum(s, "dagCompP99", r.dag->completionPercentileUs(0.99));
        appendNum(s, "dagSlowP50", r.dag->slowdownPercentile(0.50));
        appendNum(s, "dagSlowP99", r.dag->slowdownPercentile(0.99));
    }
    if (r.faults) {
        appendInt(s, "faultLinkDown", r.faults->linkDownEvents);
        appendInt(s, "faultLinkUp", r.faults->linkUpEvents);
        appendInt(s, "faultKills", r.faults->switchKills);
        appendInt(s, "faultDegrades", r.faults->degradeEvents);
        appendInt(s, "faultWireDrops", r.faults->wireDrops);
        appendInt(s, "faultProbDrops", r.faults->probDrops);
        appendInt(s, "faultDeadIngress", r.faults->deadIngressDrops);
        appendInt(s, "faultFlushDrops", r.faults->flushDrops);
    }
    if (r.fluid && r.fluid->flows > 0) {
        // Fluid block only when flows were actually admitted: a hybrid run
        // whose threshold exceeds every message (the all-packet extreme)
        // fingerprints byte-identically to a run without the engine — the
        // FluidFidelity goldens rely on it.
        appendInt(s, "fluidThreshold",
                  static_cast<uint64_t>(r.fluid->thresholdBytes));
        appendInt(s, "fluidFlows", r.fluid->flows);
        appendInt(s, "fluidDelivered", r.fluid->delivered);
        appendInt(s, "fluidSolves", r.fluid->solves);
        appendInt(s, "fluidMaxConcurrent", r.fluid->maxConcurrent);
        appendInt(s, "fluidPayload",
                  static_cast<uint64_t>(r.fluid->payloadBytes));
        appendInt(s, "fluidWire", static_cast<uint64_t>(r.fluid->wireBytes));
        appendInt(s, "fluidDeliveredWire",
                  static_cast<uint64_t>(r.fluid->deliveredWireBytes));
        appendNum(s, "fluidSlowP50", r.fluid->slowP50);
        appendNum(s, "fluidSlowP99", r.fluid->slowP99);
        appendNum(s, "fluidSlowMean", r.fluid->slowMean);
    }
    if (r.slowdown) {
        appendNum(s, "p50", r.slowdown->overallPercentile(0.50));
        appendNum(s, "p99", r.slowdown->overallPercentile(0.99));
        for (const SlowdownRow& row : r.slowdown->rows()) {
            appendInt(s, "bucketCount", row.count);
            appendNum(s, "bucketMedian", row.median);
            appendNum(s, "bucketP99", row.p99);
            appendNum(s, "bucketMean", row.mean);
        }
    }
    return s;
}

std::string resultFingerprint(const RpcExperimentResult& r) {
    std::string s;
    appendInt(s, "issued", r.issued);
    appendInt(s, "completed", r.completed);
    appendInt(s, "retries", r.retries);
    appendInt(s, "reexecutions", r.reexecutions);
    appendInt(s, "keptUp", r.keptUp ? 1 : 0);
    if (r.slowdown) {
        appendNum(s, "p50", r.slowdown->overallPercentile(0.50));
        appendNum(s, "p99", r.slowdown->overallPercentile(0.99));
        for (const SlowdownRow& row : r.slowdown->rows()) {
            appendInt(s, "bucketCount", row.count);
            appendNum(s, "bucketMedian", row.median);
            appendNum(s, "bucketP99", row.p99);
            appendNum(s, "bucketMean", row.mean);
        }
    }
    if (r.perClient) {
        appendInt(s, "clCompleted", r.perClient->totalCompleted());
        appendInt(s, "clMaxClient", r.perClient->maxClientCompleted());
        appendInt(s, "clMinClient", r.perClient->minClientCompleted());
        appendNum(s, "clOpsPerSec", r.perClient->aggregateOpsPerSec());
        appendNum(s, "clGbps", r.perClient->aggregateGbps());
        appendNum(s, "clLatP50", r.perClient->latencyPercentileUs(0.50));
        appendNum(s, "clLatP99", r.perClient->latencyPercentileUs(0.99));
    }
    if (r.dag) {
        appendInt(s, "dagTrees", r.dag->trees());
        appendInt(s, "dagNodes", r.dag->totalNodes());
        appendInt(s, "dagBytes", static_cast<uint64_t>(r.dag->totalBytes()));
        appendInt(s, "dagMaxRoot", r.dag->maxRootTrees());
        appendInt(s, "dagMinRoot", r.dag->minRootTrees());
        appendNum(s, "dagTreesPerSec", r.dag->treesPerSec());
        appendNum(s, "dagCompP50", r.dag->completionPercentileUs(0.50));
        appendNum(s, "dagCompP99", r.dag->completionPercentileUs(0.99));
        appendNum(s, "dagSlowP50", r.dag->slowdownPercentile(0.50));
        appendNum(s, "dagSlowP99", r.dag->slowdownPercentile(0.99));
    }
    if (r.tenants) {
        // Serving block only: non-serving fingerprints are byte-identical
        // to the pre-serving format (the no-tenants golden relies on it).
        appendInt(s, "tnTenants", static_cast<uint64_t>(r.tenants->tenants()));
        for (int t = 0; t < r.tenants->tenants(); t++) {
            appendInt(s, "tnCompleted", r.tenants->completed(t));
            appendNum(s, "tnOpsPerSec", r.tenants->opsPerSec(t));
            appendNum(s, "tnGbps", r.tenants->gbps(t));
            appendNum(s, "tnLatP50", r.tenants->latencyPercentileUs(t, 0.50));
            appendNum(s, "tnLatP99", r.tenants->latencyPercentileUs(t, 0.99));
            appendNum(s, "tnLatMean", r.tenants->latencyMeanUs(t));
            appendNum(s, "tnSlowP50", r.tenants->slowdownPercentile(t, 0.50));
            appendNum(s, "tnSlowP99", r.tenants->slowdownPercentile(t, 0.99));
            const TenantHedgeStats& h = r.tenants->hedges(t);
            appendInt(s, "tnHedgeIssued", h.issued);
            appendInt(s, "tnHedgeWon", h.won);
            appendInt(s, "tnHedgeCancelled", h.cancelled);
            appendInt(s, "tnHedgeFailed", h.failed);
        }
        appendInt(s, "svLogicalIssued", r.serving.logicalIssued);
        appendInt(s, "svLogicalCompleted", r.serving.logicalCompleted);
        appendInt(s, "svCallsIssued", r.serving.callsIssued);
        appendInt(s, "svResponsesConsumed", r.serving.responsesConsumed);
        appendInt(s, "svHedgesIssued", r.serving.hedgesIssued);
        appendInt(s, "svHedgesWon", r.serving.hedgesWon);
        appendInt(s, "svHedgesCancelled", r.serving.hedgesCancelled);
        appendInt(s, "svHedgesFailed", r.serving.hedgesFailed);
        appendInt(s, "svPrimariesCancelled", r.serving.primariesCancelled);
        appendInt(s, "svIssuedBytes",
                  static_cast<uint64_t>(r.serving.issuedBytes));
        appendInt(s, "svConsumedBytes",
                  static_cast<uint64_t>(r.serving.consumedBytes));
        appendInt(s, "svRefundedBytes",
                  static_cast<uint64_t>(r.serving.refundedBytes));
        appendInt(s, "svUnresolvedBytes",
                  static_cast<uint64_t>(r.serving.unresolvedBytes));
    }
    return s;
}

}  // namespace homa
