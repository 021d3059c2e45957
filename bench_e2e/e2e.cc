// bench_e2e: the simulator's end-to-end benchmark, with a per-layer split.
//
//   bench_e2e --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//   bench_e2e --self-test
//
// One process runs one workload. --seed N gives the workload's first input
// set; two more are derived from it. With --trace 0 the benchmark measures
// set-up time, then repeats the public experiment call (runExperiment /
// runRpcExperiment) over the input sets in turn for S seconds, at least
// once more than there are sets, checks every repetition's output, and
// prints the end-to-end metrics. With --trace 1 it makes one untraced and
// one traced run of the first input set and prints the per-layer metrics;
// the traced run must reproduce the untraced one exactly. Each metric is
// printed as a "name value unit" line, the last line of stdout is one JSON
// object {correct, attempted, failed, metrics}, and the run writes
// BENCH_e2e_<workload>.json (plus, when traced,
// BENCH_e2e_<workload>_spans.jsonl) to the working directory. A failed
// check prints the failing field and exits 1. See E2E.md.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <initializer_list>
#include <iterator>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "driver/experiment.h"
#include "driver/rpc_experiment.h"
#include "driver/sweep.h"
#include "e2e_trace.h"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define E2E_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define E2E_SANITIZED 1
#endif
#endif
#ifndef E2E_SANITIZED
#define E2E_SANITIZED 0
#endif

using namespace homa;
using namespace homa::e2e;

namespace {

#ifdef NDEBUG
constexpr bool kNdebug = true;
#else
constexpr bool kNdebug = false;
#endif
#ifdef __OPTIMIZE__
constexpr bool kOptimized = true;
#else
constexpr bool kOptimized = false;
#endif
constexpr bool kSanitized = E2E_SANITIZED != 0;

// Input sets per untraced run. Tail percentiles pool their messages: one
// 20 ms W4 run has ~100 messages beyond its p99, too few for a steady tail.
constexpr int kInputs = 3;
// Set-up is short, so it is repeated until both limits are met and the
// median is reported.
constexpr int kMinSetupReps = 5;
constexpr double kMinSetupSeconds = 0.3;
// p99 needs at least 10 samples beyond it.
constexpr size_t kMinTailSamples = 1000;

double secondsSince(std::chrono::steady_clock::time_point t0) {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
        .count();
}

double median(std::vector<double> v) {
    std::sort(v.begin(), v.end());
    const size_t n = v.size();
    if (n == 0) return 0;
    return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double ratio(double a, double b) { return b > 0 ? a / b : 0; }

double peakRssMb() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

double currentRssMb() {
    long pages = 0;
    if (FILE* f = std::fopen("/proc/self/statm", "r")) {
        long size = 0;
        if (std::fscanf(f, "%ld %ld", &size, &pages) != 2) pages = 0;
        std::fclose(f);
    }
    return static_cast<double>(pages) *
           static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

// ---------------------------------------------------------------- workloads

const char* const kWorkloadNames[] = {"homa_w3", "pfabric_w3", "homa_w4_par4",
                                      "fluid_10k", "serving_hedged"};

struct Workload {
    std::string name;
    bool serving = false;
    ExperimentConfig exp;     // message workloads
    RpcExperimentConfig rpc;  // serving_hedged

    uint64_t seed() const { return serving ? rpc.seed : exp.traffic.seed; }
    /// Input set i: set 0 keeps the seed, later sets derive theirs from it.
    Workload withInputSet(int i) const {
        Workload w = *this;
        const uint64_t s = i == 0 ? seed() : deriveSweepSeed(seed(), i);
        w.exp.traffic.seed = s;
        w.rpc.seed = s;
        return w;
    }
    int threads() const {
        return serving ? 1 : std::max(1, exp.parallel.threads);
    }
};

// The BENCH_serving fleet: 16 hosts, tenants burst/web/batch against one
// p2c replica pool with p95 hedging.
RpcExperimentConfig servingFleet(uint64_t seed) {
    RpcExperimentConfig cfg;
    cfg.net = NetworkConfig::singleRack16();
    cfg.seed = seed;
    cfg.stop = milliseconds(10);

    TenantConfig burst;
    burst.name = "burst";
    burst.workload = WorkloadId::W1;
    burst.mode = ArrivalMode::Open;
    burst.load = 0.35;
    burst.clients = 6;

    TenantConfig web;
    web.name = "web";
    web.workload = WorkloadId::W3;
    web.mode = ArrivalMode::Open;
    web.load = 0.25;
    web.clients = 4;

    TenantConfig batch;
    batch.name = "batch";
    batch.workload = WorkloadId::W2;
    batch.mode = ArrivalMode::Closed;
    batch.window = 4;
    batch.clients = 2;

    ReplicaGroupConfig pool;
    pool.name = "pool";
    pool.replicas = 0;
    pool.policy = LbPolicy::PowerOfTwo;
    pool.hedgePercentile = 0.95;
    // With the default 20 us floor, p95 hedges storm on some seeds (1.4k to
    // 8k hedges) and the burst tenant's p99 swings from 2 to 128; at 100 us
    // it stays within 1.94-2.04 while ~250 hedges still exercise the path.
    pool.hedgeFloor = microseconds(100);

    cfg.serving.tenants = {burst, web, batch};
    cfg.serving.groups = {pool};
    return cfg;
}

std::optional<Workload> makeWorkload(const std::string& name,
                                     std::optional<uint64_t> seed) {
    Workload w;
    w.name = name;
    ExperimentConfig& e = w.exp;
    e.traffic.seed = seed.value_or(99);
    if (name == "homa_w3" || name == "pfabric_w3") {
        e.traffic.workload = WorkloadId::W3;
        e.traffic.load = 0.8;
        e.traffic.stop = milliseconds(4);
        if (name == "pfabric_w3") {
            e.proto.kind = Protocol::PFabric;
            // pFabric recovers drops one RTO at a time: its last in-window
            // message lands up to 64 ms after generation stops (40 seeds),
            // past the default 50 ms drain.
            e.drainGrace = milliseconds(200);
        }
    } else if (name == "homa_w4_par4") {
        e.traffic.workload = WorkloadId::W4;
        e.traffic.load = 0.8;
        e.traffic.stop = milliseconds(20);
        e.parallel.threads = 4;
    } else if (name == "fluid_10k") {
        e.net.racks = 256;
        e.net.hostsPerRack = 40;
        e.traffic.workload = WorkloadId::W4;
        e.traffic.load = 0.5;
        e.traffic.stop = milliseconds(1);
        e.fluidThresholdBytes = 20000;
    } else if (name == "serving_hedged") {
        w.serving = true;
        w.rpc = servingFleet(seed.value_or(29));
    } else {
        return std::nullopt;
    }
    return w;
}

// ------------------------------------------------------- traced harness

/// What the traced harness must reproduce of the untraced experiment call.
struct HarnessOutcome {
    uint64_t created = 0;  // messages generated, warm-up and drain included
    uint64_t generated = 0;
    uint64_t delivered = 0;
    uint64_t deliveredTotal = 0;
    uint64_t switchDrops = 0;
    double p50 = 0;
    double p99 = 0;
    std::unique_ptr<FluidStats> fluid;
    std::vector<uint64_t> shardEvents;
};

/// Builds Network, Oracle, FluidEngine and TrafficGenerator the way
/// runExperiment does, optionally with every seam traced. It covers the
/// open-loop message workloads above: no faults, closed loop, DAGs or
/// wasted-bandwidth probe. Construction is the experiment's set-up.
class MessageHarness {
public:
    MessageHarness(const ExperimentConfig& cfg, bool traced)
        : cfg_(cfg), dist_(workload(cfg.traffic.workload)) {
        netCfg_ = cfg.net;
        if (!netCfg_.switchQdisc) netCfg_.switchQdisc = switchQdiscFor(cfg.proto);
        if (traced) {
            netCfg_.switchQdisc = tracedQdiscFactory(netCfg_.switchQdisc);
        }
        const auto t0 = std::chrono::steady_clock::now();
        TransportFactory factory =
            makeTransportFactory(cfg.proto, netCfg_, &dist_);
        if (traced) factory = tracedTransportFactory(std::move(factory));
        const bool fluid = cfg.fluidThresholdBytes >= 0;
        net_ = std::make_unique<Network>(
            netCfg_, factory, fluid ? 1 : std::max(1, cfg.parallel.threads));
        networkBuildSeconds_ = secondsSince(t0);
        oracle_ = std::make_unique<Oracle>(netCfg_);
        const int n = net_->hostCount();

        if (fluid) {
            FluidConfig fc;
            fc.thresholdBytes = cfg.fluidThresholdBytes;
            if (cfg.fluidThresholdBytes > 0) {
                fc.reservedFraction =
                    cfg.traffic.load *
                    dist_.byteWeightedCdf(
                        static_cast<double>(cfg.fluidThresholdBytes));
            }
            fc.bestOneWay = [o = oracle_.get()](uint32_t size, bool intra) {
                return o->bestOneWay(size, intra);
            };
            fluid_ = std::make_unique<FluidEngine>(net_->loop(), netCfg_,
                                                   std::move(fc));
            FluidEngine* eng = fluid_.get();
            if (traced) {
                net_->setMessageInterceptor([eng](const Message& m) {
                    Span s(kFluidOffer, m.id);
                    const bool admitted = eng->offer(m);
                    if (admitted) {
                        Tracer::instance().local().counts.fluidAdmitted++;
                    }
                    return admitted;
                });
            } else {
                net_->setMessageInterceptor(
                    [eng](const Message& m) { return eng->offer(m); });
            }
        }

        windowStart_ = cfg.traffic.start +
                       static_cast<Time>(
                           cfg.warmupFraction *
                           static_cast<double>(cfg.traffic.stop -
                                               cfg.traffic.start));
        // Per-host cells merged in host order, as runExperiment does, so
        // the statistics match it bit for bit at any shard count.
        inWindowGenerated_.assign(n, 0);
        inWindowDelivered_.assign(n, 0);
        deliveredTotal_.assign(n, 0);
        oracles_.assign(static_cast<size_t>(n), Oracle(netCfg_));
        slowdowns_.reserve(n);
        for (int h = 0; h < n; h++) {
            slowdowns_.emplace_back(dist_, oracle_->oneWayFn());
        }
        gen_ = std::make_unique<TrafficGenerator>(
            *net_, cfg.traffic, [this](const Message& m) {
                if (m.created >= windowStart_ && m.created < cfg_.traffic.stop) {
                    inWindowGenerated_[m.src]++;
                }
            });

        Transport::DeliveryCallback record = [this](const Message& m,
                                                    const DeliveryInfo& info) {
            recordDelivery(m, info);
        };
        if (traced) {
            record = [this](const Message& m, const DeliveryInfo& info) {
                Span s(kStatsRecord, m.id);
                recordDelivery(m, info);
            };
        }
        net_->setDeliveryCallback(record);
        if (fluid_) fluid_->setDeliveryCallback(record);
    }

    MessageHarness(const MessageHarness&) = delete;
    MessageHarness& operator=(const MessageHarness&) = delete;

    double networkBuildSeconds() const { return networkBuildSeconds_; }
    int shards() const { return net_->shardCount(); }

    HarnessOutcome run() {
        gen_->start();
        runNetworkUntil(*net_, cfg_.traffic.stop + cfg_.drainGrace);

        HarnessOutcome out;
        SlowdownTracker all(dist_, oracle_->oneWayFn());
        for (HostId h = 0; h < net_->hostCount(); h++) {
            out.generated += inWindowGenerated_[h];
            out.delivered += inWindowDelivered_[h];
            out.deliveredTotal += deliveredTotal_[h];
            all.absorb(slowdowns_[h]);
        }
        out.created = gen_->generatedMessages();
        out.p50 = all.overallPercentile(0.50);
        out.p99 = all.overallPercentile(0.99);
        for (const auto& group :
             {net_->torDownlinkPorts(), net_->torUplinkPorts(),
              net_->aggrDownlinkPorts(), net_->aggrUplinkPorts(),
              net_->coreDownlinkPorts()}) {
            for (const EgressPort* p : group) {
                out.switchDrops += p->qdisc().stats().dropped;
            }
        }
        if (fluid_) out.fluid = std::make_unique<FluidStats>(fluid_->stats());
        for (int s = 0; s < net_->shardCount(); s++) {
            out.shardEvents.push_back(net_->shardLoop(s).executedEvents());
        }
        return out;
    }

private:
    void recordDelivery(const Message& m, const DeliveryInfo& info) {
        deliveredTotal_[m.dst]++;
        gen_->onDelivered(m);
        if (m.created < windowStart_ || m.created >= cfg_.traffic.stop) return;
        inWindowDelivered_[m.dst]++;
        const bool intraRack = net_->rackOf(m.src) == net_->rackOf(m.dst);
        slowdowns_[m.dst].recordWithBest(
            m.length, info.completed - m.created,
            oracles_[m.dst].bestOneWay(m.length, intraRack),
            info.queueingDelay, info.preemptionLag);
    }

    ExperimentConfig cfg_;
    const SizeDistribution& dist_;
    NetworkConfig netCfg_;
    double networkBuildSeconds_ = 0;
    std::unique_ptr<Network> net_;
    std::unique_ptr<Oracle> oracle_;
    std::unique_ptr<FluidEngine> fluid_;
    Time windowStart_ = 0;
    std::vector<uint64_t> inWindowGenerated_, inWindowDelivered_,
        deliveredTotal_;
    std::vector<Oracle> oracles_;
    std::vector<SlowdownTracker> slowdowns_;
    std::unique_ptr<TrafficGenerator> gen_;
};

std::string hexDouble(double v) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%a", v);
    return buf;
}

/// The fields a traced run must reproduce, canonically serialized.
std::string outcomeKey(uint64_t generated, uint64_t delivered,
                       uint64_t deliveredTotal, uint64_t drops, double p50,
                       double p99, const FluidStats* fluid) {
    std::string s = "generated=" + std::to_string(generated) +
                    ";delivered=" + std::to_string(delivered) +
                    ";deliveredTotal=" + std::to_string(deliveredTotal) +
                    ";drops=" + std::to_string(drops) + ";p50=" +
                    hexDouble(p50) + ";p99=" + hexDouble(p99) + ";";
    if (fluid != nullptr) {
        s += "fluidFlows=" + std::to_string(fluid->flows) +
             ";fluidDelivered=" + std::to_string(fluid->delivered) +
             ";fluidSolves=" + std::to_string(fluid->solves) +
             ";fluidMaxConcurrent=" + std::to_string(fluid->maxConcurrent) +
             ";";
    }
    return s;
}

std::string outcomeKey(const ExperimentResult& r) {
    return outcomeKey(r.generated, r.delivered, r.deliveredTotal,
                      r.switchDrops, r.slowdown->overallPercentile(0.50),
                      r.slowdown->overallPercentile(0.99), r.fluid.get());
}

std::string outcomeKey(const HarnessOutcome& o) {
    return outcomeKey(o.generated, o.delivered, o.deliveredTotal,
                      o.switchDrops, o.p50, o.p99, o.fluid.get());
}

/// First `key=value;` field at which two fingerprints differ ("" if none).
std::string firstDifference(const std::string& a, const std::string& b) {
    size_t i = 0;
    while (i < a.size() || i < b.size()) {
        const size_t ea = a.find(';', i);
        const size_t eb = b.find(';', i);
        const std::string fa = a.substr(i, ea == std::string::npos ? ea : ea - i);
        const std::string fb = b.substr(i, eb == std::string::npos ? eb : eb - i);
        if (fa != fb) return fa.substr(0, fa.find('='));
        if (ea == std::string::npos) break;
        i = ea + 1;
    }
    return "";
}

// ---------------------------------------------------------------- set-up

/// One build of an experiment's set-up, timed.
struct SetupSample {
    double total = 0;    // everything built before the first event runs
    double network = 0;  // transport factory + Network construction
    double rssMb = 0;    // resident set with the set-up alive
};

/// Serving set-up: what runRpcExperiment builds before its clients start.
SetupSample servingSetup(const RpcExperimentConfig& cfg) {
    SetupSample s;
    const auto t0 = std::chrono::steady_clock::now();
    NetworkConfig netCfg = cfg.net;
    if (!netCfg.switchQdisc) netCfg.switchQdisc = switchQdiscFor(cfg.proto);
    const SizeDistribution& primary = workload(cfg.serving.tenants[0].workload);
    const auto tn = std::chrono::steady_clock::now();
    Network net(netCfg, makeTransportFactory(cfg.proto, netCfg, &primary));
    s.network = secondsSince(tn);
    Oracle oracle(netCfg);
    std::vector<std::unique_ptr<RpcEndpoint>> endpoints;
    for (HostId h = 0; h < net.hostCount(); h++) {
        endpoints.push_back(std::make_unique<RpcEndpoint>(net, h));
    }
    s.total = secondsSince(t0);
    s.rssMb = currentRssMb();
    return s;
}

SetupSample messageSetup(const ExperimentConfig& cfg) {
    SetupSample s;
    const auto t0 = std::chrono::steady_clock::now();
    MessageHarness h(cfg, /*traced=*/false);
    s.total = secondsSince(t0);
    s.network = h.networkBuildSeconds();
    s.rssMb = currentRssMb();
    return s;
}

struct SetupTiming {
    double warmupSeconds = 0;   // one-time distribution warm-up
    double buildSeconds = 0;    // median experiment build
    double networkSeconds = 0;  // median Network construction within it
    double rssMb = 0;           // resident set with the last build alive
    int reps = 0;
};

SetupTiming measureSetup(const Workload& w) {
    SetupTiming st;
    // The workload singletons build their Monte Carlo caches once per
    // process; every first run of a process pays for it.
    const auto t0 = std::chrono::steady_clock::now();
    if (w.serving) {
        for (const TenantConfig& t : w.rpc.serving.tenants) {
            workload(t.workload).meanWireBytes();
        }
    } else {
        const SizeDistribution& d = workload(w.exp.traffic.workload);
        d.meanWireBytes();
        d.byteWeightedCdf(static_cast<double>(
            std::max<int64_t>(w.exp.fluidThresholdBytes, 0)));
    }
    st.warmupSeconds = secondsSince(t0);

    std::vector<double> builds, networks;
    const auto start = std::chrono::steady_clock::now();
    while (static_cast<int>(builds.size()) < kMinSetupReps ||
           secondsSince(start) < kMinSetupSeconds) {
        const SetupSample s =
            w.serving ? servingSetup(w.rpc) : messageSetup(w.exp);
        builds.push_back(s.total);
        networks.push_back(s.network);
        st.rssMb = s.rssMb;
    }
    st.buildSeconds = median(builds);
    st.networkSeconds = median(networks);
    st.reps = static_cast<int>(builds.size());
    return st;
}

// ---------------------------------------------------------------- report

struct Metric {
    std::string name;
    double value;
    std::string unit;
};

/// Collects the run's verdict: failed checks, op counts, metrics.
struct Report {
    bool correct = true;
    uint64_t attempted = 0;
    uint64_t failed = 0;
    std::vector<Metric> metrics;
    std::vector<std::string> notes;  // extra artifact fields, JSON fragments

    void check(bool ok, const std::string& field, const std::string& detail) {
        if (ok) return;
        correct = false;
        std::fprintf(stderr, "check failed: %s (%s)\n", field.c_str(),
                     detail.c_str());
    }
    void add(const std::string& name, double value, const char* unit) {
        metrics.push_back(Metric{name, value, unit});
    }
};

std::string num(double v) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

std::string metricsJson(const std::vector<Metric>& metrics) {
    std::string s = "{";
    for (size_t i = 0; i < metrics.size(); i++) {
        const Metric& m = metrics[i];
        if (i > 0) s += ", ";
        s += "\"" + m.name + "\": {\"value\": " + num(m.value) +
             ", \"unit\": \"" + m.unit + "\"}";
    }
    return s + "}";
}

bool writeFile(const std::string& path, const std::string& text) {
    FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    const bool ok = std::fwrite(text.data(), 1, text.size(), f) == text.size();
    return std::fclose(f) == 0 && ok;
}

void writeArtifact(const Workload& w, bool traced, int reps,
                   const Report& rep) {
    std::string s = "{\n  \"bench\": \"e2e\",\n";
    s += "  \"workload\": \"" + w.name + "\",\n";
    s += std::string("  \"mode\": \"") + (traced ? "trace" : "e2e") + "\",\n";
    s += "  \"seed\": \"" + std::to_string(w.seed()) + "\",\n";
    s += "  \"repetitions\": " + std::to_string(reps) + ",\n";
    s += "  \"threads\": " + std::to_string(w.threads()) + ",\n";
    s += "  \"hardware_concurrency\": " +
         std::to_string(std::thread::hardware_concurrency()) + ",\n";
    s += std::string("  \"build\": {\"NDEBUG\": ") +
         (kNdebug ? "true" : "false") +
         ", \"__OPTIMIZE__\": " + (kOptimized ? "true" : "false") +
         ", \"sanitizer\": " + (kSanitized ? "true" : "false") + "},\n";
    for (const std::string& note : rep.notes) s += "  " + note + ",\n";
    s += std::string("  \"correct\": ") + (rep.correct ? "true" : "false") +
         ",\n";
    s += "  \"metrics\": " + metricsJson(rep.metrics) + "\n}\n";
    const std::string path = "BENCH_e2e_" + w.name + ".json";
    if (!writeFile(path, s)) {
        std::fprintf(stderr, "cannot write %s\n", path.c_str());
    }
}

/// Prints every metric line and the closing JSON line; returns the exit
/// code.
int finish(const Report& rep) {
    for (const Metric& m : rep.metrics) {
        std::printf("%s %s %s\n", m.name.c_str(), num(m.value).c_str(),
                    m.unit.c_str());
    }
    std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
                ", \"failed\": %" PRIu64 ", \"metrics\": %s}\n",
                rep.correct ? "true" : "false", rep.attempted, rep.failed,
                metricsJson(rep.metrics).c_str());
    std::fflush(stdout);
    return rep.correct ? 0 : 1;
}

// ------------------------------------------------------ end-to-end run

void checkServingLedgers(const ServingStats& s, Report& rep) {
    const bool ok[] = {
        s.callsIssued == s.logicalIssued + s.hedgesIssued,
        s.responsesConsumed == s.logicalCompleted,
        s.hedgesIssued == s.hedgesWon + s.hedgesCancelled + s.hedgesFailed,
        s.primariesCancelled == s.hedgesWon,
        s.issuedBytes == s.consumedBytes + s.refundedBytes + s.unresolvedBytes,
    };
    const char* names[] = {
        "callsIssued == logicalIssued + hedgesIssued",
        "responsesConsumed == logicalCompleted",
        "hedgesIssued == hedgesWon + hedgesCancelled + hedgesFailed",
        "primariesCancelled == hedgesWon",
        "issuedBytes == consumedBytes + refundedBytes + unresolvedBytes",
    };
    for (size_t i = 0; i < std::size(ok); i++) {
        rep.check(ok[i], "serving ledger", names[i]);
    }
}

/// One public experiment call: its wall time, fingerprint, and checked output.
struct ExperimentRun {
    double wall = 0;
    std::string fingerprint;
    uint64_t ops = 0;
    uint64_t opsFailed = 0;
    double p50 = 0;
    double p99 = 0;
    size_t samples = 0;
    std::unique_ptr<SlowdownTracker> slowdown;  // message workloads
};

ExperimentRun runExperimentOnce(const Workload& w, Report& rep,
                    ExperimentResult* keepMessage = nullptr,
                    RpcExperimentResult* keepServing = nullptr) {
    ExperimentRun d;
    const auto t0 = std::chrono::steady_clock::now();
    if (w.serving) {
        RpcExperimentResult r = runRpcExperiment(w.rpc);
        d.wall = secondsSince(t0);
        d.fingerprint = resultFingerprint(r);
        d.ops = r.issued;
        d.opsFailed = r.issued - std::min(r.issued, r.completed);
        // The burst tenant is the latency-sensitive one.
        d.p50 = r.tenants->slowdownPercentile(0, 0.50);
        d.p99 = r.tenants->slowdownPercentile(0, 0.99);
        d.samples = r.tenants->completed(0);
        checkServingLedgers(r.serving, rep);
        if (keepServing != nullptr) *keepServing = std::move(r);
    } else {
        ExperimentResult r = runExperiment(w.exp);
        d.wall = secondsSince(t0);
        d.fingerprint = resultFingerprint(r);
        // A message still undelivered when the drain ends is a failed
        // operation, not a wrong output.
        d.ops = r.generated;
        d.opsFailed = r.generated - std::min(r.generated, r.delivered);
        d.p50 = r.slowdown->overallPercentile(0.50);
        d.p99 = r.slowdown->overallPercentile(0.99);
        d.samples = r.slowdown->count();
        rep.check(r.keptUp, "keptUp", "backlog grew or deliveries lagged");
        if (keepMessage != nullptr) {
            *keepMessage = std::move(r);
        } else {
            d.slowdown = std::move(r.slowdown);
        }
    }
    rep.check(d.samples >= kMinTailSamples, "samples",
              std::to_string(d.samples) + " < " +
                  std::to_string(kMinTailSamples) + ", too few for p99");
    rep.attempted += d.ops;
    rep.failed += d.opsFailed;
    return d;
}

int runEndToEnd(const Workload& w, double seconds) {
    Report rep;
    const SetupTiming setup = measureSetup(w);

    // Repetition r runs input set r % kInputs; every repeat of a set must
    // reproduce its first run's fingerprint.
    std::vector<Workload> inputs;
    for (int i = 0; i < kInputs; i++) inputs.push_back(w.withInputSet(i));
    std::vector<ExperimentRun> first;
    std::vector<double> walls;
    double peakRss = 0;  // through set-up and one experiment call
    const auto start = std::chrono::steady_clock::now();
    for (int r = 0; r < kInputs + 1 || secondsSince(start) < seconds; r++) {
        const int i = r % kInputs;
        ExperimentRun d = runExperimentOnce(inputs[i], rep);
        walls.push_back(d.wall);
        if (r == 0) peakRss = peakRssMb();
        if (r < kInputs) {
            first.push_back(std::move(d));
            continue;
        }
        rep.check(d.fingerprint == first[i].fingerprint,
                  "fingerprint of repetition " + std::to_string(r + 1),
                  "differs from input set " + std::to_string(i) +
                      "'s first run at " +
                      firstDifference(first[i].fingerprint, d.fingerprint));
    }

    // Tail percentiles over all in-window messages of the input sets
    // (serving exposes only per-tenant percentiles: median over the sets).
    double p50 = 0, p99 = 0;
    uint64_t ops = 0, opsFailed = 0;
    size_t samples = 0;
    std::vector<double> p50s, p99s;
    SlowdownTracker pooled(workload(w.exp.traffic.workload), OracleFn{});
    for (const ExperimentRun& d : first) {
        ops += d.ops;
        opsFailed += d.opsFailed;
        samples += d.samples;
        p50s.push_back(d.p50);
        p99s.push_back(d.p99);
        if (d.slowdown) pooled.absorb(*d.slowdown);
    }
    if (w.serving) {
        p50 = median(p50s);
        p99 = median(p99s);
    } else {
        p50 = pooled.overallPercentile(0.50);
        p99 = pooled.overallPercentile(0.99);
    }

    rep.add("wall_s", median(walls), "s");
    rep.add("setup_s", setup.warmupSeconds + setup.buildSeconds, "s");
    rep.add("peak_rss_mb", peakRss, "MB");
    rep.add("p50_slowdown", p50, "x");
    rep.add("p99_slowdown", p99, "x");
    rep.add("completed_frac",
            ratio(static_cast<double>(ops - opsFailed), static_cast<double>(ops)),
            "ratio");
    std::string wallList;
    for (double v : walls) wallList += (wallList.empty() ? "" : ", ") + num(v);
    rep.notes.push_back("\"wall_s_each\": [" + wallList + "]");
    rep.notes.push_back("\"setup_reps\": " + std::to_string(setup.reps));
    rep.notes.push_back("\"setup_warmup_s\": " + num(setup.warmupSeconds));
    rep.notes.push_back("\"setup_build_s\": " + num(setup.buildSeconds));
    rep.notes.push_back("\"samples\": " + std::to_string(samples));
    writeArtifact(w, /*traced=*/false, static_cast<int>(walls.size()), rep);
    return finish(rep);
}

// ---------------------------------------------------------- traced run

void writeSpans(const std::string& path, const std::vector<SpanRecord>& spans,
                int64_t origin) {
    std::string s;
    char buf[256];
    for (const SpanRecord& r : spans) {
        std::snprintf(buf, sizeof(buf),
                      "{\"thread\": %d, \"id\": %" PRId64
                      ", \"parent\": %" PRId64
                      ", \"name\": \"%s\", \"start_ns\": %" PRId64
                      ", \"end_ns\": %" PRId64 ", \"msg\": %" PRIu64 "}\n",
                      r.thread, r.id, r.parent, layerName(r.layer),
                      r.startNs - origin, r.endNs - origin, r.msg);
        s += buf;
    }
    if (!writeFile(path, s)) {
        std::fprintf(stderr, "cannot write %s\n", path.c_str());
    }
}

int runTraced(const Workload& w) {
    Report rep;
    const SetupTiming setup = measureSetup(w);
    Tracer& tracer = Tracer::instance();

    ExperimentResult untracedMsg;
    RpcExperimentResult untracedRpc;
    const ExperimentRun untraced = runExperimentOnce(w, rep, &untracedMsg, &untracedRpc);

    tracer.reset();
    double tracedWall = 0;
    int shards = 1;
    uint64_t messages = 0;
    std::vector<uint64_t> shardEvents;
    int64_t origin = 0;
    if (w.serving) {
        // runRpcExperiment exposes only the qdisc seam; transport, stats
        // and the serving layer stay in the residual.
        RpcExperimentConfig cfg = w.rpc;
        cfg.net.switchQdisc = tracedQdiscFactory(switchQdiscFor(cfg.proto));
        origin = nowNs();
        const RpcExperimentResult traced = runRpcExperiment(cfg);
        tracedWall = static_cast<double>(nowNs() - origin) * 1e-9;
        rep.check(resultFingerprint(traced) == untraced.fingerprint,
                  "traced fingerprint",
                  "differs at " + firstDifference(untraced.fingerprint,
                                                  resultFingerprint(traced)));
        messages = traced.serving.callsIssued;
    } else {
        MessageHarness harness(w.exp, /*traced=*/true);
        shards = harness.shards();
        origin = nowNs();
        const HarnessOutcome out = harness.run();
        tracedWall = static_cast<double>(nowNs() - origin) * 1e-9;
        const std::string want = outcomeKey(untracedMsg);
        const std::string got = outcomeKey(out);
        rep.check(got == want, "traced outcome",
                  "differs at " + firstDifference(want, got));
        messages = out.created;
        shardEvents = out.shardEvents;
    }
    const FluidStats* fluid = untracedMsg.fluid.get();

    const auto totals = tracer.totals();
    const BoundaryCounts counts = tracer.counts();
    const double threadNs = tracedWall * 1e9 * shards;
    double selfSum = 0;
    for (const LayerTotals& t : totals) selfSum += static_cast<double>(t.selfNs);
    rep.check(selfSum <= threadNs, "sum of layer self time",
              num(selfSum) + " ns > traced wall x shards " + num(threadNs));
    const double residualNs = threadNs - selfSum;
    uint64_t events = 0;
    for (uint64_t e : shardEvents) events += e;

    auto calls = [&](Layer l) { return static_cast<double>(totals[l].calls); };
    auto perCall = [&](Layer l) {
        return ratio(static_cast<double>(totals[l].selfNs), calls(l));
    };
    auto share = [&](std::initializer_list<Layer> ls) {
        double ns = 0;
        for (Layer l : ls) ns += static_cast<double>(totals[l].selfNs);
        return ratio(ns, threadNs);
    };

    rep.add("sim.events", static_cast<double>(events), "count");
    rep.add("sim.ns_per_event",
            ratio(untraced.wall * 1e9, static_cast<double>(events)), "ns");
    rep.add("sim.residual_ns_per_event",
            ratio(residualNs, static_cast<double>(events)), "ns");
    rep.add("sim.residual_share", ratio(residualNs, threadNs), "ratio");
    rep.add("sim.qdisc.enq_calls", calls(kQdiscEnqueue), "count");
    rep.add("sim.qdisc.enq_ns", perCall(kQdiscEnqueue), "ns");
    rep.add("sim.qdisc.deq_calls", calls(kQdiscDequeue), "count");
    rep.add("sim.qdisc.deq_ns", perCall(kQdiscDequeue), "ns");
    rep.add("sim.qdisc.drops", static_cast<double>(counts.qdiscDrops),
            "count");
    rep.add("sim.qdisc.share", share({kQdiscEnqueue, kQdiscDequeue}), "ratio");
    rep.add("sim.nic.push_calls", calls(kNicPush), "count");
    rep.add("sim.nic.push_ns", perCall(kNicPush), "ns");
    rep.add("transport.send_calls", calls(kTransportSend), "count");
    rep.add("transport.send_ns", perCall(kTransportSend), "ns");
    rep.add("transport.rx_calls", calls(kTransportRx), "count");
    rep.add("transport.rx_ns", perCall(kTransportRx), "ns");
    rep.add("transport.pull_calls", calls(kTransportPull), "count");
    rep.add("transport.pull_ns", perCall(kTransportPull), "ns");
    rep.add("transport.pull_hit_ratio",
            ratio(static_cast<double>(counts.pullHits), calls(kTransportPull)),
            "ratio");
    rep.add("transport.share",
            share({kTransportSend, kTransportRx, kTransportPull}), "ratio");
    rep.add("sched.grants_per_data_pkt",
            ratio(static_cast<double>(counts.rxGrant),
                  static_cast<double>(counts.rxData)),
            "ratio");
    rep.add("stats.record_calls", calls(kStatsRecord), "count");
    rep.add("stats.record_ns", perCall(kStatsRecord), "ns");
    rep.add("stats.share", share({kStatsRecord}), "ratio");
    rep.add("sim.fluid.offer_calls", calls(kFluidOffer), "count");
    rep.add("sim.fluid.offer_ns", perCall(kFluidOffer), "ns");
    rep.add("sim.fluid.admit_ratio",
            ratio(static_cast<double>(counts.fluidAdmitted),
                  calls(kFluidOffer)),
            "ratio");
    rep.add("sim.fluid.solves",
            fluid ? static_cast<double>(fluid->solves) : 0, "count");
    rep.add("sim.fluid.max_concurrent",
            fluid ? static_cast<double>(fluid->maxConcurrent) : 0, "count");

    // Serial-identity probe: a sharded workload also runs on one thread.
    double speedup = 1;
    bool serialIdentical = true;
    if (w.threads() > 1) {
        Workload serial = w;
        serial.exp.parallel.threads = 1;
        Report ignored;  // the serial run's checks are the probe's result
        const ExperimentRun s = runExperimentOnce(serial, ignored);
        speedup = ratio(s.wall, untraced.wall);
        serialIdentical = s.fingerprint == untraced.fingerprint;
        rep.notes.push_back(
            "\"serial_first_difference\": \"" +
            firstDifference(s.fingerprint, untraced.fingerprint) + "\"");
        if (!serialIdentical) {
            std::fprintf(stderr,
                         "note: %d-thread result differs from serial at "
                         "'%s' (reported, not failed)\n",
                         w.threads(),
                         firstDifference(s.fingerprint, untraced.fingerprint)
                             .c_str());
        }
    }
    double maxShard = 0, sumShard = 0;
    for (uint64_t e : shardEvents) {
        maxShard = std::max(maxShard, static_cast<double>(e));
        sumShard += static_cast<double>(e);
    }
    rep.add("sim.parallel.shards", shards, "count");
    // Serving runs on one shard whose events are not observable: 1.
    rep.add("sim.parallel.shard_imbalance",
            shardEvents.empty()
                ? 1
                : ratio(maxShard,
                        sumShard / static_cast<double>(shardEvents.size())),
            "ratio");
    rep.add("sim.parallel.speedup", speedup, "x");
    rep.add("sim.parallel.serial_identical", serialIdentical ? 1 : 0, "bool");
    const ServingStats& sv = untracedRpc.serving;  // all zero off serving
    rep.add("driver.serving.calls_per_logical",
            ratio(static_cast<double>(sv.callsIssued),
                  static_cast<double>(sv.logicalIssued)),
            "ratio");
    rep.add("driver.serving.hedge_win_ratio",
            ratio(static_cast<double>(sv.hedgesWon),
                  static_cast<double>(sv.hedgesIssued)),
            "ratio");
    rep.add("driver.serving.retries", static_cast<double>(untracedRpc.retries),
            "count");
    rep.add("driver.serving.residual_share",
            w.serving ? ratio(residualNs, threadNs) : 0, "ratio");
    rep.add("setup.network_build_s", setup.networkSeconds, "s");
    rep.add("mem.rss_after_setup_mb", setup.rssMb, "MB");
    rep.add("workload.messages", static_cast<double>(messages), "count");
    rep.add("workload.samples", static_cast<double>(untraced.samples),
            "count");
    rep.add("trace.overhead", ratio(tracedWall, untraced.wall), "x");

    rep.notes.push_back("\"untraced_wall_s\": " + num(untraced.wall));
    rep.notes.push_back("\"traced_wall_s\": " + num(tracedWall));
    writeSpans("BENCH_e2e_" + w.name + "_spans.jsonl", tracer.spans(), origin);
    writeArtifact(w, /*traced=*/true, 1, rep);
    return finish(rep);
}

// ---------------------------------------------------------------- self-test

bool expect(bool ok, const char* what) {
    std::printf("  %-62s %s\n", what, ok ? "ok" : "FAILED");
    return ok;
}

int selfTest() {
    bool ok = true;
    std::printf("self-test: span arithmetic\n");
    {
        // parent [0,100] > child [10,60] > grandchild [20,30]
        ThreadTrace t(0);
        t.open(0, t.newId());
        t.open(10, t.newId());
        t.open(20, -1);
        t.close(kTransportPull, 30, 7, /*sampled=*/true);
        t.close(kNicPush, 60, 7, false);
        t.close(kTransportRx, 100, 7, false);
        const auto& tot = t.totals();
        ok &= expect(tot[kTransportPull].selfNs == 10, "grandchild self = 10");
        ok &= expect(tot[kNicPush].selfNs == 40, "child self = 50 - 10");
        ok &= expect(tot[kTransportRx].selfNs == 50, "parent self = 100 - 50");
        const auto& sp = t.spans();
        ok &= expect(sp.size() == 3 && sp[0].parent == sp[1].id &&
                         sp[1].parent == sp[2].id && sp[2].parent == -1,
                     "kept spans link grandchild -> child -> parent");
        ok &= expect(t.idle(), "stack empty after the nest closes");
    }

    for (Protocol proto : {Protocol::Homa, Protocol::PFabric}) {
        std::printf("self-test: 16-host %s point\n", protocolName(proto));
        ExperimentConfig cfg;
        cfg.net = NetworkConfig::singleRack16();
        cfg.proto.kind = proto;
        cfg.traffic.workload = WorkloadId::W3;
        cfg.traffic.load = 0.8;
        cfg.traffic.stop = milliseconds(2);

        const ExperimentResult plain = runExperiment(cfg);
        ExperimentConfig wrapped = cfg;
        wrapped.net.switchQdisc = tracedQdiscFactory(switchQdiscFor(cfg.proto));
        const ExperimentResult viaQdisc = runExperiment(wrapped);
        ok &= expect(resultFingerprint(plain) == resultFingerprint(viaQdisc),
                     "runExperiment fingerprint unchanged by TracedQdisc");
        if (proto == Protocol::PFabric) {
            ok &= expect(plain.switchDrops > 0,
                         "the point drops packets, so QdiscStats matter");
        }

        HarnessOutcome bare;
        {
            MessageHarness h(cfg, /*traced=*/false);
            bare = h.run();
        }
        Tracer::instance().reset();
        HarnessOutcome traced;
        {
            MessageHarness h(cfg, /*traced=*/true);
            traced = h.run();
        }
        ok &= expect(outcomeKey(bare) == outcomeKey(plain),
                     "untraced harness reproduces runExperiment");
        ok &= expect(outcomeKey(traced) == outcomeKey(bare),
                     "both decorators leave the harness outcome unchanged");
        ok &= expect(Tracer::instance().totals()[kTransportRx].calls > 0,
                     "transport decorator saw packets");
    }
    std::printf("self-test: %s\n", ok ? "passed" : "FAILED");
    return ok ? 0 : 1;
}

// ---------------------------------------------------------------- main

int usage(const char* msg) {
    if (msg != nullptr) std::fprintf(stderr, "bench_e2e: %s\n", msg);
    std::fprintf(stderr,
                 "usage: bench_e2e --workload NAME [--seed N] [--seconds S] "
                 "[--trace 0|1]\n"
                 "       bench_e2e --self-test\n"
                 "workloads:");
    for (const char* n : kWorkloadNames) std::fprintf(stderr, " %s", n);
    std::fprintf(stderr, "\n");
    return 2;
}

bool parseUint(const char* s, uint64_t& out) {
    if (s == nullptr || *s == '\0' || *s == '-') return false;
    char* end = nullptr;
    errno = 0;
    const unsigned long long v = std::strtoull(s, &end, 10);
    if (errno != 0 || *end != '\0') return false;
    out = v;
    return true;
}

}  // namespace

int main(int argc, char** argv) {
    if (!kOptimized || !kNdebug || kSanitized) {
        std::fprintf(stderr,
                     "bench_e2e: refusing to measure a %s build "
                     "(NDEBUG=%d __OPTIMIZE__=%d sanitizer=%d); build with "
                     "-DCMAKE_BUILD_TYPE=Release\n",
                     kSanitized ? "sanitizer" : "debug", kNdebug, kOptimized,
                     kSanitized);
        return 3;
    }
    std::string name;
    std::optional<uint64_t> seed;
    uint64_t seconds = 10;
    bool trace = false;
    bool self = false;
    for (int i = 1; i < argc; i++) {
        const std::string a = argv[i];
        const char* v = i + 1 < argc ? argv[i + 1] : nullptr;
        uint64_t n = 0;
        if (a == "--self-test") {
            self = true;
        } else if (a == "--workload" && v != nullptr) {
            name = v;
            i++;
        } else if (a == "--seed" && parseUint(v, n)) {
            seed = n;
            i++;
        } else if (a == "--seconds" && parseUint(v, n) && n <= 3600) {
            seconds = n;
            i++;
        } else if (a == "--trace" && parseUint(v, n) && n <= 1) {
            trace = n == 1;
            i++;
        } else {
            return usage(("bad argument '" + a + "'").c_str());
        }
    }
    if (self) return selfTest();
    if (name.empty()) return usage("--workload is required");
    const std::optional<Workload> w = makeWorkload(name, seed);
    if (!w) return usage(("unknown workload '" + name + "'").c_str());
    return trace ? runTraced(*w) : runEndToEnd(*w, static_cast<double>(seconds));
}
