#include "workload/scenario.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "sim/parse.h"

namespace homa {

const char* patternName(TrafficPatternKind kind) {
    switch (kind) {
        case TrafficPatternKind::Uniform: return "uniform";
        case TrafficPatternKind::Permutation: return "permutation";
        case TrafficPatternKind::RackSkew: return "rack-skew";
        case TrafficPatternKind::Incast: return "incast";
        case TrafficPatternKind::ParetoSenders: return "pareto";
        case TrafficPatternKind::TraceReplay: return "trace";
        case TrafficPatternKind::ClosedLoop: return "closed-loop";
        case TrafficPatternKind::Dag: return "dag";
    }
    return "?";
}

bool patternFromName(const std::string& name, TrafficPatternKind& out) {
    for (TrafficPatternKind k :
         {TrafficPatternKind::Uniform, TrafficPatternKind::Permutation,
          TrafficPatternKind::RackSkew, TrafficPatternKind::Incast,
          TrafficPatternKind::ParetoSenders, TrafficPatternKind::TraceReplay,
          TrafficPatternKind::ClosedLoop, TrafficPatternKind::Dag}) {
        if (name == patternName(k)) {
            out = k;
            return true;
        }
    }
    return false;
}

const char* onOffDistName(OnOffDist d) {
    switch (d) {
        case OnOffDist::Exponential: return "exp";
        case OnOffDist::Pareto: return "pareto";
    }
    return "?";
}

bool onOffDistFromName(const std::string& name, OnOffDist& out) {
    for (OnOffDist d : {OnOffDist::Exponential, OnOffDist::Pareto}) {
        if (name == onOffDistName(d)) {
            out = d;
            return true;
        }
    }
    return false;
}

namespace {

// A `+`-separated modifier after a scenario's pattern. A name ending in
// ':' takes the rest of the segment as its body; `read` applies the body
// and returns why it cannot.
struct SpecSegment {
    const char* name;
    bool repeats;
    std::string (*read)(ScenarioConfig&, const std::string& body);
};

const SpecSegment kSegments[] = {
    {"on-off", false,
     [](ScenarioConfig& s, const std::string&) {
         s.onOff.enabled = true;
         return std::string();
     }},
    {"ecmp", false,
     [](ScenarioConfig& s, const std::string&) {
         s.ecmpUplinks = true;
         return std::string();
     }},
    {"topo:", false,
     [](ScenarioConfig& s, const std::string& body) {
         // Eager validation against the default base so a bad spec fails
         // at parse time, not mid-experiment. The stored body re-applies
         // over the experiment's actual base config in runExperiment.
         NetworkConfig probe = NetworkConfig::fatTree144();
         std::string why;
         if (parseTopoSpec(body, probe, &why)) s.topoSpec = body;
         return why;
     }},
    {"fluid:", false,
     [](ScenarioConfig& s, const std::string& body) -> std::string {
         if (count(body, s.fluidThresholdBytes).empty()) return "";
         return "expected a byte count (e.g. fluid:20000; 0 = everything "
                "fluid)";
     }},
    {"fault:", true,
     [](ScenarioConfig& s, const std::string& body) {
         FaultSpec fault;
         std::string why;
         if (parseFaultSpec(body, fault, &why)) s.faults.push_back(fault);
         return why;
     }},
    {"tenants:", false,
     [](ScenarioConfig& s, const std::string& body) {
         std::string why;
         parseTenantsSpec(body, s.serving.tenants, &why);
         return why;
     }},
    {"replicas:", false,
     [](ScenarioConfig& s, const std::string& body) {
         std::string why;
         parseReplicasSpec(body, s.serving.groups, &why);
         return why;
     }},
};

const SpecSegment* findSegment(const std::string& seg) {
    for (const SpecSegment& s : kSegments) {
        const std::string name = s.name;
        if (name.back() == ':' ? seg.rfind(name, 0) == 0 : seg == name) {
            return &s;
        }
    }
    return nullptr;
}

}  // namespace

bool scenarioFromSpec(const std::string& spec, ScenarioConfig& out,
                      std::string* err) {
    auto fail = [err](const std::string& why) {
        if (err) *err = why;
        return false;
    };
    // The first segment is the pattern, the rest modifiers.
    const std::vector<std::string> segs = split(spec, '+');
    if (const SpecSegment* s = findSegment(segs[0])) {
        return fail("'" + std::string(s->name) + "' cannot come first: a "
                    "spec is '<pattern>[+modifier...]', e.g. 'uniform+" +
                    s->name + "...'");
    }
    ScenarioConfig parsed;
    // Only dag takes ':' parameters: "dag:fanout=40,depth=2".
    const size_t colon = segs[0].find(':');
    const std::string pattern = segs[0].substr(0, colon);
    if (colon != std::string::npos && pattern != "dag") {
        return fail("pattern '" + pattern + "' takes no ':' parameters "
                    "(only dag does)");
    }
    if (!patternFromName(pattern, parsed.kind)) {
        return fail("unknown pattern '" + pattern + "'");
    }
    std::string why;
    if (colon != std::string::npos &&
        !parseDagSpec(segs[0].substr(colon + 1), parsed.dag, &why)) {
        return fail("bad dag spec '" + segs[0].substr(colon + 1) + "': " +
                    why);
    }

    std::vector<const SpecSegment*> seen;
    for (size_t i = 1; i < segs.size(); i++) {
        const SpecSegment* s = findSegment(segs[i]);
        if (s == nullptr) {
            return fail("unknown scenario modifier '" + segs[i] +
                        "' (known: " + joinNames(kSegments) + ")");
        }
        if (!s->repeats &&
            std::find(seen.begin(), seen.end(), s) != seen.end()) {
            return fail("at most one " + std::string(s->name) +
                        " segment per scenario");
        }
        seen.push_back(s);
        const std::string body = segs[i].substr(std::strlen(s->name));
        why = s->read(parsed, body);
        if (!why.empty()) {
            std::string name = s->name;
            if (name.back() == ':') name.pop_back();
            return fail("bad " + name + " spec '" + body + "': " + why);
        }
    }
    why = scenarioError(parsed);
    if (!why.empty()) return fail(why);
    out = parsed;
    return true;
}

std::string onOffError(const OnOffConfig& cfg) {
    if (!cfg.enabled) return "";
    if (cfg.onMean <= 0) return "on-off onMean must be > 0";
    if (cfg.offMean < 0) return "on-off offMean must be >= 0";
    if (cfg.dist == OnOffDist::Pareto && !(cfg.paretoShape > 1.0)) {
        return "on-off pareto shape must be > 1";
    }
    return "";
}

std::string scenarioError(const ScenarioConfig& cfg) {
    if (cfg.fluidThresholdBytes >= 0 && !cfg.faults.empty()) {
        return "fluid does not compose with fault injection: fluid flows "
               "bypass the switches faults act on";
    }
    if (!cfg.serving.groups.empty() && cfg.serving.tenants.empty()) {
        return "a replicas: segment requires a tenants: segment (groups "
               "without tenants serve nobody)";
    }
    if (cfg.serving.enabled()) {
        if (cfg.kind != TrafficPatternKind::Uniform) {
            return "tenants require the 'uniform' pattern placeholder: "
                   "tenant configs own destination choice and arrival "
                   "modes, so '" + std::string(patternName(cfg.kind)) +
                   "' would be ignored";
        }
        if (cfg.onOff.enabled) {
            return "tenants do not compose with on-off: each tenant "
                   "carries its own arrival mode";
        }
        if (!cfg.faults.empty()) {
            return "tenants do not compose with fault injection: the "
                   "serving harness's call ledgers assume a fault-free "
                   "fabric";
        }
        if (cfg.fluidThresholdBytes >= 0) {
            return "tenants do not compose with fluid: serving runs "
                   "account per RPC on the packet engine";
        }
        // Host counts are checked by the runner against the actual
        // topology (validateServingConfig).
        for (const TenantConfig& t : cfg.serving.tenants) {
            if (tenantGroupIndex(cfg.serving, t) < 0) {
                return "tenant '" + t.name + "' references unknown "
                       "replica group '" + t.group + "'";
            }
        }
    }
    const bool trace = cfg.kind == TrafficPatternKind::TraceReplay;
    if (trace && cfg.tracePath.empty() && cfg.traceText.empty()) {
        return "pattern 'trace' needs a schedule (a trace file or trace "
               "text)";
    }
    if (trace && cfg.onOff.enabled) {
        return "on-off does not compose with trace replay (the trace "
               "carries its own timing)";
    }
    if (cfg.kind == TrafficPatternKind::RackSkew &&
        !(cfg.rackLocalFraction >= 0 && cfg.rackLocalFraction <= 1)) {
        return "rack-skew local fraction must be in [0, 1]";
    }
    if (cfg.kind == TrafficPatternKind::Incast) {
        if (!(cfg.hotspotFraction >= 0 && cfg.hotspotFraction <= 1)) {
            return "incast hotspot fraction must be in [0, 1]";
        }
        if (cfg.hotspots < 1) return "incast needs hotspots >= 1";
        if (cfg.hotspotDegree < 0) {
            return "incast hotspot degree must be >= 0 (0 = every non-hot "
                   "host)";
        }
    }
    if (cfg.kind == TrafficPatternKind::ClosedLoop &&
        cfg.closedLoopWindow < 1) {
        return "closed-loop window must be >= 1";
    }
    if (cfg.kind == TrafficPatternKind::Dag) {
        if (const char* why = validateDagConfig(cfg.dag)) {
            return std::string("dag: ") + why;
        }
    }
    return onOffError(cfg.onOff);
}

OnOffModulator::OnOffModulator(const OnOffConfig& cfg, Time start,
                               uint64_t seed)
    : cfg_(cfg), rng_(seed) {
    assert(cfg_.onMean > 0 && cfg_.offMean >= 0);
    assert(cfg_.dist != OnOffDist::Pareto || cfg_.paretoShape > 1.0);
    // Stationary initial phase: ON with probability dutyCycle, and the
    // residual period life re-sampled from the full-period distribution
    // (exact for exponential periods, by memorylessness).
    on_ = rng_.chance(cfg_.dutyCycle());
    periodEnd_ = start + samplePeriod(on_);
    cursor_ = start;
}

Duration OnOffModulator::samplePeriod(bool on) {
    const double mean = toSeconds(on ? cfg_.onMean : cfg_.offMean);
    double seconds;
    if (cfg_.dist == OnOffDist::Exponential) {
        seconds = rng_.exponential(mean);
    } else {
        // Pareto with mean `mean` and shape a: scale xm = mean*(a-1)/a,
        // sample xm * u^(-1/a) with u uniform in (0, 1].
        const double a = cfg_.paretoShape;
        const double xm = mean * (a - 1.0) / a;
        const double u = 1.0 - rng_.uniform();  // (0, 1]
        seconds = xm * std::pow(u, -1.0 / a);
    }
    return std::max<Duration>(
        1, static_cast<Duration>(seconds * static_cast<double>(kSecond)));
}

Time OnOffModulator::advance(Duration onDelay) {
    for (;;) {
        if (on_) {
            const Duration available = periodEnd_ - cursor_;
            if (onDelay < available) {
                cursor_ += onDelay;
                return cursor_;
            }
            onDelay -= available;
        }
        // Burst exhausted (or currently idle): skip to the next period.
        cursor_ = periodEnd_;
        on_ = !on_;
        periodEnd_ = cursor_ + samplePeriod(on_);
    }
}

Time OnOffModulator::gate(Time now) {
    while (periodEnd_ <= now) {
        on_ = !on_;
        periodEnd_ += samplePeriod(on_);
    }
    return on_ ? now : periodEnd_;
}

namespace {

[[noreturn]] void traceError(size_t line, const std::string& what) {
    throw std::invalid_argument("trace line " + std::to_string(line) + ": " +
                                what);
}

class UniformPattern final : public TrafficPattern {
public:
    explicit UniformPattern(int hostCount) : hosts_(hostCount) {}
    HostId pickDestination(HostId src, Rng& rng) const override {
        return uniformHostExcept(hosts_, src, rng);
    }

private:
    int hosts_;
};

class PermutationPattern final : public TrafficPattern {
public:
    PermutationPattern(int hostCount, uint64_t seed) : dst_(hostCount) {
        // Sattolo's algorithm: a uniform single-cycle permutation, so no
        // host sends to itself and every host receives from exactly one.
        Rng rng(seed);
        std::vector<HostId> p(hostCount);
        for (int i = 0; i < hostCount; i++) p[i] = static_cast<HostId>(i);
        for (int i = hostCount - 1; i > 0; i--) {
            const int j = static_cast<int>(rng.below(static_cast<uint64_t>(i)));
            std::swap(p[i], p[j]);
        }
        dst_ = std::move(p);
    }
    HostId pickDestination(HostId src, Rng&) const override {
        return dst_[src];
    }

private:
    std::vector<HostId> dst_;
};

class RackSkewPattern final : public TrafficPattern {
public:
    RackSkewPattern(int hostCount, int hostsPerRack, double localFraction)
        : hosts_(hostCount),
          perRack_(hostsPerRack),
          local_(perRack_ > 1 ? localFraction : 0.0) {}
    HostId pickDestination(HostId src, Rng& rng) const override {
        if (rng.chance(local_)) {
            const HostId rackBase = src / perRack_ * perRack_;
            HostId dst = rackBase + static_cast<HostId>(rng.below(perRack_ - 1));
            if (dst >= src) dst++;
            return dst;
        }
        return uniformHostExcept(hosts_, src, rng);
    }

private:
    int hosts_;
    int perRack_;
    double local_;
};

class IncastPattern final : public TrafficPattern {
public:
    IncastPattern(const ScenarioConfig& cfg, int hostCount)
        : hosts_(hostCount), fraction_(cfg.hotspotFraction) {
        // Every hotspot needs at least one dedicated sender, so the
        // hotspot count caps at half the cluster and the fan-in degree at
        // the senders available per hotspot (scenarioError has checked
        // hotspots >= 1 and degree >= 0). Hot receivers are hosts
        // [0, hot); their senders are assigned round-robin from the
        // remaining hosts so groups span racks.
        assert(cfg.hotspots >= 1 && cfg.hotspotDegree >= 0);
        const int hot = std::min(cfg.hotspots, hostCount / 2);
        const int perHot = (hostCount - hot) / hot;  // >= 1
        const int degree = cfg.hotspotDegree == 0
                               ? perHot
                               : std::min(cfg.hotspotDegree, perHot);
        target_.assign(hostCount, kNone);
        for (int i = 0; i < hot * degree; i++) {
            target_[hot + i] = static_cast<HostId>(i % hot);
        }
    }
    HostId pickDestination(HostId src, Rng& rng) const override {
        const HostId hot = target_[src];
        if (hot != kNone && rng.chance(fraction_)) return hot;
        return uniformHostExcept(hosts_, src, rng);
    }

private:
    static constexpr HostId kNone = -1;
    int hosts_;
    double fraction_;
    std::vector<HostId> target_;
};

class ParetoSendersPattern final : public TrafficPattern {
public:
    ParetoSendersPattern(int hostCount, double alpha, uint64_t seed)
        : hosts_(hostCount), weight_(hostCount) {
        // Popularity rank is a deterministic shuffle of the hosts; the
        // k-th most popular sender gets weight (k+1)^-alpha. The generator
        // renormalizes, so only relative magnitudes matter here.
        Rng rng(seed);
        std::vector<int> rank(hostCount);
        for (int i = 0; i < hostCount; i++) rank[i] = i;
        for (int i = hostCount - 1; i > 0; i--) {
            const int j =
                static_cast<int>(rng.below(static_cast<uint64_t>(i + 1)));
            std::swap(rank[i], rank[j]);
        }
        for (int i = 0; i < hostCount; i++) {
            weight_[rank[i]] = std::pow(static_cast<double>(i + 1), -alpha);
        }
    }
    double senderWeight(HostId h) const override { return weight_[h]; }
    HostId pickDestination(HostId src, Rng& rng) const override {
        return uniformHostExcept(hosts_, src, rng);
    }

private:
    int hosts_;
    std::vector<double> weight_;
};

}  // namespace

std::vector<TraceRecord> parseTrace(const std::string& text, int hostCount) {
    std::vector<TraceRecord> out;
    std::istringstream in(text);
    std::string line;
    size_t lineNo = 0;
    while (std::getline(in, line)) {
        lineNo++;
        const size_t hash = line.find('#');
        if (hash != std::string::npos) line.erase(hash);
        if (line.find_first_not_of(" \t\r") == std::string::npos) {
            continue;  // blank or comment-only line
        }
        std::istringstream fields(line);
        std::string timeUs, extra;
        int64_t src, dst, size;
        if (!(fields >> timeUs >> src >> dst >> size) || fields >> extra) {
            traceError(lineNo, "expected '<time_us> <src> <dst> <size>'");
        }
        TraceRecord r;
        const std::string why = duration(timeUs, kMicrosecond, r.at);
        if (!why.empty()) traceError(lineNo, "time '" + timeUs + "': " + why);
        if (r.at < 0 || size <= 0 || size > 0xFFFFFFFFll || src == dst) {
            traceError(lineNo,
                       "negative time, size out of [1, 2^32), or src==dst");
        }
        if (hostCount > 0 &&
            (src < 0 || src >= hostCount || dst < 0 || dst >= hostCount)) {
            traceError(lineNo, "host id out of range for this topology");
        }
        r.src = static_cast<HostId>(src);
        r.dst = static_cast<HostId>(dst);
        r.size = static_cast<uint32_t>(size);
        out.push_back(r);
    }
    std::stable_sort(out.begin(), out.end(),
                     [](const TraceRecord& a, const TraceRecord& b) {
                         return a.at < b.at;
                     });
    return out;
}

std::vector<TraceRecord> loadTrace(const ScenarioConfig& cfg, int hostCount) {
    if (!cfg.traceText.empty()) return parseTrace(cfg.traceText, hostCount);
    std::ifstream in(cfg.tracePath);
    if (!in) {
        throw std::invalid_argument("cannot open trace file: " +
                                    cfg.tracePath);
    }
    std::stringstream buf;
    buf << in.rdbuf();
    return parseTrace(buf.str(), hostCount);
}

std::unique_ptr<TrafficPattern> makeTrafficPattern(const ScenarioConfig& cfg,
                                                   int hostCount,
                                                   int hostsPerRack,
                                                   uint64_t seed) {
    assert(hostCount >= 2);
    switch (cfg.kind) {
        // Closed-loop clients pick servers uniformly (the §5.1 echo setup);
        // their window refill lives in TrafficGenerator. DagEngine places
        // DAG nodes itself, so the pattern is never asked.
        case TrafficPatternKind::Uniform:
        case TrafficPatternKind::ClosedLoop:
        case TrafficPatternKind::Dag:
            return std::make_unique<UniformPattern>(hostCount);
        case TrafficPatternKind::Permutation:
            return std::make_unique<PermutationPattern>(hostCount, seed);
        case TrafficPatternKind::RackSkew:
            return std::make_unique<RackSkewPattern>(hostCount, hostsPerRack,
                                                     cfg.rackLocalFraction);
        case TrafficPatternKind::Incast:
            return std::make_unique<IncastPattern>(cfg, hostCount);
        case TrafficPatternKind::ParetoSenders:
            return std::make_unique<ParetoSendersPattern>(
                hostCount, cfg.paretoAlpha, seed);
        case TrafficPatternKind::TraceReplay:
            break;
    }
    assert(false && "TraceReplay has no TrafficPattern");
    return nullptr;
}

}  // namespace homa
