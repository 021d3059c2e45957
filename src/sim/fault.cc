#include "sim/fault.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <utility>

#include "sim/network.h"
#include "sim/parse.h"

namespace homa {

const char* faultKindName(FaultKind k) {
    switch (k) {
        case FaultKind::Flap: return "flap";
        case FaultKind::Kill: return "kill";
        case FaultKind::Degrade: return "degrade";
        case FaultKind::FlapTrain: return "flap-train";
    }
    return "?";
}

const char* faultTargetKindName(FaultTargetKind k) {
    switch (k) {
        case FaultTargetKind::Host: return "host";
        case FaultTargetKind::Tor: return "tor";
        case FaultTargetKind::Aggr: return "aggr";
        case FaultTargetKind::Core: return "core";
    }
    return "?";
}

namespace {

// "aggr3", "core0", "tor2" or "host17".
std::string readTarget(const std::string& v, FaultSpec& out) {
    for (FaultTargetKind kind : {FaultTargetKind::Aggr, FaultTargetKind::Core,
                                 FaultTargetKind::Tor, FaultTargetKind::Host}) {
        const std::string prefix = faultTargetKindName(kind);
        if (v.rfind(prefix, 0) != 0) continue;
        if (!count(v.substr(prefix.size()), out.targetIndex).empty()) {
            return "bad fault target index (expected aggr<k>, core<c>, "
                   "tor<r>, or host<h>)";
        }
        out.targetKind = kind;
        return "";
    }
    return "bad fault target (expected aggr<k>, core<c>, tor<r>, or "
           "host<h>)";
}

// "50ms", "10us", "250ns", "0.5s": a non-negative count of the suffix's
// unit, read by the checked readers once the suffix is off.
template <Duration FaultSpec::*Field>
std::string faultDuration(FaultSpec& f, const std::string& v) {
    Duration& out = f.*Field;
    static constexpr std::pair<const char*, Duration> kUnits[] = {
        {"ns", kNanosecond}, {"us", kMicrosecond}, {"ms", kMillisecond},
        {"s", kSecond}};  // "s" last: "ms", "us" and "ns" end in it too
    for (const auto& [suffix, unit] : kUnits) {
        const size_t n = std::strlen(suffix);
        if (v.size() > n && v.compare(v.size() - n, n, suffix) == 0) {
            std::string why = duration(v.substr(0, v.size() - n), unit, out);
            if (why.empty() && out < 0) {
                why = "expected a non-negative duration";
            }
            return why;
        }
    }
    return "expected a number with ns/us/ms/s";
}

// The first pair, e.g. "flap=aggr0": the fault's kind and its target.
template <FaultKind K>
std::string faultOn(FaultSpec& f, const std::string& target) {
    f.kind = K;
    return readTarget(target, f);
}

const SpecKey<FaultSpec> kFaultKinds[] = {
    {"flap", faultOn<FaultKind::Flap>},
    {"kill", faultOn<FaultKind::Kill>},
    {"degrade", faultOn<FaultKind::Degrade>},
    {"flap-train", faultOn<FaultKind::FlapTrain>},
};

const SpecKey<FaultSpec> kFaultKeys[] = {
    {"at", faultDuration<&FaultSpec::at>},
    {"for", faultDuration<&FaultSpec::duration>},
    {"bw",
     [](FaultSpec& f, const std::string& v) { return number(v, f.bwFactor); }},
    {"delay", faultDuration<&FaultSpec::extraDelay>},
    {"drop",
     [](FaultSpec& f, const std::string& v) { return number(v, f.dropProb); }},
    {"count",
     [](FaultSpec& f, const std::string& v) { return count(v, f.count); }},
    {"gap", faultDuration<&FaultSpec::gap>},
};

// Every time a spec schedules must fit a Duration. A flap or a degrade
// ends at `at + for`. A train's exponential draws are at most
// -ln(2^-53) ~ 36.7 times their mean (Rng::exponential), so its last flap
// ends before `at + count x 37 x (for + gap)`; that sum is taken in
// double, where it cannot overflow, and the margin over 36.7 exceeds its
// rounding. Call only once every time is known to be non-negative.
std::string faultEndError(const FaultSpec& spec) {
    Duration end = 0;
    switch (spec.kind) {
        case FaultKind::Flap:
        case FaultKind::Degrade:
            if (__builtin_add_overflow(spec.at, spec.duration, &end)) {
                return "at + for must fit the simulation clock "
                       "(2^63 ps, about 106 days)";
            }
            break;
        case FaultKind::Kill:
            break;
        case FaultKind::FlapTrain: {
            const double last =
                static_cast<double>(spec.at) +
                static_cast<double>(spec.count) * 37.0 *
                    (static_cast<double>(spec.duration) +
                     static_cast<double>(spec.gap));
            if (!(last < 0x1p63)) {
                return "flap-train must end within the simulation clock: "
                       "at + count x 37 x (for + gap) must stay below 2^63 "
                       "ps (about 106 days)";
            }
            break;
        }
    }
    return "";
}

// The value rule, which needs no topology: what every spec must hold,
// however it was built. Each bound is written so that NaN fails it. The
// parser applies it to a spec that starts from FaultSpec's defaults, so a
// missing `for`, `count` or `gap` fails here with the message that names
// the key.
std::string faultValueError(const FaultSpec& spec) {
    if (spec.targetIndex < 0) return "fault target index must be >= 0";
    if (spec.at < 0) return "at must be a non-negative duration";
    if (spec.duration < 0) return "for must be a non-negative duration";
    switch (spec.kind) {
        case FaultKind::Flap:
            if (spec.duration <= 0) return "flap needs for=<duration> > 0";
            break;
        case FaultKind::Kill:
            break;
        case FaultKind::Degrade:
            if (!(spec.bwFactor > 0.0 && spec.bwFactor <= 1.0)) {
                return "bw must be in (0, 1]";
            }
            if (!(spec.dropProb >= 0.0 && spec.dropProb < 1.0)) {
                return "drop must be in [0, 1)";
            }
            if (spec.extraDelay < 0) {
                return "delay must be a non-negative duration";
            }
            break;
        case FaultKind::FlapTrain:
            if (spec.count < 1) return "flap-train needs count=<n> >= 1";
            if (spec.gap <= 0) {
                return "flap-train needs gap=<mean duration> > 0";
            }
            if (spec.duration <= 0) {
                return "flap-train needs for=<mean down duration> > 0";
            }
            break;
    }
    return faultEndError(spec);
}

// Keys that contradict the spec's kind (the parser's rule on top of the
// value rule).
std::string faultKeysError(const FaultSpec& spec, const GivenKeys& given) {
    const bool degradeKnobs =
        given.has("bw") || given.has("delay") || given.has("drop");
    const bool trainKnobs = given.has("count") || given.has("gap");
    switch (spec.kind) {
        case FaultKind::Flap:
            if (degradeKnobs) {
                return "flap takes no degrade knobs (bw/delay/drop); "
                       "use degrade=";
            }
            if (trainKnobs) return "flap takes no count/gap; use flap-train=";
            break;
        case FaultKind::Kill:
            if (given.has("for")) {
                return "kill is permanent: 'for' does not apply "
                       "(use flap= for a transient outage)";
            }
            if (degradeKnobs) {
                return "kill takes no degrade knobs (bw/delay/drop)";
            }
            if (trainKnobs) return "kill takes no count/gap";
            break;
        case FaultKind::Degrade:
            if (!degradeKnobs) {
                return "degrade needs at least one of bw=, delay=, drop=";
            }
            if (trainKnobs) return "degrade takes no count/gap";
            break;
        case FaultKind::FlapTrain:
            if (degradeKnobs) {
                return "flap-train takes no degrade knobs (bw/delay/drop)";
            }
            break;
    }
    return "";
}

}  // namespace

bool parseFaultSpec(const std::string& body, FaultSpec& out,
                    std::string* err) {
    // The first pair names the fault and its target; the keys follow.
    const size_t comma = std::min(body.find(','), body.size());
    const std::string head = body.substr(0, comma);
    const bool named = std::any_of(
        std::begin(kFaultKinds), std::end(kFaultKinds),
        [&head](const SpecKey<FaultSpec>& k) {
            return head.rfind(std::string(k.name) + "=", 0) == 0;
        });
    FaultSpec spec;
    GivenKeys given;
    std::string why = named || body.empty()
                          ? readSpec("fault", head, kFaultKinds, spec)
                          : "fault spec must start with flap=/kill=/degrade=/"
                            "flap-train=<target> (got '" + head + "')";
    if (why.empty() && comma < body.size()) {
        why = readSpec("fault", body.substr(comma + 1), kFaultKeys, spec,
                       &given);
    }
    if (why.empty()) why = faultValueError(spec);
    if (why.empty()) why = faultKeysError(spec, given);
    if (!why.empty()) {
        if (err) *err = why;
        return false;
    }
    out = spec;
    return true;
}

std::string validateFaultSpec(const FaultSpec& spec,
                              const NetworkConfig& cfg) {
    const std::string why = faultValueError(spec);
    if (!why.empty()) return why;
    // "<tier> fault target index <i> out of range: ... (valid: tier0..tierN-1)"
    auto outOfRange = [&spec](const char* tier, const char* what, int n) {
        return std::string(tier) + " fault target index " +
               std::to_string(spec.targetIndex) +
               " out of range: this topology has " + std::to_string(n) + " " +
               what + " (valid: " + tier + "0.." + tier +
               std::to_string(n - 1) + ")";
    };
    switch (spec.targetKind) {
        case FaultTargetKind::Aggr:
            if (cfg.singleRack()) {
                return "aggr fault targets need a multi-rack fat-tree "
                       "topology (no aggregation switches here)";
            }
            if (spec.targetIndex >= cfg.totalAggrs()) {
                return outOfRange("aggr", "aggregation switches",
                                  cfg.totalAggrs());
            }
            break;
        case FaultTargetKind::Core:
            if (!cfg.threeTier()) {
                return "core fault targets need a three-tier topology "
                       "(no core switches here; set core=<n> in the topo "
                       "spec)";
            }
            if (spec.targetIndex >= cfg.coreSwitches) {
                return outOfRange("core", "core switches", cfg.coreSwitches);
            }
            break;
        case FaultTargetKind::Tor:
            if (spec.targetIndex >= cfg.racks) {
                return outOfRange("tor", "racks", cfg.racks);
            }
            break;
        case FaultTargetKind::Host:
            if (spec.targetIndex >= cfg.hostCount()) {
                return outOfRange("host", "hosts", cfg.hostCount());
            }
            break;
    }
    return "";
}

std::string faultSpecToString(const FaultSpec& spec) {
    char buf[160];
    std::snprintf(buf, sizeof(buf), "%s=%s%d", faultKindName(spec.kind),
                  faultTargetKindName(spec.targetKind), spec.targetIndex);
    std::string s = buf;
    // Whole nanoseconds print as microseconds to three places; a
    // sub-nanosecond part prints exactly in nanoseconds. Either form
    // reads back to the same picosecond.
    auto addDur = [&s](const char* key, Duration d) {
        char b[64];
        if (d % kNanosecond == 0) {
            std::snprintf(b, sizeof(b), ",%s=%.3fus", key, toMicros(d));
        } else {
            std::snprintf(b, sizeof(b), ",%s=%s%lld.%03lldns", key,
                          d < 0 ? "-" : "",
                          std::llabs(static_cast<long long>(d / kNanosecond)),
                          std::llabs(static_cast<long long>(d % kNanosecond)));
        }
        s += b;
    };
    addDur("at", spec.at);
    switch (spec.kind) {
        case FaultKind::Flap:
            addDur("for", spec.duration);
            break;
        case FaultKind::Kill:
            break;
        case FaultKind::Degrade:
            if (spec.duration > 0) addDur("for", spec.duration);
            s += ",bw=" + numberText(spec.bwFactor) +
                 ",drop=" + numberText(spec.dropProb);
            if (spec.extraDelay > 0) addDur("delay", spec.extraDelay);
            break;
        case FaultKind::FlapTrain: {
            char b[48];
            std::snprintf(b, sizeof(b), ",count=%d", spec.count);
            s += b;
            addDur("gap", spec.gap);
            addDur("for", spec.duration);
            break;
        }
    }
    return s;
}

uint64_t deriveFaultSeed(uint64_t trafficSeed) {
    // A fixed salt keeps the fault streams disjoint from every traffic
    // stream forked from the same seed.
    return mix64(trafficSeed ^ 0xFA17FA17FA17FA17ull);
}

FaultTimeline::FaultTimeline(Network& net, std::vector<FaultSpec> specs,
                             uint64_t seed)
    : net_(net), specs_(std::move(specs)), seed_(seed) {}

Switch* FaultTimeline::switchOfTarget(const FaultSpec& spec) {
    switch (spec.targetKind) {
        case FaultTargetKind::Tor: return &net_.tor(spec.targetIndex);
        case FaultTargetKind::Aggr: return &net_.aggr(spec.targetIndex);
        case FaultTargetKind::Core: return &net_.core(spec.targetIndex);
        case FaultTargetKind::Host: return nullptr;  // hosts are not switches
    }
    return nullptr;
}

// Every directed link of the target, both directions, in canonical order.
// Pod arithmetic: an aggr g serves pod g / aggrSwitches; its downlink to
// rack r is port (r - podStart), and the TOR uplink feeding it is port
// perRack + (g % aggrSwitches). On two-tier topologies the single implicit
// pod spans every rack, making all of this identical to the pre-core code.
template <typename Fn>
void FaultTimeline::forEachTargetPort(const FaultSpec& spec, Fn&& fn) {
    const NetworkConfig& cfg = net_.config();
    const int perRack = cfg.hostsPerRack;
    const int aggrPerPod = cfg.aggrSwitches;
    const int podRacks = cfg.podRacks();
    const int nCore = net_.coreCount();
    switch (spec.targetKind) {
        case FaultTargetKind::Host: {
            const HostId h = spec.targetIndex;
            fn(net_.host(h).nic());
            fn(net_.downlink(h));
            break;
        }
        case FaultTargetKind::Tor: {
            const int r = spec.targetIndex;
            Switch& tor = net_.tor(r);
            for (int i = 0; i < static_cast<int>(tor.portCount()); i++) {
                fn(tor.port(i));
            }
            for (int i = 0; i < perRack; i++) {
                fn(net_.host(r * perRack + i).nic());
            }
            const int podBase = cfg.podOfRack(r) * aggrPerPod;
            const int down = r - cfg.podOfRack(r) * podRacks;
            for (int a = 0; a < aggrPerPod; a++) {
                fn(net_.aggr(podBase + a).port(down));
            }
            break;
        }
        case FaultTargetKind::Aggr: {
            const int g = spec.targetIndex;
            const int pod = g / aggrPerPod;
            const int localA = g % aggrPerPod;
            for (int r = 0; r < podRacks; r++) {
                fn(net_.tor(pod * podRacks + r).port(perRack + localA));
                fn(net_.aggr(g).port(r));
            }
            for (int c = 0; c < nCore; c++) {
                fn(net_.aggr(g).port(podRacks + c));
                fn(net_.core(c).port(g));
            }
            break;
        }
        case FaultTargetKind::Core: {
            const int c = spec.targetIndex;
            for (int g = 0; g < net_.aggrCount(); g++) {
                fn(net_.aggr(g).port(podRacks + c));
                fn(net_.core(c).port(g));
            }
            break;
        }
    }
}

// The directed links *feeding* the target (a dead device's neighbors must
// stop transmitting toward it: their on-wire packets count as wireDrops —
// "in-flight packets on a dead link"). The target's own egress ports are
// handled by Switch::kill() (or, for hosts, included here).
template <typename Fn>
void FaultTimeline::forEachIngressPort(const FaultSpec& spec, Fn&& fn) {
    const NetworkConfig& cfg = net_.config();
    const int perRack = cfg.hostsPerRack;
    const int aggrPerPod = cfg.aggrSwitches;
    const int podRacks = cfg.podRacks();
    const int nCore = net_.coreCount();
    switch (spec.targetKind) {
        case FaultTargetKind::Host: {
            const HostId h = spec.targetIndex;
            fn(net_.host(h).nic());  // host death: its NIC dies too
            fn(net_.downlink(h));
            break;
        }
        case FaultTargetKind::Tor: {
            const int r = spec.targetIndex;
            for (int i = 0; i < perRack; i++) {
                fn(net_.host(r * perRack + i).nic());
            }
            const int podBase = cfg.podOfRack(r) * aggrPerPod;
            const int down = r - cfg.podOfRack(r) * podRacks;
            for (int a = 0; a < aggrPerPod; a++) {
                fn(net_.aggr(podBase + a).port(down));
            }
            break;
        }
        case FaultTargetKind::Aggr: {
            const int g = spec.targetIndex;
            const int pod = g / aggrPerPod;
            const int localA = g % aggrPerPod;
            for (int r = 0; r < podRacks; r++) {
                fn(net_.tor(pod * podRacks + r).port(perRack + localA));
            }
            for (int c = 0; c < nCore; c++) {
                fn(net_.core(c).port(g));
            }
            break;
        }
        case FaultTargetKind::Core: {
            const int c = spec.targetIndex;
            for (int g = 0; g < net_.aggrCount(); g++) {
                fn(net_.aggr(g).port(podRacks + c));
            }
            break;
        }
    }
}

void FaultTimeline::scheduleFlap(const FaultSpec& spec, Duration at,
                                 Duration down) {
    forEachTargetPort(spec, [at, down](EgressPort& p) {
        // Each port's events go on its own shard's loop; the nesting
        // down-count makes overlapping windows compose.
        p.loop().at(at, [&p] { p.faultLinkDown(); });
        p.loop().at(at + down, [&p] { p.faultLinkUp(); });
    });
    events_.linkDownEvents++;
    events_.linkUpEvents++;
}

void FaultTimeline::scheduleKill(const FaultSpec& spec) {
    Switch* sw = switchOfTarget(spec);
    const Duration at = spec.at;
    if (sw != nullptr) {
        sw->loop().at(at, [sw] { sw->kill(); });
    }
    forEachIngressPort(spec, [at](EgressPort& p) {
        p.loop().at(at, [&p] { p.faultKill(); });
    });
    events_.switchKills++;
}

void FaultTimeline::scheduleDegrade(const FaultSpec& spec) {
    const Duration at = spec.at;
    const Duration until = spec.duration > 0 ? at + spec.duration : -1;
    const double bw = spec.bwFactor;
    const Duration delay = spec.extraDelay;
    const double drop = spec.dropProb;
    const uint64_t seed = seed_;
    forEachTargetPort(spec, [&](EgressPort& p) {
        EgressPort* port = &p;
        // Per-port RNG seed: a pure function of (fault seed, canonical
        // link id) — identical at any shard count.
        const uint64_t portSeed =
            mix64(seed ^ (kGoldenGamma * (static_cast<uint64_t>(p.linkId()) + 1)));
        p.loop().at(at, [port, bw, delay, drop, portSeed] {
            port->setDegrade(bw, delay, drop, portSeed);
        });
        if (until >= 0) {
            p.loop().at(until, [port] { port->clearDegrade(); });
        }
    });
    events_.degradeEvents++;
}

void FaultTimeline::schedule() {
    if (scheduled_) {
        throw std::logic_error("FaultTimeline: schedule() called twice");
    }
    // Every spec is checked before any action is installed, so a bad spec
    // leaves the network untouched.
    for (const FaultSpec& spec : specs_) {
        const std::string verr = validateFaultSpec(spec, net_.config());
        if (!verr.empty()) {
            throw std::invalid_argument("FaultTimeline: invalid spec '" +
                                        faultSpecToString(spec) +
                                        "': " + verr);
        }
    }
    scheduled_ = true;
    for (size_t i = 0; i < specs_.size(); i++) {
        const FaultSpec& spec = specs_[i];
        switch (spec.kind) {
            case FaultKind::Flap:
                scheduleFlap(spec, spec.at, spec.duration);
                break;
            case FaultKind::Kill:
                scheduleKill(spec);
                break;
            case FaultKind::Degrade:
                scheduleDegrade(spec);
                break;
            case FaultKind::FlapTrain: {
                // Seed-derived random train: exponential down windows and
                // gaps, expanded deterministically at schedule time (the
                // expansion never touches simulation state, so it is
                // identical at any shard count).
                Rng rng(mix64(seed_ + kGoldenGamma * (i + 1)));
                Duration t = spec.at;
                for (int k = 0; k < spec.count; k++) {
                    const Duration down = std::max<Duration>(
                        1, exponentialDuration(rng, toSeconds(spec.duration)));
                    scheduleFlap(spec, t, down);
                    t += std::max<Duration>(
                        1, exponentialDuration(rng, toSeconds(spec.gap)));
                }
                break;
            }
        }
    }
}

FaultStats FaultTimeline::collect() const {
    FaultStats out = events_;
    auto addPort = [&out](const EgressPort& p) {
        out.wireDrops += p.stats().faultWireDrops;
        out.probDrops += p.stats().faultProbDrops;
    };
    for (HostId h = 0; h < net_.hostCount(); h++) {
        addPort(net_.host(h).nic());
    }
    auto addSwitch = [&](Switch& sw) {
        for (int i = 0; i < static_cast<int>(sw.portCount()); i++) {
            addPort(sw.port(i));
        }
        out.deadIngressDrops += sw.deadIngressDrops();
        out.flushDrops += sw.flushDrops();
    };
    for (int r = 0; r < net_.rackCount(); r++) addSwitch(net_.tor(r));
    for (int a = 0; a < net_.aggrCount(); a++) addSwitch(net_.aggr(a));
    for (int c = 0; c < net_.coreCount(); c++) addSwitch(net_.core(c));
    return out;
}

}  // namespace homa
