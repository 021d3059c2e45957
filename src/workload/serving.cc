#include "workload/serving.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <type_traits>

#include "sim/parse.h"

namespace homa {

const char* lbPolicyName(LbPolicy p) {
    switch (p) {
        case LbPolicy::RoundRobin: return "rr";
        case LbPolicy::Random: return "random";
        case LbPolicy::PowerOfTwo: return "p2c";
    }
    return "?";
}

bool lbPolicyFromName(const std::string& name, LbPolicy& out) {
    for (LbPolicy p : {LbPolicy::RoundRobin, LbPolicy::Random,
                       LbPolicy::PowerOfTwo}) {
        if (name == lbPolicyName(p)) {
            out = p;
            return true;
        }
    }
    return false;
}

const char* arrivalModeName(ArrivalMode m) {
    return m == ArrivalMode::Open ? "open" : "closed";
}

bool arrivalModeFromName(const std::string& name, ArrivalMode& out) {
    if (name == "open") {
        out = ArrivalMode::Open;
        return true;
    }
    if (name == "closed") {
        out = ArrivalMode::Closed;
        return true;
    }
    return false;
}

int ServingConfig::totalClients() const {
    int total = 0;
    for (const TenantConfig& t : tenants) total += t.clients;
    return total;
}

std::vector<ReplicaGroupConfig> ServingConfig::effectiveGroups() const {
    if (!groups.empty()) return groups;
    return {ReplicaGroupConfig{}};  // "pool": all servers, random policy
}

bool resolveReplicaGroups(const ServingConfig& cfg, int servers,
                          std::vector<ResolvedGroup>& out, std::string* err) {
    auto fail = [err](const std::string& why) {
        if (err) *err = why;
        return false;
    };
    const std::vector<ReplicaGroupConfig> groups = cfg.effectiveGroups();
    std::vector<ResolvedGroup> resolved;
    int next = 0;
    for (size_t g = 0; g < groups.size(); g++) {
        const ReplicaGroupConfig& grp = groups[g];
        int count = grp.replicas;
        if (count == 0) {
            if (g + 1 != groups.size()) {
                return fail("group '" + grp.name + "': n=0 (the rest of the "
                            "pool) is only legal for the last group");
            }
            count = servers - next;
        }
        if (count < 1 || next + count > servers) {
            return fail("group '" + grp.name + "' needs " +
                        std::to_string(count) + " replica(s) but only " +
                        std::to_string(servers - next) + " of " +
                        std::to_string(servers) + " server hosts remain");
        }
        resolved.push_back(ResolvedGroup{next, count});
        next += count;
    }
    out = std::move(resolved);
    return true;
}

int tenantGroupIndex(const ServingConfig& cfg, const TenantConfig& t) {
    const std::vector<ReplicaGroupConfig> groups = cfg.effectiveGroups();
    if (t.group.empty()) return 0;
    for (size_t g = 0; g < groups.size(); g++) {
        if (groups[g].name == t.group) return static_cast<int>(g);
    }
    return -1;
}

std::string validateServingConfig(const ServingConfig& cfg, int hostCount) {
    if (cfg.tenants.empty()) return "serving needs at least one tenant";
    for (const TenantConfig& t : cfg.tenants) {
        if (t.name.empty()) return "tenant names must be non-empty";
        if (t.clients < 1) {
            return "tenant '" + t.name + "': clients must be >= 1";
        }
        if (t.mode == ArrivalMode::Open &&
            (t.load <= 0 || t.load > 1.5)) {
            return "tenant '" + t.name + "': load must be in (0, 1.5]";
        }
        if (t.mode == ArrivalMode::Closed && t.window < 1) {
            return "tenant '" + t.name + "': window must be >= 1";
        }
        if (t.think < 0) {
            return "tenant '" + t.name + "': think time must be >= 0";
        }
    }
    for (size_t i = 0; i < cfg.tenants.size(); i++) {
        for (size_t j = i + 1; j < cfg.tenants.size(); j++) {
            if (cfg.tenants[i].name == cfg.tenants[j].name) {
                return "duplicate tenant name '" + cfg.tenants[i].name + "'";
            }
        }
    }
    const std::vector<ReplicaGroupConfig> groups = cfg.effectiveGroups();
    for (const ReplicaGroupConfig& g : groups) {
        if (g.name.empty()) return "replica group names must be non-empty";
        if (g.replicas < 0) {
            return "group '" + g.name + "': n must be >= 0";
        }
        if (g.hedgePercentile < 0 || g.hedgePercentile >= 1) {
            return "group '" + g.name + "': hedge percentile must be in "
                   "[0, 1) (0 = off)";
        }
        if (g.hedgeFloor < 0) {
            return "group '" + g.name + "': hedge floor must be >= 0";
        }
        if (g.hedgeMinSamples < 1) {
            return "group '" + g.name + "': hedge_min must be >= 1";
        }
    }
    for (size_t i = 0; i < groups.size(); i++) {
        for (size_t j = i + 1; j < groups.size(); j++) {
            if (groups[i].name == groups[j].name) {
                return "duplicate replica group name '" + groups[i].name + "'";
            }
        }
    }
    for (const TenantConfig& t : cfg.tenants) {
        if (tenantGroupIndex(cfg, t) < 0) {
            return "tenant '" + t.name + "' targets unknown replica group '" +
                   t.group + "'";
        }
    }
    const int clients = cfg.totalClients();
    const int servers = hostCount - clients;
    if (servers < 1) {
        return "serving needs at least one server host: " +
               std::to_string(clients) + " tenant clients leave " +
               std::to_string(servers) + " of " + std::to_string(hostCount) +
               " hosts";
    }
    std::vector<ResolvedGroup> resolved;
    std::string err;
    if (!resolveReplicaGroups(cfg, servers, resolved, &err)) return err;
    for (size_t g = 0; g < groups.size(); g++) {
        const bool needsTwo = groups[g].policy == LbPolicy::PowerOfTwo ||
                              groups[g].hedging();
        if (needsTwo && resolved[g].count < 2) {
            return "group '" + groups[g].name + "': " +
                   std::string(groups[g].policy == LbPolicy::PowerOfTwo
                                   ? "p2c"
                                   : "hedging") +
                   " needs >= 2 replicas";
        }
    }
    return "";
}

// ------------------------------------------------------------ spec grammar

namespace {

std::string fmtDouble(double v) {
    char buf[48];
    std::snprintf(buf, sizeof(buf), "%g", v);
    return buf;
}

/// Reads `body`, ';'-separated entries of the grammar's keys, into `out`;
/// each entry must be named. `check`, if set, gets each entry and the
/// keys it gave. Returns why the body cannot be read, or "".
template <typename Config, size_t N>
std::string readEntries(const std::string& grammar, const std::string& body,
                        const SpecKey<Config> (&keys)[N],
                        std::type_identity_t<std::string (*)(
                            const Config&, const GivenKeys&)> check,
                        std::vector<Config>& out) {
    if (body.empty()) return "empty " + grammar + " spec";
    std::vector<Config> entries;
    for (const std::string& entry : split(body, ';')) {
        if (entry.empty()) return "empty " + grammar + " entry (stray ';')";
        Config c;
        c.name.clear();  // must be named explicitly
        GivenKeys given;
        std::string why = readSpec(grammar, entry, keys, c, &given);
        if (why.empty() && c.name.empty()) {
            why = grammar + " entry '" + entry + "' has no name= key";
        }
        if (why.empty() && check != nullptr) why = check(c, given);
        if (!why.empty()) return why;
        entries.push_back(std::move(c));
    }
    out = std::move(entries);
    return "";
}

bool succeeded(const std::string& why, std::string* err) {
    if (!why.empty() && err) *err = why;
    return why.empty();
}

const SpecKey<TenantConfig> kTenantKeys[] = {
    {"name",
     [](TenantConfig& t, const std::string& v) {
         t.name = v;
         return std::string();
     }},
    {"wl",
     [](TenantConfig& t, const std::string& v) -> std::string {
         try {
             t.workload = workloadFromName(v);
         } catch (const std::invalid_argument&) {
             return "expected W1..W5";
         }
         return "";
     }},
    {"mode",
     [](TenantConfig& t, const std::string& v) -> std::string {
         return arrivalModeFromName(v, t.mode) ? ""
                                               : "expected open or closed";
     }},
    {"load",
     [](TenantConfig& t, const std::string& v) { return number(v, t.load); }},
    {"window",
     [](TenantConfig& t, const std::string& v) { return count(v, t.window); }},
    // validateServingConfig owns the sign rule.
    {"think_us",
     [](TenantConfig& t, const std::string& v) {
         return duration(v, kMicrosecond, t.think);
     }},
    {"clients",
     [](TenantConfig& t, const std::string& v) {
         return count(v, t.clients);
     }},
    {"group",
     [](TenantConfig& t, const std::string& v) {
         t.group = v;
         return std::string();
     }},
};

// A knob of the other arrival mode would be ignored.
std::string tenantKnobsError(const TenantConfig& t, const GivenKeys& given) {
    if (t.mode == ArrivalMode::Open &&
        (given.has("window") || given.has("think_us"))) {
        return "tenant '" + t.name + "': window/think_us are closed-mode "
               "knobs (mode=open sets load)";
    }
    if (t.mode == ArrivalMode::Closed && given.has("load")) {
        return "tenant '" + t.name + "': load is an open-mode knob "
               "(mode=closed sets window/think_us)";
    }
    return "";
}

const SpecKey<ReplicaGroupConfig> kReplicaKeys[] = {
    {"name",
     [](ReplicaGroupConfig& g, const std::string& v) {
         g.name = v;
         return std::string();
     }},
    {"n",
     [](ReplicaGroupConfig& g, const std::string& v) {
         return count(v, g.replicas);
     }},
    {"lb",
     [](ReplicaGroupConfig& g, const std::string& v) -> std::string {
         return lbPolicyFromName(v, g.policy) ? ""
                                              : "expected rr, random, or p2c";
     }},
    {"hedge",
     [](ReplicaGroupConfig& g, const std::string& v) -> std::string {
         int pct = 0;
         if (v == "off") {
             g.hedgePercentile = 0;
         } else if (v.size() >= 2 && v[0] == 'p' &&
                    count(v.substr(1), pct, 99).empty() && pct >= 1) {
             g.hedgePercentile = pct / 100.0;
         } else {
             return "expected off or p1..p99 (e.g. p95)";
         }
         return "";
     }},
    {"hedge_floor_us",
     [](ReplicaGroupConfig& g, const std::string& v) {
         return duration(v, kMicrosecond, g.hedgeFloor);
     }},
    {"hedge_min",
     [](ReplicaGroupConfig& g, const std::string& v) {
         return count(v, g.hedgeMinSamples);
     }},
};

}  // namespace

bool parseTenantsSpec(const std::string& body, std::vector<TenantConfig>& out,
                      std::string* err) {
    return succeeded(
        readEntries("tenant", body, kTenantKeys, tenantKnobsError, out), err);
}

bool parseReplicasSpec(const std::string& body,
                       std::vector<ReplicaGroupConfig>& out,
                       std::string* err) {
    return succeeded(readEntries("replica", body, kReplicaKeys, nullptr, out),
                     err);
}

std::string tenantsSpecToString(const std::vector<TenantConfig>& tenants) {
    std::string s;
    for (size_t i = 0; i < tenants.size(); i++) {
        const TenantConfig& t = tenants[i];
        if (i > 0) s += ';';
        s += "name=" + t.name;
        s += ",wl=" + std::string(workloadName(t.workload));
        s += ",mode=" + std::string(arrivalModeName(t.mode));
        if (t.mode == ArrivalMode::Open) {
            s += ",load=" + fmtDouble(t.load);
        } else {
            s += ",window=" + std::to_string(t.window);
            if (t.think > 0) {
                s += ",think_us=" + fmtDouble(toMicros(t.think));
            }
        }
        s += ",clients=" + std::to_string(t.clients);
        if (!t.group.empty()) s += ",group=" + t.group;
    }
    return s;
}

std::string replicasSpecToString(
    const std::vector<ReplicaGroupConfig>& groups) {
    std::string s;
    for (size_t i = 0; i < groups.size(); i++) {
        const ReplicaGroupConfig& g = groups[i];
        if (i > 0) s += ';';
        s += "name=" + g.name;
        s += ",n=" + std::to_string(g.replicas);
        s += ",lb=" + std::string(lbPolicyName(g.policy));
        if (g.hedging()) {
            s += ",hedge=p" + std::to_string(static_cast<int>(
                                  g.hedgePercentile * 100 + 0.5));
            s += ",hedge_floor_us=" + fmtDouble(toMicros(g.hedgeFloor));
            s += ",hedge_min=" + std::to_string(g.hedgeMinSamples);
        }
    }
    return s;
}

// --------------------------------------------------------- ReplicaSelector

ReplicaSelector::ReplicaSelector(LbPolicy policy, int replicas, uint64_t seed,
                                 int tenant)
    : policy_(policy), replicas_(replicas) {
    assert(replicas_ >= 1);
    // One mixed base per (seed, tenant): draws chain mix64 over it so any
    // (salt, rpcSeq) pair lands on an independent value.
    base_ = mix64(seed + kGoldenGamma *
                             (static_cast<uint64_t>(tenant) + 1));
    if (policy_ == LbPolicy::RoundRobin) {
        // Seeded Fisher-Yates permutation: fair (each replica exactly once
        // per cycle of `replicas_` picks) but not phase-aligned across
        // tenants, so co-located tenants do not march in lockstep.
        perm_.resize(static_cast<size_t>(replicas_));
        for (int i = 0; i < replicas_; i++) perm_[static_cast<size_t>(i)] = i;
        Rng rng(base_);
        for (int i = replicas_ - 1; i > 0; i--) {
            const int j = static_cast<int>(
                rng.below(static_cast<uint64_t>(i) + 1));
            std::swap(perm_[static_cast<size_t>(i)],
                      perm_[static_cast<size_t>(j)]);
        }
    }
}

uint64_t ReplicaSelector::draw(uint64_t salt, uint64_t rpcSeq) const {
    return mix64(base_ ^ mix64(rpcSeq + kGoldenGamma * (salt + 1)));
}

std::pair<int, int> ReplicaSelector::candidates(uint64_t rpcSeq) const {
    const int n = replicas_;
    const int c1 = static_cast<int>(draw(1, rpcSeq) %
                                    static_cast<uint64_t>(n));
    if (n < 2) return {c1, c1};
    const int off = static_cast<int>(draw(2, rpcSeq) %
                                     static_cast<uint64_t>(n - 1));
    const int c2 = (c1 + 1 + off) % n;
    return {c1, c2};
}

int ReplicaSelector::pick(uint64_t rpcSeq, const DepthFn& depth) const {
    const int n = replicas_;
    switch (policy_) {
        case LbPolicy::RoundRobin:
            return perm_[static_cast<size_t>(rpcSeq %
                                             static_cast<uint64_t>(n))];
        case LbPolicy::Random:
            return static_cast<int>(draw(0, rpcSeq) %
                                    static_cast<uint64_t>(n));
        case LbPolicy::PowerOfTwo: {
            const auto [c1, c2] = candidates(rpcSeq);
            if (c1 == c2 || !depth) return c1;
            // Ties go to the first candidate: either way the winner is no
            // deeper than both, the property the tests pin.
            return depth(c2) < depth(c1) ? c2 : c1;
        }
    }
    return 0;
}

int ReplicaSelector::pickHedge(uint64_t rpcSeq, int primary) const {
    assert(replicas_ >= 2);
    assert(primary >= 0 && primary < replicas_);
    const int off = static_cast<int>(draw(3, rpcSeq) %
                                     static_cast<uint64_t>(replicas_ - 1));
    return (primary + 1 + off) % replicas_;
}

}  // namespace homa
