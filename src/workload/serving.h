// Multi-tenant RPC serving: tenants, replica groups, load balancing.
//
// The paper's motivating deployments are serving systems: many client
// fleets (tenants) issuing RPCs against shared, replicated server tiers.
// `runRpcExperiment` models this when `RpcExperimentConfig::serving` is
// populated: each `TenantConfig` owns a client subset with its own
// workload mix and arrival mode (open-loop Poisson or closed-loop
// window + think time), and sends to a named `ReplicaGroupConfig` — a
// server pool fronted by a pluggable load-balancing policy and an
// optional SLO-aware hedge (re-issue to a second replica once an RPC
// outlives a latency percentile; first response wins, the loser is
// cancelled on the RPC retry path).
//
// `ReplicaSelector` is the load-balancing seam. Selection is a pure
// function of (seed, tenant, per-tenant RPC sequence number) — plus, for
// power-of-two-choices, the outstanding-RPC depth the harness feeds in,
// which is itself deterministic — so serving runs replay byte-for-byte
// from the seed like everything else in the repo.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "sim/random.h"
#include "sim/time.h"
#include "workload/workloads.h"

namespace homa {

/// Replica choice policy of a group.
enum class LbPolicy {
    RoundRobin,  // seeded fair permutation, cycled per tenant
    Random,      // independent hash-uniform pick per RPC
    PowerOfTwo,  // two hash-uniform candidates, least outstanding wins
};

/// Canonical names: "rr", "random", "p2c".
const char* lbPolicyName(LbPolicy p);
/// Parses a policy name; returns false leaving `out` untouched on
/// unknown names.
bool lbPolicyFromName(const std::string& name, LbPolicy& out);

/// How a tenant's clients issue requests.
enum class ArrivalMode {
    Open,    // Poisson arrivals calibrated to TenantConfig::load
    Closed,  // TenantConfig::window outstanding, think time between refills
};

/// Canonical names: "open", "closed".
const char* arrivalModeName(ArrivalMode m);
bool arrivalModeFromName(const std::string& name, ArrivalMode& out);

/// A named server pool with a load-balancing policy and optional hedging.
struct ReplicaGroupConfig {
    std::string name = "pool";
    /// Servers in this group. Groups carve the server pool (hosts past
    /// the clients) in declaration order; 0 = all remaining servers
    /// (only legal for the last group).
    int replicas = 0;
    LbPolicy policy = LbPolicy::Random;

    /// SLO-aware hedging: 0 = off; p in (0, 1) re-issues an RPC to a
    /// second replica once it outlives the tenant's observed latency
    /// percentile p. First response wins; the loser is cancelled.
    double hedgePercentile = 0;
    /// Hedge delay never drops below this (early samples are noisy).
    Duration hedgeFloor = microseconds(20);
    /// Completed RPCs a tenant must observe before its hedges arm.
    int hedgeMinSamples = 32;

    bool hedging() const { return hedgePercentile > 0; }
};

/// One tenant: a client fleet with its own workload mix and arrival mode.
struct TenantConfig {
    std::string name = "tenant";
    WorkloadId workload = WorkloadId::W3;
    ArrivalMode mode = ArrivalMode::Open;
    double load = 0.5;       ///< open mode: per-client offered load fraction
    int window = 4;          ///< closed mode: RPCs kept outstanding per client
    Duration think = 0;      ///< closed mode: mean exponential think time
    int clients = 2;         ///< client hosts owned by this tenant
    std::string group;       ///< replica group name; empty = first group
};

/// The full serving shape: tenants plus the replica groups they target.
/// An empty tenant list disables serving mode entirely.
struct ServingConfig {
    std::vector<TenantConfig> tenants;
    /// Empty = one implicit group ("pool", all servers, random policy).
    std::vector<ReplicaGroupConfig> groups;

    bool enabled() const { return !tenants.empty(); }
    int totalClients() const;
    /// Groups with the implicit default filled in when `groups` is empty.
    std::vector<ReplicaGroupConfig> effectiveGroups() const;
};

/// A group resolved onto the server pool: servers
/// [first, first + count) counted from the first server host.
struct ResolvedGroup {
    int first = 0;
    int count = 0;
};

/// Carves `servers` server hosts into the config's effective groups in
/// declaration order. Returns false with a reason in *err when the pool
/// is too small or a non-final group asks for "the rest".
bool resolveReplicaGroups(const ServingConfig& cfg, int servers,
                          std::vector<ResolvedGroup>& out, std::string* err);

/// Index into effectiveGroups() of the group tenant `t` targets, or -1
/// when the name resolves to nothing.
int tenantGroupIndex(const ServingConfig& cfg, const TenantConfig& t);

/// Returns "" when the config is coherent for a cluster of `hostCount`
/// hosts, else a human-readable reason (duplicate names, dangling group
/// references, per-field range violations, or a pool that does not fit).
std::string validateServingConfig(const ServingConfig& cfg, int hostCount);

/// Parses the body of a "tenants:<body>" spec segment / --tenants flag:
/// ';'-separated tenants, each comma-separated k=v with keys (each at
/// most once per tenant)
///   name, wl (W1..W5), mode (open|closed), load, window, think_us,
///   clients, group.
/// Returns false leaving `out` untouched, with a reason in *err.
bool parseTenantsSpec(const std::string& body, std::vector<TenantConfig>& out,
                      std::string* err = nullptr);

/// Parses the body of a "replicas:<body>" spec segment / --replicas flag:
/// ';'-separated groups, each comma-separated k=v with keys
///   name, n (replica count; 0 = rest), lb (rr|random|p2c),
///   hedge (off or pNN, e.g. p95), hedge_floor_us, hedge_min.
bool parseReplicasSpec(const std::string& body,
                       std::vector<ReplicaGroupConfig>& out,
                       std::string* err = nullptr);

/// Canonical spec bodies (parse(print(x)) == x); the round-trip the spec
/// grammar tests pin.
std::string tenantsSpecToString(const std::vector<TenantConfig>& tenants);
std::string replicasSpecToString(const std::vector<ReplicaGroupConfig>& groups);

/// Replica choice for one (tenant, group) pair. Stateless: every pick is
/// a pure function of (seed, tenant, rpcSeq), so replays and sweeps see
/// identical selections regardless of call interleaving.
class ReplicaSelector {
public:
    /// Outstanding-RPC depth of group-local replica r, fed by the harness.
    using DepthFn = std::function<int(int)>;

    ReplicaSelector(LbPolicy policy, int replicas, uint64_t seed, int tenant);

    /// Group-local replica for the tenant's `rpcSeq`-th RPC. `depth` is
    /// only consulted by PowerOfTwo (pass {} for the other policies).
    int pick(uint64_t rpcSeq, const DepthFn& depth) const;

    /// The hedge target for `rpcSeq`: uniform over the group excluding
    /// `primary`. Requires replicas >= 2.
    int pickHedge(uint64_t rpcSeq, int primary) const;

    /// PowerOfTwo's two sampled candidates for `rpcSeq` (distinct when
    /// replicas >= 2); exposed so the property tests can check that
    /// pick() never returns a replica deeper than both.
    std::pair<int, int> candidates(uint64_t rpcSeq) const;

private:
    uint64_t draw(uint64_t salt, uint64_t rpcSeq) const;

    LbPolicy policy_;
    int replicas_;
    uint64_t base_;
    std::vector<int> perm_;  // RoundRobin's seeded fair permutation
};

}  // namespace homa
