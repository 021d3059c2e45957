// RPC experiment harness — the implementation measurements of §5.1.
//
// Mirrors the paper's CloudLab setup: a single-switch cluster whose hosts
// [0, clients) are clients and the rest servers. runRpcExperiment runs
// one of three modes on one shared harness (network and endpoints,
// per-client RNG streams, ON-OFF-gated issue schedules, run and close):
//  * Echo RPCs (default): clients send `size` bytes to random servers,
//    which return them. Slowdown is measured against the best-case RPC
//    time on an unloaded network. Open loop issues Poisson arrivals
//    calibrated to `load`; closed loop (`closedLoopWindow` > 0) keeps that
//    many RPCs in flight per client, each refilled after an optional think
//    time. Either composes with ON-OFF burst/idle modulation (`onOff`):
//    open-loop arrivals run on the client's ON-time clock at a boosted
//    rate, closed-loop clients pause during idle periods and refill their
//    window at burst start.
//  * Fan-out/fan-in trees of real RPCs (`dagMode`).
//  * Multi-tenant serving against replica groups (`serving.tenants`).
// It checks the config before building anything, in every build type, and
// throws std::invalid_argument("runRpcExperiment: <reason>") when
// rpcExperimentConfigError rejects it.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/rpc.h"
#include "driver/experiment.h"
#include "stats/tenant.h"
#include "workload/rpc_dag.h"
#include "workload/serving.h"

namespace homa {

struct RpcExperimentConfig {
    NetworkConfig net = NetworkConfig::singleRack16();
    ProtocolConfig proto;
    WorkloadId workload = WorkloadId::W3;
    double load = 0.8;  // open loop only; closed loop sets its own rate
    uint64_t seed = 17;
    Time stop = milliseconds(20);
    double warmupFraction = 0.2;
    Duration drainGrace = milliseconds(30);
    int clients = 8;  // hosts [0, clients) are clients, the rest servers

    /// Closed-loop mode when > 0: RPCs each client keeps outstanding.
    int closedLoopWindow = 0;
    /// Closed loop: mean exponential think time before the next request.
    Duration thinkTime = 0;
    /// ON-OFF burst/idle modulation of request issue (both modes).
    OnOffConfig onOff;

    /// Fan-out/fan-in mode: instead of independent echo RPCs, each client
    /// issues partition-aggregate trees (workload/rpc_dag.h) as *real*
    /// RPCs — internal nodes answer their parent via deferred responses
    /// only after all their child RPCs return. Tree node hosts are drawn
    /// from the servers; clients run closed-loop over trees (`dag.window`
    /// each; `load` and `closedLoopWindow` are ignored). ON-OFF gates
    /// tree issues. Requires >= 2 servers when dag.depth >= 2.
    bool dagMode = false;
    DagConfig dag;

    /// Multi-tenant serving mode when `serving.tenants` is non-empty:
    /// each tenant owns a client subset (serving.totalClients() replaces
    /// `clients`) with its own workload/arrival mode, and sends to a
    /// replica group (named server pool) through a ReplicaSelector —
    /// round-robin, random, or power-of-two-choices on outstanding-RPC
    /// depth — with optional SLO-aware hedging (workload/serving.h).
    /// Mutually exclusive with `dagMode`; `workload`, `load`,
    /// `closedLoopWindow`, `thinkTime`, and `onOff` are ignored (each
    /// tenant carries its own).
    ServingConfig serving;
};

/// Whole-run conservation ledgers of a serving experiment (not
/// window-gated — conservation must hold over *every* call, or the
/// accounting is broken). The serving tests pin these invariants:
///   callsIssued       == logicalIssued + hedgesIssued
///   responsesConsumed == logicalCompleted   (one response per logical RPC)
///   hedgesIssued      == hedgesWon + hedgesCancelled + hedgesFailed
///   primariesCancelled== hedgesWon          (losing primary cancelled)
///   issuedBytes       == consumedBytes + refundedBytes + unresolvedBytes
/// The byte ledger is exact because servers echo (response size ==
/// request size): every call is worth 2*size, consumed by the winning
/// response, refunded when the call is cancelled, or left unresolved at
/// run end.
struct ServingStats {
    uint64_t logicalIssued = 0;      ///< logical RPCs started
    uint64_t logicalCompleted = 0;   ///< logical RPCs whose response arrived
    uint64_t callsIssued = 0;        ///< endpoint calls: primaries + hedges
    uint64_t responsesConsumed = 0;  ///< responses that completed a logical
    uint64_t hedgesIssued = 0;
    uint64_t hedgesWon = 0;          ///< hedge answered first
    uint64_t hedgesCancelled = 0;    ///< primary answered first
    uint64_t hedgesFailed = 0;       ///< hedge unresolved at run end
    uint64_t primariesCancelled = 0; ///< primaries cancelled by winning hedge
    int64_t issuedBytes = 0;         ///< 2*size per call at issue
    int64_t consumedBytes = 0;       ///< 2*size of each winning call
    int64_t refundedBytes = 0;       ///< 2*size of each cancelled call
    int64_t unresolvedBytes = 0;     ///< calls never resolved by run end
};

struct RpcExperimentResult {
    uint64_t issued = 0;
    uint64_t completed = 0;
    uint64_t retries = 0;
    uint64_t reexecutions = 0;
    /// Slowdown vs best echo RPC time (null in dag mode — per-edge RPCs
    /// are not echoes, so the echo oracle has no denominator there).
    std::unique_ptr<SlowdownTracker> slowdown;
    /// Per-client in-window throughput and RPC latency percentiles (dag
    /// mode: one op per completed tree).
    std::unique_ptr<ClosedLoopTracker> perClient;
    /// Dag mode only (null otherwise): per-tree completion and slowdown.
    /// `issued`/`completed` then count trees, not individual RPCs.
    std::unique_ptr<DagTracker> dag;
    /// Serving mode only (null otherwise): per-tenant SLO metrics.
    std::unique_ptr<TenantTracker> tenants;
    /// Serving mode conservation ledgers (all-zero otherwise).
    ServingStats serving;
    bool keptUp = false;
};

/// Why `cfg` cannot run, or "" when it can: a bad topology, serving or DAG
/// config (a serving config's reason is validateServingConfig's); `dagMode`
/// with serving tenants; no client or no server host (a DAG deeper than 1
/// needs two servers); Homa knobs homaConfigError rejects (under Homa); an
/// open-loop echo `load` that is not finite and > 0; and, outside serving
/// mode, ON-OFF periods onOffError rejects.
std::string rpcExperimentConfigError(const RpcExperimentConfig& cfg);

/// Throws std::invalid_argument on a config it cannot run (see
/// rpcExperimentConfigError).
RpcExperimentResult runRpcExperiment(const RpcExperimentConfig& cfg);

/// Canonical serialization of everything an RpcExperimentResult measures,
/// doubles as hex floats — the RPC-side sibling of
/// resultFingerprint(ExperimentResult) in driver/sweep.h. Two results are
/// byte-identical iff their fingerprints are equal; the serving
/// determinism goldens diff these across replays, thread counts, and
/// sweep widths. The tenant/serving block appears only when `r.tenants`
/// is set, so non-serving fingerprints are unchanged by the serving
/// layer's existence.
std::string resultFingerprint(const RpcExperimentResult& r);

/// Figure 10: one client (host 0) issues `concurrent` RPCs in parallel to
/// the other 15 hosts (tiny request, `responseBytes` response), refilling
/// as responses arrive until `totalRpcs` complete. Returns goodput in Gbps
/// at the client downlink and the count of RPCs that needed client retries.
struct IncastResult {
    double throughputGbps = 0;
    uint64_t completed = 0;
    uint64_t retries = 0;
};

IncastResult runIncastExperiment(int concurrent, bool incastControl,
                                 uint32_t responseBytes = 10000,
                                 int totalRpcs = 0, uint64_t seed = 3);

}  // namespace homa
