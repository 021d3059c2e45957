// RPC experiment harness — the implementation measurements of §5.1.
//
// Mirrors the paper's CloudLab setup: a single-switch cluster whose hosts
// [0, clients) are clients and the rest servers. runRpcExperiment runs
// one of two modes on one shared harness (network and endpoints,
// per-client RNG streams, issue schedules, run and close):
//  * Echo RPCs (default): clients send `size` bytes to random servers,
//    which return them, at open-loop Poisson arrivals calibrated to
//    `load`. Slowdown is measured against the best-case RPC time on an
//    unloaded network.
//  * Multi-tenant serving against replica groups (`serving.tenants`).
// Closed-loop windows, ON-OFF bursts and fan-out/fan-in trees are
// message-level scenarios (runExperiment, workload/scenario.h).
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
#include "workload/serving.h"

namespace homa {

struct RpcExperimentConfig {
    NetworkConfig net = NetworkConfig::singleRack16();
    ProtocolConfig proto;
    WorkloadId workload = WorkloadId::W3;
    double load = 0.8;
    uint64_t seed = 17;
    Time stop = milliseconds(20);
    double warmupFraction = 0.2;
    Duration drainGrace = milliseconds(30);
    int clients = 8;  // hosts [0, clients) are clients, the rest servers

    /// Multi-tenant serving mode when `serving.tenants` is non-empty:
    /// each tenant owns a client subset (serving.totalClients() replaces
    /// `clients`) with its own workload/arrival mode, and sends to a
    /// replica group (named server pool) through a ReplicaSelector —
    /// round-robin, random, or power-of-two-choices on outstanding-RPC
    /// depth — with optional SLO-aware hedging (workload/serving.h).
    /// `workload` and `load` are then ignored (each tenant carries its
    /// own).
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
    /// Slowdown vs best echo RPC time (echo mode only).
    std::unique_ptr<SlowdownTracker> slowdown;
    /// Per-client in-window throughput and RPC latency percentiles.
    std::unique_ptr<ClosedLoopTracker> perClient;
    /// Serving mode only (null otherwise): per-tenant SLO metrics.
    std::unique_ptr<TenantTracker> tenants;
    /// Serving mode conservation ledgers (all-zero otherwise).
    ServingStats serving;
    bool keptUp = false;
};

/// Why `cfg` cannot run, or "" when it can: a bad topology or serving
/// config (a serving config's reason is validateServingConfig's); no client
/// or no server host; Homa knobs homaConfigError rejects (under Homa); and
/// an echo `load` that is not finite and > 0.
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
