// Experiment harness: build a network + protocol + workload, run, report.
#pragma once

#include <array>
#include <memory>
#include <string>

#include "core/homa_transport.h"
#include "driver/oracle.h"
#include "sim/fault.h"
#include "sim/fluid.h"
#include "sim/parallel.h"
#include "stats/closed_loop.h"
#include "stats/counters.h"
#include "stats/dag.h"
#include "stats/slowdown.h"
#include "workload/generator.h"

namespace homa {

/// The transports an experiment can run. Each has one row in the protocol
/// table (src/driver/experiment.cc): its name, transport factory and
/// switch queue. The baselines run at their papers' settings, which are
/// constants beside each transport (src/baselines/).
enum class Protocol {
    Homa,
    Basic,
    PHost,
    Pias,
    PFabric,
    Ndp,
    StreamSC,  // single connection per peer (InfRC-like, infinite window)
    StreamMC,  // connection per message (InfRC-MC / TCP-MC-like)
};
/// The number of Protocols, whose values run 0 .. kProtocolCount - 1
/// (StreamMC is the last).
constexpr int kProtocolCount = static_cast<int>(Protocol::StreamMC) + 1;

/// The protocol's name as the CLI and the benches print it, e.g. "pHost".
const char* protocolName(Protocol p);
/// The protocol named `name` (case-sensitive); false if none is.
bool protocolFromName(const std::string& name, Protocol& out);

struct ProtocolConfig {
    Protocol kind = Protocol::Homa;
    HomaConfig homa;  // Homa; Basic takes only its rttBytes
    /// Homa and Basic: seed the unscheduled priorities from the workload
    /// (paper §4); false = allocate them online from measured traffic
    /// (§3.4).
    bool precomputePriorities = true;
};

/// Transport factory + the switch queue discipline the protocol expects.
/// Values a transport derives come from `net` (its RTT bytes and packet
/// time) and, for PIAS's demotion thresholds, from `workload`: PIAS
/// throws std::invalid_argument without one.
TransportFactory makeTransportFactory(const ProtocolConfig& proto,
                                      const NetworkConfig& net,
                                      const SizeDistribution* workload);
std::function<std::unique_ptr<Qdisc>()> switchQdiscFor(
    const ProtocolConfig& proto);

struct ExperimentConfig {
    NetworkConfig net = NetworkConfig::fatTree144();
    ProtocolConfig proto;
    TrafficConfig traffic;
    /// Fraction of the generation window treated as warm-up (excluded from
    /// all statistics).
    double warmupFraction = 0.2;
    /// After generation stops, let in-flight messages finish for this long.
    Duration drainGrace = milliseconds(50);
    bool measureWastedBandwidth = false;
    /// Parallel engine: shard the simulation across this many threads
    /// (sim/parallel.h). Results are byte-identical at any thread count.
    /// Scenarios the engine cannot shard (closed-loop, DAG, single-rack,
    /// zero switch delay, wasted-bandwidth probes, fluid hybrid) run
    /// serially, and the Network caps the count at the rack count;
    /// ExperimentResult::shards reports what ran.
    ParallelConfig parallel;
    /// Fluid fast path (sim/fluid.h): messages with length >= this many
    /// bytes become flow-level fluid transfers instead of packets; 0 sends
    /// everything fluid, -1 (default) disables the engine entirely. A
    /// scenario "fluid:" modifier overrides this. Fluid runs are serial
    /// (any `parallel.threads` yields byte-identical results) and do not
    /// compose with fault injection (runExperiment throws).
    int64_t fluidThresholdBytes = -1;
};

struct ExperimentResult {
    uint64_t generated = 0;
    uint64_t delivered = 0;        // within the measurement window
    uint64_t deliveredTotal = 0;   // including warm-up and drain
    /// One-host tracker of every in-window delivery's slowdown.
    std::unique_ptr<SlowdownTracker> slowdown;
    /// Shards the run's network built (Network::shardCount()): 1 when the
    /// engine ran serially. Left out of resultFingerprint, so serial and
    /// sharded fingerprints stay equal.
    int shards = 1;

    Time windowStart = 0;
    Time windowEnd = 0;

    double downlinkUtilization = 0;  // wire bytes / capacity in window
    double wastedBandwidth = 0;      // Figure 16 metric
    QueueOccupancy torUp, aggrDown, torDown;      // Table 1
    std::array<double, kPriorityLevels> prioUsage{};  // Figure 21
    uint64_t switchDrops = 0;
    uint64_t switchTrims = 0;

    // Three-tier topologies only (all zero when coreSwitches == 0, and
    // excluded from resultFingerprint so two-tier fingerprints are
    // unchanged). Utilizations are mean link busy fractions over the run;
    // on an oversubscribed core, coreLinkUtilization > aggrLinkUtilization
    // is the contention signature fig_oversub sweeps.
    int coreSwitches = 0;                 // from the final net config
    QueueOccupancy aggrUp, coreDown;      // aggr->core and core->aggr queues
    double aggrLinkUtilization = 0;       // TOR->aggr links
    double coreLinkUtilization = 0;       // aggr->core links

    /// Closed-loop scenarios only (null otherwise): per-source-host
    /// throughput and message-latency percentiles in the window.
    std::unique_ptr<ClosedLoopTracker> closedLoop;
    /// Dag scenarios only (null otherwise): per-tree completion-time and
    /// slowdown percentiles in the window.
    std::unique_ptr<DagTracker> dag;
    /// Closed-loop/dag scenarios only: peak per-host outstanding count the
    /// generator observed (never exceeds the configured window).
    int maxOutstanding = 0;

    /// Fault scenarios only (null otherwise): fault event counts and
    /// drops by cause (sim/fault.h). The by-cause drops on switch ports
    /// are also folded into `switchDrops`.
    std::unique_ptr<FaultStats> faults;

    /// Fluid-hybrid runs only (null otherwise): the fluid regime's flow
    /// counts, byte ledger, solver epochs, and slowdown percentiles
    /// (sim/fluid.h). Fluid deliveries also feed `slowdown` and the
    /// delivered counters, so whole-run statistics cover both regimes;
    /// wire-level stats (utilization, queue occupancy, prioUsage) cover
    /// only the packet regime — fluid bytes never touch the wires. When
    /// the threshold admits zero flows the block stays out of
    /// resultFingerprint, so such runs replay byte-identical to pre-fluid
    /// goldens.
    std::unique_ptr<FluidStats> fluid;

    /// True when the protocol kept up with the offered load: the backlog
    /// of undelivered messages at the end of generation is bounded.
    bool keptUp = false;
};

/// Why Homa cannot run with `cfg`, or "" when it can. Switches have 8
/// priority levels, so `wirePriorities` is in [1, 8] and
/// `logicalPriorities` in [2, 8] (one unscheduled and one scheduled level
/// at least); an explicit `unschedPriorities` (> 0) stays below
/// `logicalPriorities`; `oldestReservation` is a fraction in [0, 1]. Loss
/// recovery needs `resendTimeout` > 0 (at 0 or below, a run silently
/// loses messages), `maxResends` >= 0 and `senderLinger` >= 0.
std::string homaConfigError(const HomaConfig& cfg);

/// Why `cfg` cannot run, or "" when it can — the one validation point the
/// CLI, the sweeps and runExperiment share: a serving scenario (those run
/// through runRpcExperiment), anything scenarioError rejects, a `topoSpec`
/// that does not apply to `net`, fault targets missing from the final
/// topology, ECMP without uplinks, a fluid threshold combined with fault
/// injection, Homa knobs homaConfigError rejects (under Homa), an
/// open-loop `load` outside (0, 1.5], `traffic.stop` not after
/// `traffic.start`, and `warmupFraction` outside [0, 1].
std::string experimentConfigError(const ExperimentConfig& cfg);

/// Throws std::invalid_argument("runExperiment: <reason>") before building
/// anything when experimentConfigError rejects `cfg`.
ExperimentResult runExperiment(const ExperimentConfig& cfg);

/// Capacity search for Figure 15: highest load (percent, step `stepPct`)
/// the protocol sustains (keptUp) for the workload.
double findMaxLoad(ExperimentConfig base, double startPct = 40,
                   double stepPct = 5, double maxPct = 95);

}  // namespace homa
