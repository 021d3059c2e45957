// Traffic scenarios: who talks to whom, and at what relative rate.
//
// The paper's evaluation (§5.2) uses uniform-random Poisson traffic, but
// receiver-driven scheduling is stressed hardest by *skewed* matrices:
// fan-in hotspots (incast), rack-local locality, and heavy-tailed sender
// popularity. `TrafficPattern` is the seam behind `TrafficGenerator` that
// owns destination choice and per-sender rate weighting; `ScenarioConfig`
// selects and parameterizes a pattern and rides inside `TrafficConfig`, so
// every experiment, bench, and the sweep runner can pick a scenario.
//
// All patterns are deterministic given (config, seed): pattern-internal
// randomness (permutations, hotspot placement, popularity ranks) is fixed
// at construction from the seed the generator passes in.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "sim/fault.h"
#include "sim/packet.h"
#include "sim/random.h"
#include "sim/time.h"
#include "workload/rpc_dag.h"
#include "workload/serving.h"

namespace homa {

enum class TrafficPatternKind {
    Uniform,        // destinations uniform over the other hosts (the paper)
    Permutation,    // fixed random derangement: host i always sends to p(i)
    RackSkew,       // rackLocalFraction of messages stay inside the rack
    Incast,         // N-to-1 fan-in groups aimed at a few hot receivers
    ParetoSenders,  // sender popularity ~ rank^-alpha, destinations uniform
    TraceReplay,    // explicit (time, src, dst, size) schedule from text
    ClosedLoop,     // W outstanding messages per host; next issues on delivery
    Dag,            // fan-out/fan-in RPC trees (partition-aggregate)
};

/// Returns the canonical name of a pattern ("uniform", "closed-loop", ...).
const char* patternName(TrafficPatternKind kind);
/// Parses a pattern name (as printed by patternName, case-sensitive);
/// returns false and leaves `out` untouched on unknown names.
bool patternFromName(const std::string& name, TrafficPatternKind& out);

/// Distribution family for ON-OFF burst/idle period durations.
enum class OnOffDist {
    Exponential,  // memoryless periods (classic interrupted Poisson process)
    Pareto,       // heavy-tailed periods (self-similar traffic, shape > 1)
};

/// Returns "exp" or "pareto".
const char* onOffDistName(OnOffDist d);
/// Parses an ON-OFF distribution name; false on unknown names.
bool onOffDistFromName(const std::string& name, OnOffDist& out);

/// Bursty arrival modulation, composable with every Poisson pattern and
/// with closed-loop clients. Each host alternates independent ON (burst)
/// and OFF (idle) periods. Poisson patterns run their arrival process on
/// the host's ON-time clock with the rate boosted by 1/dutyCycle, so the
/// *average* offered load stays calibrated to TrafficConfig::load while
/// bursts transmit well above it. Closed-loop clients simply pause issuing
/// during OFF periods and refill their window when the burst starts.
struct OnOffConfig {
    bool enabled = false;
    Duration onMean = microseconds(100);   // mean burst duration
    Duration offMean = microseconds(300);  // mean idle duration
    OnOffDist dist = OnOffDist::Exponential;
    double paretoShape = 1.5;  // Pareto period shape (must be > 1)

    /// Long-run fraction of time a host spends in a burst.
    double dutyCycle() const {
        return static_cast<double>(onMean) /
               static_cast<double>(onMean + offMean);
    }
};

/// Why `cfg`'s periods cannot run, or "" when they can (or when ON-OFF is
/// off): onMean > 0, offMean >= 0, and a Pareto shape > 1 (at shape <= 1
/// the mean period is infinite and a host never leaves its first burst).
std::string onOffError(const OnOffConfig& cfg);

struct ScenarioConfig {
    TrafficPatternKind kind = TrafficPatternKind::Uniform;

    // Incast: `hotspots` hot receivers (capped at half the cluster); each
    // is the target of a fan-in group of `hotspotDegree` dedicated senders
    // (0 = all non-hot hosts join a group; capped at the senders available
    // per hotspot). A group sender aims `hotspotFraction` of its messages
    // at its hotspot and spreads the rest uniformly; hosts outside every
    // group send uniform background traffic.
    int hotspots = 1;
    int hotspotDegree = 16;
    double hotspotFraction = 1.0;

    // RackSkew: fraction of messages that pick an intra-rack destination.
    double rackLocalFraction = 0.8;

    // ParetoSenders: weight of the k-th most popular sender ~ k^-alpha.
    double paretoAlpha = 1.2;

    // TraceReplay: lines of "<time_us> <src> <dst> <size_bytes>"
    // (blank lines and '#' comments ignored). `traceText` takes precedence
    // over `tracePath`; times are offsets from the generator's start time.
    std::string tracePath;
    std::string traceText;

    // ClosedLoop: each host keeps `closedLoopWindow` messages outstanding
    // (destinations uniform) and issues the next one only when a previous
    // delivery completes, after an optional exponential think time with
    // mean `thinkTime`. The offered load is endogenous — `load` is ignored.
    int closedLoopWindow = 4;
    Duration thinkTime = 0;

    // Dag: fan-out/fan-in request trees (see workload/rpc_dag.h). Roots
    // run closed-loop — `dag.window` trees outstanding each — so `load`
    // is ignored, like ClosedLoop.
    DagConfig dag;

    // ON-OFF burst/idle modulation; composes with every pattern above
    // except TraceReplay (which carries its own explicit timing).
    OnOffConfig onOff;

    // Fault injection (sim/fault.h): link flaps, switch death, degraded
    // links, scheduled deterministically on the event loops. Composes
    // with every pattern; runExperiment builds a FaultTimeline from these
    // and reports FaultStats in ExperimentResult::faults.
    std::vector<FaultSpec> faults;

    // TOR uplink choice: false = the paper's per-packet random spraying;
    // true = deterministic per-message ECMP hash over the *alive* uplinks
    // so a dead aggregation switch reroutes instead of blackholing.
    bool ecmpUplinks = false;

    // Topology override ("topo:" modifier): a parseTopoSpec body applied
    // over the experiment's base NetworkConfig by runExperiment, e.g.
    // "racks=8,hosts=4,aggr=2,core=2,oversub=4". Empty = run the base
    // topology untouched.
    std::string topoSpec;

    // Multi-tenant serving ("tenants:" / "replicas:" modifiers): tenant
    // fleets with their own workloads and arrival modes against named
    // replica groups, run by the RPC harness (runRpcExperiment) rather
    // than the message-level generator — the CLI dispatches on
    // serving.enabled(). Composes with "topo:" and "ecmp" only: the
    // serving harness owns its arrival processes (no on-off), and its
    // per-call accounting assumes the packet engine (no fluid, no
    // faults). The pattern segment must be "uniform" (the placeholder —
    // tenants override destination choice entirely).
    ServingConfig serving;

    // Fluid fast path ("fluid:" modifier): messages with length >= this
    // many bytes are simulated as flow-level fluid transfers (sim/fluid.h)
    // instead of packet by packet; 0 sends everything fluid. -1 (default)
    // defers to ExperimentConfig::fluidThresholdBytes (itself -1 =
    // disabled). Does not compose with fault injection: fluid flows never
    // touch the switches faults act on, so a hybrid fault run would break
    // conservation silently — scenarioError rejects the combination.
    int64_t fluidThresholdBytes = -1;
};

/// Parses a scenario spec: a pattern segment followed by '+'-separated
/// modifiers, e.g. "incast+on-off", "uniform+ecmp+fault:flap=aggr0,
/// at=50ms,for=10ms+fault:degrade=host3,drop=0.01". The pattern leaves
/// all knobs at defaults — except `dag`, which takes parameters:
/// "dag[:k=v,k=v...]" (keys per parseDagSpec). Modifiers: "on-off",
/// "ecmp", "topo:<body>" (parseTopoSpec; at most one), "fluid:<bytes>"
/// (fluid fast-path threshold, a non-negative integer; at most one, and
/// not combinable with fault segments), and any number of "fault:<body>"
/// segments (parseFaultSpec). Serving modifiers: "tenants:<body>"
/// (parseTenantsSpec; at most one, pattern must be "uniform", not
/// combinable with on-off/fluid/fault) and "replicas:<body>"
/// (parseReplicasSpec; requires a tenants segment).
/// Returns false and leaves `out` untouched on malformed specs or on a
/// config scenarioError rejects, with a human-readable reason in *err (if
/// given). This is the syntax the figure benches accept via HOMA_SCENARIO.
bool scenarioFromSpec(const std::string& spec, ScenarioConfig& out,
                      std::string* err = nullptr);

/// Why `cfg` cannot run, or "" when it can: the one place the scenario's
/// cross-field rules live, shared by scenarioFromSpec, runExperiment (via
/// experimentConfigError) and the CLI. Fluid excludes faults; replica
/// groups need tenants, and tenants need the uniform placeholder pattern,
/// no on-off, faults or fluid, and resolvable group names; trace replay
/// needs a schedule (tracePath or traceText) and excludes on-off;
/// rack-skew needs a local fraction in [0, 1]; incast needs a hotspot
/// fraction in [0, 1], hotspots >= 1 and a degree >= 0; closed loop needs
/// a window >= 1; dag needs a valid DagConfig; on-off needs valid periods
/// (onOffError). Topology-dependent checks (fault targets, ECMP uplinks,
/// serving host counts, the trace's lines) belong to the runners.
std::string scenarioError(const ScenarioConfig& cfg);

/// One trace-replay record; `at` is an offset from TrafficConfig::start.
struct TraceRecord {
    Duration at = 0;
    HostId src = 0;
    HostId dst = 0;
    uint32_t size = 0;
};

/// Parses trace text, sorted by time. Throws std::invalid_argument naming
/// the line on a malformed line, and on out-of-range hosts when
/// `hostCount` > 0.
std::vector<TraceRecord> parseTrace(const std::string& text,
                                    int hostCount = 0);
/// The trace-replay schedule of `cfg`: its traceText when set, else the
/// file at tracePath. Throws std::invalid_argument when the file cannot
/// be read or a line cannot be parsed (experimentConfigError reports it).
std::vector<TraceRecord> loadTrace(const ScenarioConfig& cfg,
                                   int hostCount = 0);

/// Per-host ON-OFF state machine: a lazily generated alternating sequence
/// of burst and idle periods, deterministic given (config, seed).
///
/// Two query styles, one per arrival mode (a given host uses exactly one):
///  * `advance(onDelay)` — Poisson mode. Maps a delay measured on the
///    host's ON-time clock to the wall-clock instant reached, starting
///    from the previous arrival. Running the arrival process on the
///    ON-clock (at rate base/dutyCycle) keeps the long-run rate calibrated.
///  * `gate(now)` — closed-loop mode. Returns `now` when the host is mid-
///    burst, else the start of the next burst. Queries must be issued with
///    non-decreasing `now` (event-loop time, which is monotonic).
///
/// The initial phase is sampled from the stationary distribution for
/// exponential periods (exact, by memorylessness); for Pareto periods the
/// same draw is an approximation, which a long window amortizes away.
class OnOffModulator {
public:
    OnOffModulator(const OnOffConfig& cfg, Time start, uint64_t seed);

    /// Advance `onDelay` of ON time past the previous mapped instant and
    /// return the wall-clock time reached (OFF periods are skipped whole).
    Time advance(Duration onDelay);

    /// `now` when ON at `now`; otherwise the start of the next ON period.
    Time gate(Time now);

private:
    Duration samplePeriod(bool on);

    OnOffConfig cfg_;
    Rng rng_;
    bool on_;
    Time periodEnd_;  // wall-clock end of the current period
    Time cursor_;     // last wall-clock instant mapped by advance()
};

/// Destination choice and sender rate weighting for Poisson scenarios.
class TrafficPattern {
public:
    virtual ~TrafficPattern() = default;

    /// Relative Poisson arrival weight of host h; 0 = host never sends.
    /// The generator normalizes weights so the aggregate offered load is
    /// independent of the pattern, and water-fills so no single sender is
    /// asked to offer more than its line rate (excess redistributes over
    /// the unclamped hosts) — skew patterns saturate their top senders
    /// instead of demanding the physically impossible.
    virtual double senderWeight(HostId) const { return 1.0; }

    /// Pick a destination for a message from `src`; never returns `src`.
    virtual HostId pickDestination(HostId src, Rng& rng) const = 0;
};

/// Builds the pattern for a scenario (TraceReplay has no pattern; the
/// generator replays records directly — calling this for it aborts).
std::unique_ptr<TrafficPattern> makeTrafficPattern(const ScenarioConfig& cfg,
                                                   int hostCount,
                                                   int hostsPerRack,
                                                   uint64_t seed);

}  // namespace homa
