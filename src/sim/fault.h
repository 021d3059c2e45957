// Deterministic fault injection: link flaps, permanent switch death, and
// degraded links, scheduled on the existing event loop(s).
//
// A `FaultSpec` names one fault (parsed from the scenario-spec grammar, see
// docs/SCENARIOS.md); a `FaultTimeline` expands a list of specs into
// primitive link/switch actions and installs them on the owning shard's
// EventLoop *before* the run starts. Setup-scheduled events sort before any
// runtime event at the same instant on their loop (the EventLoop ordering
// contract), and every action touches only state owned by its own shard —
// a dead aggr is represented both by the aggr switch dying on its shard
// *and* by each TOR's uplink port going down on the TOR's shard — so the
// parallel engine needs no cross-shard reads and serial == parallel stays
// byte-identical.
//
// Drop accounting (the conservation law tests/test_fault.cc checks):
//  * wireDrops        — a packet mid-serialization when its link went down
//                       (counted at the port, summed over NICs too)
//  * probDrops        — degraded-link probabilistic loss, drawn at
//                       serialization end from a per-port RNG seeded by
//                       (fault seed, canonical link id)
//  * deadIngressDrops — arrivals discarded by a dead switch
//  * flushDrops       — packets queued or in transit inside a switch at
//                       the instant it died
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/random.h"
#include "sim/time.h"
#include "sim/topology.h"

namespace homa {

class Network;
class EgressPort;
class Switch;

enum class FaultKind {
    Flap,       // link(s) down at `at`, back up `duration` later
    Kill,       // permanent switch (or host-link) death at `at`
    Degrade,    // reduced bandwidth / extra delay / probabilistic drop
    FlapTrain,  // seed-derived random train of flaps (exponential gaps)
};

enum class FaultTargetKind {
    Host,  // the host's NIC and its TOR downlink
    Tor,   // every link touching the TOR (downlinks, uplinks, NICs, aggrs)
    Aggr,  // every TOR<->aggr (and, three-tier, aggr<->core) link of one
           // aggregation switch, addressed by global index across pods
    Core,  // every aggr<->core link of one core switch (three-tier only)
};

const char* faultKindName(FaultKind k);
const char* faultTargetKindName(FaultTargetKind k);

struct FaultSpec {
    FaultKind kind = FaultKind::Flap;
    FaultTargetKind targetKind = FaultTargetKind::Aggr;
    int targetIndex = 0;

    Duration at = 0;        // when the fault starts
    Duration duration = 0;  // Flap: down window; Degrade: 0 = rest of run;
                            // FlapTrain: *mean* down window (exponential)

    // Degrade knobs (at least one must be set).
    double bwFactor = 1.0;   // serialization slowed by 1/bwFactor, in (0,1]
    Duration extraDelay = 0; // added to every packet's link occupancy
    double dropProb = 0.0;   // per-packet loss at serialization end, [0,1)

    // FlapTrain knobs.
    int count = 0;    // number of flaps in the train
    Duration gap = 0; // mean gap between successive flap starts (exponential)
};

/// Parses the body of a fault spec segment — everything after "fault:" —
/// e.g. "flap=aggr0,at=50ms,for=10ms", "kill=aggr1,at=30ms",
/// "degrade=host5,at=1ms,for=5ms,bw=0.25,delay=10us,drop=0.01",
/// "flap-train=aggr2,at=10ms,count=5,gap=2ms,for=500us".
/// Durations take a unit suffix (ns/us/ms/s). Returns false on malformed,
/// repeated or contradictory keys, with a human-readable reason in *err
/// (if given).
bool parseFaultSpec(const std::string& body, FaultSpec& out,
                    std::string* err = nullptr);

/// Validates a spec, parsed or built in code. First the values the parser
/// also enforces: bw in (0, 1], drop in [0, 1), no negative duration or
/// target index, for/count/gap > 0 where the kind needs them (NaN fails
/// every bound), and every scheduled time within a Duration (a flap's or
/// degrade's at + for; a flap-train's at + count x 37 x (for + gap),
/// which bounds its exponential draws). Then the target against the
/// topology (index
/// ranges; aggr targets need a multi-rack fat tree; core targets need a
/// three-tier one). Returns "" if valid, else the reason; a target out of
/// range names the valid range for the tier (e.g. "... this topology has
/// 4 aggregation switches (valid: aggr0..aggr3)").
std::string validateFaultSpec(const FaultSpec& spec, const NetworkConfig& cfg);

/// Canonical round-trip of a spec back to its "fault:..." body.
std::string faultSpecToString(const FaultSpec& spec);

/// Fault event counts (pure function of the expanded schedule) plus drops
/// by cause (gathered from port/switch counters after a run).
struct FaultStats {
    uint64_t linkDownEvents = 0;  // flap windows scheduled (train elements too)
    uint64_t linkUpEvents = 0;
    uint64_t switchKills = 0;
    uint64_t degradeEvents = 0;

    uint64_t wireDrops = 0;
    uint64_t probDrops = 0;
    uint64_t deadIngressDrops = 0;
    uint64_t flushDrops = 0;

    uint64_t totalDrops() const {
        return wireDrops + probDrops + deadIngressDrops + flushDrops;
    }
};

/// Seed for flap-train expansion and per-port drop RNGs, derived from the
/// traffic seed so a fault scenario is reproducible from one number.
uint64_t deriveFaultSeed(uint64_t trafficSeed);

/// Expands fault specs into primitive actions and installs them on the
/// network's event loops. Construct and schedule() after the Network is
/// built but before the run starts; keep alive until collect().
class FaultTimeline {
public:
    /// Specs must satisfy validateFaultSpec for net's config, or
    /// schedule() throws.
    FaultTimeline(Network& net, std::vector<FaultSpec> specs, uint64_t seed);

    /// Install every primitive action on its owning shard's loop. Call
    /// exactly once, before the run. Throws std::invalid_argument, before
    /// installing anything, when a spec fails validateFaultSpec, and
    /// std::logic_error on a second call.
    void schedule();

    /// Event counts from the expanded schedule (valid after schedule()).
    const FaultStats& events() const { return events_; }

    /// Event counts plus drops-by-cause gathered from every port and
    /// switch; call after the run.
    FaultStats collect() const;

private:
    template <typename Fn>
    void forEachTargetPort(const FaultSpec& spec, Fn&& fn);
    template <typename Fn>
    void forEachIngressPort(const FaultSpec& spec, Fn&& fn);
    Switch* switchOfTarget(const FaultSpec& spec);

    void scheduleFlap(const FaultSpec& spec, Duration at, Duration down);
    void scheduleKill(const FaultSpec& spec);
    void scheduleDegrade(const FaultSpec& spec);

    Network& net_;
    std::vector<FaultSpec> specs_;
    uint64_t seed_;
    FaultStats events_;
    bool scheduled_ = false;
};

}  // namespace homa
