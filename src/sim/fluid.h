// Fluid (flow-level) fast path for long messages.
//
// Per-packet simulation prices every byte the same, but long-message
// transfers are bandwidth-dominated: their completion time is set by the
// max-min fair share they get on the bottleneck trunk, not by per-packet
// scheduling detail. The FluidEngine models them that way — à la SimGrid's
// LV08 flow-level model — so host counts can grow by orders of magnitude
// while packet fidelity stays reserved for the grant-scheduled short-RPC
// region the paper actually targets.
//
// Mechanics: a message admitted to the fluid path becomes one flow with
// `messageWireBytes(length)` bytes remaining, routed over an *aggregated*
// link graph (per-host NIC up/down links, per-rack TOR-uplink and
// -downlink trunks, per-pod aggr<->core trunks on three-tier topologies —
// packet spraying makes each stage behave like one pooled trunk). Rates
// are the bounded max-min fair allocation (progressive filling) and are
// re-solved only at flow arrival and departure epochs, scheduled as a
// single cancellable event on the host EventLoop. A constant latency tail
// — calibrated so an unloaded transfer completes in exactly the oracle's
// best one-way time — covers the store-and-forward pipeline, switch
// delays, and receiver software delay (the LV08 "latency factor" role).
//
// Regime coupling: the packet-level traffic that stays below the
// threshold still exists on the same physical links, so every fluid
// capacity is scaled by (1 - reservedFraction); the driver sets the
// reservation to the expected byte share of the packet regime
// (load x byteWeightedCdf(threshold)).
//
// Determinism: the engine runs on shard 0's loop only (the driver forces
// the network serial when the fluid path is on), flows complete in
// admission order, and every rate is a pure double computation over the
// flow set — same seed, same bytes. With the threshold above the
// workload's largest message no flow is ever admitted and the run is
// byte-identical to one without the engine (the offer() hook just
// declines).
//
// The solver is progressive filling. Each round, every unfrozen flow's
// rate and every link's allocation grow by the same increment (the
// smallest room per unfrozen flow over all links), and the flows that
// cross a link left saturated freeze. So a link's allocation is its
// unfrozen-flow count's additions of each round's increment, starting
// from 0.0, and a flow's rate is the running sum of the increments up to
// its freeze; neither depends on the order of the additions. Until one of
// its flows freezes ("touched"), a link therefore holds bit for bit the
// allocation of every other untouched link with the same flow count, and
// with the same capacity the same room and saturation test. The engine
// keeps links in classes by (capacity, flow count), and each link's flow
// list, updated at O(hops) per admission and completion. A round computes
// one value per class plus one per touched link (dropping, in the same
// pass, the touched links left without unfrozen flows), grows them all,
// and marks the saturated ones. It then freezes their flows by whichever
// of two walks reads less: the saturated links' flow lists, or one sweep
// over the unfrozen flows that tests each flow's links against the marks.
// Both freeze the same set. A link leaves its class when its first flow
// freezes, starting from the class's value and continuing with its own
// count. The rates are bitwise those of the per-link rescan this replaced
// (a test keeps it as a reference).
//
// Per epoch the engine's loops read dense per-slot arrays (remaining
// bytes, rate, link ids); only a finishing flow's record is read. One
// pass advances every flow and completes the finished ones, the solve
// sweeps at most once a round, and it notes the fewest bytes left in
// each group of flows it freezes at one rate, which gives the next
// completion without another pass. Each flow's oracle time is computed
// once, at admission.
//
// On bench_e2e's fluid_10k (10,240 hosts, 20,992 links, up to 2,204
// flows, 12,743 solves averaging 1,287 flows in 4.8 rounds), the last
// round freezes two thirds of the flows, when the class of host links
// with one flow saturates; its sweep reads each unfrozen flow once where
// the flow lists were read about twice a flow. The timings are in
// docs/ARCHITECTURE.md, "The solver".
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "sim/event_loop.h"
#include "sim/topology.h"
#include "transport/message.h"
#include "transport/transport.h"

namespace homa {

struct FluidConfig {
    /// Messages with length >= this many bytes take the fluid path;
    /// 0 admits everything, < 0 admits nothing (engine disabled).
    int64_t thresholdBytes = -1;

    /// Fraction of every link's capacity reserved for the packet-level
    /// regime (clamped to [0, 0.95]). The driver derives it from the
    /// workload's byte-weighted CDF at the threshold.
    double reservedFraction = 0.0;

    /// Unloaded one-way delivery time for a message of the given size
    /// (Oracle::bestOneWay). Required: calibrates the latency tail added
    /// after a flow's last byte clears the fluid bottleneck.
    std::function<Duration(uint32_t size, bool intraRack)> bestOneWay;
};

/// Snapshot of the fluid regime's counters for ExperimentResult.
struct FluidStats {
    int64_t thresholdBytes = -1; // effective admission threshold
    uint64_t flows = 0;          // messages admitted to the fluid path
    uint64_t delivered = 0;      // fluid flows completed and delivered
    uint64_t solves = 0;         // rate re-solve epochs
    uint64_t maxConcurrent = 0;  // peak simultaneous fluid flows
    int64_t payloadBytes = 0;    // payload bytes admitted
    int64_t wireBytes = 0;       // wire bytes admitted (payload + headers)
    int64_t deliveredWireBytes = 0;  // wire bytes of completed flows
    double slowP50 = 0;          // fluid-regime slowdown percentiles
    double slowP99 = 0;
    double slowMean = 0;
};

class FluidEngine {
public:
    /// `loop` must be the serial simulation loop (shard 0 of a one-shard
    /// network); `net` describes the topology the trunk graph aggregates.
    /// Throws std::invalid_argument when `cfg.bestOneWay` is empty or
    /// `cfg.reservedFraction` is NaN.
    FluidEngine(EventLoop& loop, const NetworkConfig& net, FluidConfig cfg);

    /// Offer a message to the fluid path. Returns true — message absorbed,
    /// the packet transport must not see it — when its length reaches the
    /// threshold; false declines it untouched. `m.created` must be set.
    bool offer(const Message& m);

    /// Invoked on the loop at each fluid delivery, mirroring the packet
    /// transports' delivery callback (same signature, same stats path).
    void setDeliveryCallback(Transport::DeliveryCallback cb) {
        deliver_ = std::move(cb);
    }

    /// The rate solver's input and output, for tests: every link's
    /// capacity (bytes/ps, reservation applied) and, in admission order,
    /// each active flow's links and current rate.
    struct SolverState {
        std::vector<double> capacity;
        std::vector<std::vector<int>> flowLinks;
        std::vector<double> rates;
    };
    SolverState solverState() const;

    /// Counter snapshot; percentiles computed at call time.
    FluidStats stats() const;

private:
    // Links one flow crosses: host up and down, rack up and down trunks,
    // pod up and down trunks.
    static constexpr int kMaxHops = 6;

    // What a flow keeps outside the per-epoch loops; its remaining bytes,
    // rate and links live in the dense per-slot arrays below.
    struct Flow {
        Message msg;
        double wire = 0;    // total wire bytes (payload + per-packet headers)
        Duration tail = 0;  // pipeline latency after the last byte
        Duration best = 0;  // the oracle's unloaded one-way time
    };

    struct Link {
        double capacity = 0;  // bytes/ps, reservation already applied
        int group = 0;        // index of `capacity` among the distinct ones
        int flows = 0;        // active flows crossing it
        int cls = -1;         // its (capacity, flows) class; -1 when idle
        int classPos = 0;     // position in that class's member list
        int head = -1;        // first node of its flow list, -1 when empty
        // Per-solve state, valid while stamp == solveStamp_: the link was
        // touched (one of its flows froze) in the current solve.
        int active = 0;          // its flows not yet frozen
        uint64_t stamp = 0;
        uint64_t saturated = 0;  // == roundMark_: saturated this round
        double alloc = 0;        // rate handed to its flows so far this solve
    };

    // The links sharing one (capacity, flow count); never destroyed, so
    // class ids stay valid while membership changes.
    struct LinkClass {
        double capacity = 0;
        int flows = 0;
        std::vector<int> members;  // link indices, unordered
        int listed = -1;           // position in nonempty_, -1 when empty
        // Per-solve state, reset for every nonempty class when a solve
        // starts: the allocation every untouched member shares, and how
        // many members are still untouched.
        double alloc = 0;
        int untouched = 0;
        uint64_t saturated = 0;  // == roundMark_: saturated this round
    };

    /// Writes the links a message's flow crosses; returns their count.
    int route(const Message& m, int* links) const;
    /// Thread flow `slot` into (attach) or out of (detach) the flow list
    /// and class of every link it crosses.
    void attach(int slot);
    void detach(int slot);
    /// Moves link `l` to the class of its flow count plus `delta`.
    void changeFlowCount(int l, int delta);
    /// Progressive-filling max-min over the link classes (see the header
    /// comment).
    void solveRates();
    /// Freezes at `rate` every unfrozen flow on link `l`.
    void freezeFlowsOn(int l, double rate);
    /// Freezes at `rate` every unfrozen flow that crosses a link marked
    /// saturated this round, in one sweep over live_, which it compacts.
    void freezeBySweep(double rate);
    /// Lowers soonest_ to the finish time of the first flow of `group`,
    /// which all run at `rate`.
    void noteFinishes(const std::vector<int>& group, double rate);
    /// Decrement remaining bytes by rate x elapsed and schedule delivery of
    /// every flow that finished its transfer, in admission order.
    void advanceAndComplete(Time now);
    /// Next-completion event body: advance, re-solve, re-arm.
    void epoch();
    void armNextCompletion();
    void completeFlow(int slot, Time at);

    EventLoop& loop_;
    FluidConfig cfg_;
    Transport::DeliveryCallback deliver_;

    // The aggregated link graph. Layout: [0,n) host uplinks, [n,2n) host
    // downlinks, then per-rack up/down trunks, then per-pod up/down trunks
    // (multi-rack/three-tier only).
    std::vector<Link> links_;
    int hostsPerRack_ = 1;
    int podRacks_ = 1;
    int rackBase_ = 0;  // index of rack trunk block; -1 if single-rack
    int podBase_ = 0;   // index of pod trunk block; -1 if two-tier

    std::vector<LinkClass> classes_;
    std::vector<std::vector<int>> classAt_;  // [group][flows] -> id or -1
    std::vector<int> nonempty_;              // ids of classes with members

    // Flows live in recycled slots; order_ lists the active ones in
    // admission order. Hop k of the flow in slot s is node s * kMaxHops + k:
    // linkOf_[node] is its link, and hopNext_/hopPrev_ thread it into that
    // link's flow list (-1 ends a list).
    std::vector<Flow> slots_;
    std::vector<double> remaining_;  // wire bytes left to clear the bottleneck
    std::vector<double> rate_;       // bytes per picosecond, set by the solver
    std::vector<int> hops_;          // how many links the flow crosses
    std::vector<int> linkOf_;
    std::vector<int> freeSlots_;
    std::vector<int> order_;
    std::vector<int> hopNext_, hopPrev_;

    // Solver scratch: frozen_[s] == solveStamp_ once the flow in slot s
    // froze in the current solve; roundMark_ numbers the rounds of every
    // solve; touched_ lists the touched links that may still carry
    // unfrozen flows, live_ a superset of the unfrozen flows (the sweep
    // drops the frozen ones), frozenNow_ the flows one round froze, and
    // satClasses_/satLinks_ the classes and touched links it saturated.
    uint64_t solveStamp_ = 0;
    uint64_t roundMark_ = 0;
    std::vector<uint64_t> frozen_;
    std::vector<int> touched_;
    std::vector<int> live_;
    std::vector<int> frozenNow_;
    std::vector<int> satClasses_;
    std::vector<int> satLinks_;
    // Picoseconds from lastSolve_ until the first flow finishes at the
    // rates of the last solve; +inf when none would.
    double soonest_ = 0;

    Time lastSolve_ = 0;
    // The single pending next-completion event, re-armed at every epoch.
    EventLoop::EventHandle next_{};

    // Counters for stats().
    uint64_t admitted_ = 0, delivered_ = 0, solves_ = 0, maxConcurrent_ = 0;
    int64_t payloadBytes_ = 0, wireBytes_ = 0, deliveredWireBytes_ = 0;
    std::vector<double> slowdowns_;  // per delivered flow, delivery order
};

}  // namespace homa
