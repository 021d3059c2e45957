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
// the network serial when the fluid path is on), flows live in a vector
// in admission order, each link sums its flows' rate increments in that
// order, and every rate is a pure double computation over it — same
// seed, same bytes. With the threshold above the workload's largest
// message no flow is ever admitted and the run is byte-identical to one
// without the engine (the offer() hook just declines).
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

    int activeFlows() const { return static_cast<int>(flows_.size()); }

    /// Counter snapshot; percentiles computed at call time.
    FluidStats stats() const;

private:
    struct Flow {
        Message msg;
        double wire = 0;       // total wire bytes (payload + per-packet headers)
        double remaining = 0;  // wire bytes not yet through the bottleneck
        double rate = 0;       // bytes per picosecond, set by the solver
        Duration tail = 0;     // pipeline latency after the last byte
        bool intraRack = false;
        int nLinks = 0;
        int links[6] = {0, 0, 0, 0, 0, 0};
    };

    void addLinksFor(Flow& f) const;
    /// Progressive-filling max-min: equal rate growth for all unfrozen
    /// flows until a link saturates, freezing its flows; repeats.
    void solveRates();
    /// Decrement remaining bytes by rate x elapsed and schedule delivery of
    /// every flow that finished its transfer.
    void advanceAndComplete(Time now);
    /// Next-completion event body: advance, re-solve, re-arm.
    void epoch();
    void armNextCompletion();
    void completeFlow(Flow f, Time at);

    EventLoop& loop_;
    FluidConfig cfg_;
    Transport::DeliveryCallback deliver_;

    // Aggregated trunk capacities, bytes/ps, reservation already applied.
    // Layout: [0,n) host uplinks, [n,2n) host downlinks, then per-rack
    // up/down trunks, then per-pod up/down trunks (multi-rack/three-tier
    // only). The rest is solver scratch: alloc_ and active_ (sized like
    // capacity_) are all-zero between solves; links_ lists the links with
    // unfrozen flows, unfrozen_ the unfrozen flow indices.
    std::vector<double> capacity_;
    std::vector<double> alloc_;
    std::vector<int> active_;
    std::vector<int> links_;
    std::vector<size_t> unfrozen_;
    int hostsPerRack_ = 1;
    int podRacks_ = 1;
    int rackBase_ = 0;  // index of rack trunk block; -1 if single-rack
    int podBase_ = 0;   // index of pod trunk block; -1 if two-tier

    std::vector<Flow> flows_;  // admission order; erased stably
    Time lastSolve_ = 0;
    // The single pending next-completion event, re-armed at every epoch.
    EventLoop::EventHandle next_{};

    // Counters for stats().
    uint64_t admitted_ = 0, delivered_ = 0, solves_ = 0, maxConcurrent_ = 0;
    int64_t payloadBytes_ = 0, wireBytes_ = 0, deliveredWireBytes_ = 0;
    std::vector<double> slowdowns_;  // per delivered flow, delivery order
};

}  // namespace homa
