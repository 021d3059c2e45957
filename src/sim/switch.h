// Store-and-forward switch with strict-priority (or pFabric) egress queues.
//
// A packet that has fully arrived on an ingress link is routed after the
// switch's internal delay (250 ns in the paper's simulations) and enqueued
// on the chosen egress port. Routing is a pluggable function so the same
// class serves TORs (with packet spraying across uplinks) and aggregation
// switches.
//
// Transit order is canonical: packets waiting out the internal delay are
// kept sorted by (arrival time, ingress link id) and routed strictly in
// that order by routeDue(). Arrival events merely *kick* routeDue(), so
// routing outcomes — including the per-switch RNG draws for uplink
// spraying and which packet a priority qdisc dequeues next — are a pure
// function of the set of (arrival, link, packet) triples, never of the
// order the arrival events happened to be scheduled in. The parallel
// engine injects cross-shard arrivals through injectArrival() and relies
// on exactly this property for serial/parallel byte-identity.
#pragma once

#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "sim/event_loop.h"
#include "sim/packet.h"
#include "sim/port.h"
#include "sim/random.h"

namespace homa {

class Switch final : public PacketSink, public DueRouter {
public:
    /// Maps a packet to an egress port index; may use rng (spraying).
    using RouteFn = std::function<int(const Packet&, Rng&)>;

    Switch(EventLoop& loop, std::string name, Duration internalDelay, Rng rng)
        : loop_(loop),
          name_(std::move(name)),
          delay_(internalDelay),
          delayLane_(loop.fixedDelayLane(internalDelay)),
          rng_(rng) {}

    /// Add an egress port; returns its index. The port's transmission
    /// boundaries flush this switch's routeDue() (enqueue-before-dequeue).
    int addPort(Bandwidth bw, std::unique_ptr<Qdisc> qdisc, PacketSink* peer);

    void setRoute(RouteFn fn) { route_ = std::move(fn); }

    /// Ingress: the packet finished arriving now.
    void deliver(Packet p) override;

    /// Cross-shard ingress: the packet finished arriving at `arrival`
    /// (in the just-completed lookahead window, so arrival + delay is
    /// still in this shard's future). Called at window barriers only.
    void injectArrival(Time arrival, Packet p);

    /// Route every transit packet whose internal delay has expired, in
    /// canonical (arrival, link) order. Idempotent; safe to over-call.
    void routeDue() override;

    /// Permanent death (fault injection, sim/fault.h): discard everything
    /// queued or in transit (flushDrops), down every egress port (killing
    /// on-wire packets), and discard all future arrivals
    /// (deadIngressDrops). Idempotent.
    void kill();
    bool dead() const { return dead_; }
    uint64_t deadIngressDrops() const { return deadIngressDrops_; }
    uint64_t flushDrops() const { return flushDrops_; }

    /// Packets waiting out the internal delay (conservation accounting).
    size_t transitCount() const { return transit_.size(); }

    EventLoop& loop() { return loop_; }
    EgressPort& port(int i) { return *ports_[i]; }
    const EgressPort& port(int i) const { return *ports_[i]; }
    size_t portCount() const { return ports_.size(); }
    const std::string& name() const { return name_; }

private:
    struct Transit {
        Time route;    // arrival + internal delay
        int32_t link;  // canonical ingress link (ties: distinct real links
                       // never share an arrival instant on one switch)
        Packet pkt;
    };

    void insertTransit(Time arrival, Packet p);

    EventLoop& loop_;
    std::string name_;
    Duration delay_;
    EventLoop::LaneId delayLane_;  // local arrivals' routeDue() kicks
    Rng rng_;
    RouteFn route_;
    std::vector<std::unique_ptr<EgressPort>> ports_;
    // Packets inside the switch, sorted by (route, link). Kept as a member
    // so the scheduled kick events capture only `this`.
    std::deque<Transit> transit_;

    bool dead_ = false;
    Time diedAt_ = 0;  // kill() instant, for cross-shard drop attribution
    uint64_t deadIngressDrops_ = 0;
    uint64_t flushDrops_ = 0;
};

}  // namespace homa
