// EgressPort: the serializing end of a unidirectional link.
//
// A port owns a qdisc and a link of fixed bandwidth. Whenever the link is
// free it dequeues the next packet, holds the link for the packet's wire
// time, and then delivers the packet to the downstream PacketSink (switches
// in this simulator are store-and-forward: a hop sees a packet only once it
// has fully arrived; propagation delay is zero, per the paper's setup).
//
// Ports support two feeding styles:
//  * push: upstream calls enqueue(); packets wait in the qdisc.
//  * pull: a PacketSource is consulted whenever the link goes idle and the
//    qdisc is empty. This models NICs whose transmit queue is kept nearly
//    empty so the transport can reorder packets (Homa §4 keeps at most two
//    full packets in the NIC).
#pragma once

#include <functional>
#include <memory>
#include <optional>

#include "sim/event_loop.h"
#include "sim/packet.h"
#include "sim/qdisc.h"
#include "sim/random.h"
#include "sim/time.h"

namespace homa {

class PacketSink {
public:
    virtual ~PacketSink() = default;
    virtual void deliver(Packet p) = 0;
};

class PacketSource {
public:
    virtual ~PacketSource() = default;
    /// Return the next data packet to transmit, or nullopt if none ready.
    virtual std::optional<Packet> pullPacket() = 0;
};

/// Implemented by store-and-forward switches: route every transit packet
/// whose internal delay has expired, in the switch's canonical order (see
/// Switch::routeDue).
///
/// The rule: no port transmits while its owner routes a same-instant
/// batch. At each transmission boundary (a packet finished, the link back
/// up) an EgressPort flushes its owner's routeDue() with picking held off,
/// then picks once from everything queued. So the pick is the same whether
/// the switch's routing kick for that instant ran before the boundary or
/// after it, which is an accident of event order (the parallel engine runs
/// a cross-shard kick at the window barrier). Without the hold, the first
/// packet the flush routed took the idle port ahead of the rest of the
/// batch, higher priorities included.
class DueRouter {
public:
    virtual ~DueRouter() = default;
    virtual void routeDue() = 0;
};

/// Per-port statistics; Table 1, Figure 14, Figure 16, and Figure 21 are
/// all computed from these.
struct PortStats {
    uint64_t packetsSent = 0;
    int64_t wireBytesSent = 0;
    int64_t bytesByPriority[kPriorityLevels] = {};
    Duration busyTime = 0;

    // Fault-injection drops (sim/fault.h). `packetsSent` and
    // `wireBytesSent` count *started* transmissions, so both causes below
    // subtract from what actually reached the peer.
    uint64_t faultWireDrops = 0;  // on-wire packet killed by link-down
    uint64_t faultProbDrops = 0;  // degraded-link probabilistic loss

    // Time-weighted queue occupancy (buffer bytes, excluding the packet on
    // the wire), maintained on every queue change.
    int64_t maxQueueBytes = 0;
    double queueByteTimeIntegral = 0;  // bytes * picoseconds
    Time lastQueueChange = 0;

    double meanQueueBytes(Time elapsed) const {
        return elapsed > 0 ? queueByteTimeIntegral / static_cast<double>(elapsed) : 0.0;
    }
};

class EgressPort : public PacketSink {
public:
    EgressPort(EventLoop& loop, Bandwidth bw, std::unique_ptr<Qdisc> qdisc);

    void connectTo(PacketSink* peer) { peer_ = peer; }
    /// Downstream sink this port feeds (the topology tests walk these to
    /// prove every link has a matching reverse link).
    PacketSink* peer() const { return peer_; }
    void setSource(PacketSource* src) { source_ = src; }

    /// The switch this port belongs to (null for host NICs): its routeDue()
    /// is flushed at every transmission boundary, before dequeuing.
    void setOwner(DueRouter* owner) { owner_ = owner; }

    /// Canonical global link id, assigned once by Network wiring in
    /// topology order; stamped into every packet this port completes
    /// (Packet::arrivalLink).
    void setLinkId(int32_t id) { linkId_ = id; }
    int32_t linkId() const { return linkId_; }

    /// Cross-shard seam: when set, a completed packet is handed to `fn`
    /// with its arrival (serialization-end) time instead of being delivered
    /// to peer_. The parallel engine points this at a per-(src,dst)-shard
    /// outbox; the packet is re-injected into the peer switch at a window
    /// barrier via Switch::injectArrival().
    using RemoteDeliverFn = std::function<void(Time, Packet&&)>;
    void setRemoteDeliver(RemoteDeliverFn fn) { remote_ = std::move(fn); }

    /// Push-style entry; also the PacketSink interface so a port can be the
    /// delivery target of an upstream hop (used by switch wiring).
    void deliver(Packet p) override { enqueue(std::move(p)); }
    void enqueue(Packet p);

    /// Re-poll the pull source (call when the source gains data).
    void kick() { tryTransmit(); }

    // ----------------------------------------------------------- faults
    // Hooks driven by FaultTimeline (sim/fault.h). Link-down states nest
    // (overlapping flap windows hold the link down until every window has
    // lifted); a kill is permanent. Taking the link down mid-transmission
    // kills the on-wire packet (stats().faultWireDrops) and refunds its
    // unserved busy time.

    /// One more reason the link is down; kills any on-wire packet.
    void faultLinkDown();
    /// One reason lifted; resumes transmitting when none remain.
    void faultLinkUp();
    /// Permanent death (a dead switch's links never come back).
    void faultKill();
    bool linkUp() const { return downCount_ == 0 && !killed_; }

    /// Degraded-link state: serialization slowed by 1/bwFactor, every
    /// packet holds the link `extraDelay` longer, and each packet is lost
    /// with probability dropProb at serialization end (drawn from a
    /// deterministic per-port RNG seeded with `rngSeed`; the RNG persists
    /// across degrade windows so repeated windows continue one stream).
    /// Throws std::invalid_argument unless bwFactor is in (0, 1], dropProb
    /// in [0, 1) and extraDelay >= 0.
    void setDegrade(double bwFactor, Duration extraDelay, double dropProb,
                    uint64_t rngSeed);
    void clearDegrade();

    /// Discard every queued packet (switch death); returns how many.
    uint64_t dropAllQueued();

    bool busy() const { return busy_; }
    bool idle() const { return !busy_ && qdisc_->queuedPackets() == 0; }
    Bandwidth bandwidth() const { return bw_; }
    Qdisc& qdisc() { return *qdisc_; }
    const Qdisc& qdisc() const { return *qdisc_; }
    const PortStats& stats() const { return stats_; }
    EventLoop& loop() { return loop_; }

    /// Total bytes accepted but not yet fully serialized (queued + on the
    /// wire). Senders use this to honor NIC queue limits.
    int64_t backlogBytes() const { return qdisc_->queuedBytes() + inFlightBytes_; }

private:
    /// A transmission boundary: flush the owner's due routings, then pick.
    void routeDueThenTransmit();
    void tryTransmit();
    void startTransmission(Packet p);
    void finishTransmission();
    void noteQueueChange();
    void abortTransmission();

    EventLoop& loop_;
    Bandwidth bw_;
    // The loop's lanes for this link's two fixed serialization times: a
    // full-size data packet and a header-only packet.
    EventLoop::LaneId fullLane_;
    EventLoop::LaneId headerLane_;
    std::unique_ptr<Qdisc> qdisc_;
    PacketSink* peer_ = nullptr;
    PacketSource* source_ = nullptr;
    DueRouter* owner_ = nullptr;
    RemoteDeliverFn remote_;
    int32_t linkId_ = -1;

    bool busy_ = false;
    bool routing_ = false;     // flushing owner_->routeDue(): do not pick yet
    int64_t inFlightBytes_ = 0;
    uint8_t txPriority_ = 0;   // priority of the packet on the wire
    Time txEndsAt_ = 0;
    std::optional<Packet> txPacket_;  // the packet on the wire
    EventLoop::EventHandle txEvent_;  // serialization-end event (cancellable)

    // Fault state (sim/fault.h).
    int downCount_ = 0;
    bool killed_ = false;
    // Degraded-link state, created by the first setDegrade() and kept from
    // then on (cleared to a healthy link's values), so the drop RNG's
    // stream runs on across windows. A port never degraded holds only the
    // null pointer.
    struct Degrade {
        double bwFactor = 1.0;
        Duration extraDelay = 0;
        double dropProb = 0.0;
        std::optional<Rng> rng;
    };
    std::unique_ptr<Degrade> degrade_;

    PortStats stats_;
};

}  // namespace homa
