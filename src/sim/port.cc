#include "sim/port.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <utility>

namespace homa {

namespace {
constexpr int64_t kHeaderOnlyWireBytes = kHeaderBytes + kFrameOverhead;
}  // namespace

EgressPort::EgressPort(EventLoop& loop, Bandwidth bw, std::unique_ptr<Qdisc> qdisc)
    : loop_(loop),
      bw_(bw),
      fullLane_(loop.fixedDelayLane(bw.serialize(kFullPacketWireBytes))),
      headerLane_(loop.fixedDelayLane(bw.serialize(kHeaderOnlyWireBytes))),
      qdisc_(std::move(qdisc)) {}

void EgressPort::noteQueueChange() {
    const Time now = loop_.now();
    stats_.queueByteTimeIntegral +=
        static_cast<double>(qdisc_->queuedBytes()) *
        static_cast<double>(now - stats_.lastQueueChange);
    stats_.lastQueueChange = now;
}

void EgressPort::enqueue(Packet p) {
    // Stamp wait-decomposition state (Figure 14): if a *lower*-priority
    // packet currently holds the wire, its residual transmission time will
    // count as preemption lag; any further waiting (behind equal-or-higher
    // priority packets) counts as queueing delay.
    p.hopEnqueuedAt = loop_.now();
    p.hopPreemptLagBound =
        (busy_ && txPriority_ < p.priority) ? (txEndsAt_ - loop_.now()) : 0;

    noteQueueChange();
    const bool accepted = qdisc_->enqueue(p);
    noteQueueChange();
    if (!accepted) return;  // dropped; qdisc stats recorded it
    stats_.maxQueueBytes = std::max(stats_.maxQueueBytes, qdisc_->queuedBytes());
    tryTransmit();
}

void EgressPort::faultLinkDown() {
    const bool wasUp = linkUp();
    downCount_++;
    if (wasUp) abortTransmission();
}

void EgressPort::faultLinkUp() {
    if (downCount_ > 0) downCount_--;
    if (!linkUp()) return;
    routeDueThenTransmit();
}

void EgressPort::faultKill() {
    const bool wasUp = linkUp();
    killed_ = true;
    if (wasUp) abortTransmission();
}

void EgressPort::abortTransmission() {
    if (!busy_) return;
    loop_.cancel(txEvent_);
    txEvent_ = {};
    // The refund keeps busyTime equal to time the wire actually served.
    stats_.busyTime -= txEndsAt_ - loop_.now();
    busy_ = false;
    inFlightBytes_ = 0;
    txPacket_.reset();
    stats_.faultWireDrops++;
}

void EgressPort::setDegrade(double bwFactor, Duration extraDelay,
                            double dropProb, uint64_t rngSeed) {
    // Written so that NaN fails: a zero factor would divide by zero in
    // startTransmission, and a NaN one cast NaN to a Duration.
    if (!(bwFactor > 0.0 && bwFactor <= 1.0)) {
        throw std::invalid_argument("EgressPort::setDegrade: bwFactor must "
                                    "be in (0, 1]");
    }
    if (!(dropProb >= 0.0 && dropProb < 1.0)) {
        throw std::invalid_argument("EgressPort::setDegrade: dropProb must "
                                    "be in [0, 1)");
    }
    if (extraDelay < 0) {
        throw std::invalid_argument("EgressPort::setDegrade: extraDelay must "
                                    "be >= 0");
    }
    if (!degrade_) degrade_ = std::make_unique<Degrade>();
    degrade_->bwFactor = bwFactor;
    degrade_->extraDelay = extraDelay;
    degrade_->dropProb = dropProb;
    // One persistent stream per port: repeated windows continue it, so the
    // draw sequence is a pure function of (seed, packets serialized while
    // degraded), never of how many windows the schedule used.
    if (dropProb > 0.0 && !degrade_->rng) degrade_->rng.emplace(rngSeed);
}

void EgressPort::clearDegrade() {
    if (!degrade_) return;
    degrade_->bwFactor = 1.0;
    degrade_->extraDelay = 0;
    degrade_->dropProb = 0.0;
}

uint64_t EgressPort::dropAllQueued() {
    uint64_t n = 0;
    noteQueueChange();
    while (qdisc_->dequeue()) n++;
    noteQueueChange();
    return n;
}

void EgressPort::routeDueThenTransmit() {
    // Queue the owning switch's whole same-instant batch before this port
    // picks its next packet (see DueRouter).
    if (owner_ != nullptr) {
        routing_ = true;
        owner_->routeDue();
        routing_ = false;
    }
    tryTransmit();
}

void EgressPort::tryTransmit() {
    if (busy_ || routing_ || !linkUp()) return;
    noteQueueChange();
    std::optional<Packet> next = qdisc_->dequeue();
    noteQueueChange();
    if (!next && source_ != nullptr) {
        next = source_->pullPacket();
        if (next) {
            next->hopEnqueuedAt = loop_.now();  // pulled: no wait at this hop
            next->hopPreemptLagBound = 0;
        }
    }
    if (!next) return;
    startTransmission(std::move(*next));
}

void EgressPort::startTransmission(Packet p) {
    assert(!busy_);

    // Attribute the wait this packet experienced at this hop.
    const Duration waited = loop_.now() - p.hopEnqueuedAt;
    const Duration lag = std::min(waited, p.hopPreemptLagBound);
    p.preemptionLag += lag;
    p.queueingDelay += waited - lag;

    const int64_t wire = p.wireBytes();
    Duration serialization = bw_.serialize(wire);
    if (degrade_) {
        if (degrade_->bwFactor < 1.0) {
            serialization = static_cast<Duration>(
                static_cast<double>(serialization) / degrade_->bwFactor);
        }
        serialization += degrade_->extraDelay;
    }
    busy_ = true;
    inFlightBytes_ = wire;
    txPriority_ = p.priority;
    txEndsAt_ = loop_.now() + serialization;

    stats_.packetsSent++;
    stats_.wireBytesSent += wire;
    stats_.busyTime += serialization;
    stats_.bytesByPriority[p.priority] += wire;

    // The packet lives in txPacket_ rather than the closure: keeping the
    // capture pointer-sized keeps the event inside the EventLoop's inline
    // slab slot, which matters at tens of millions of events per run.
    // Full-size and header-only packets on a healthy link take one of the
    // link's two fixed times, so their end goes to that time's lane;
    // partial packets and stretched (degraded) times use the heap.
    txPacket_ = std::move(p);
    auto finish = [this] { finishTransmission(); };
    if (serialization == bw_.serialize(kFullPacketWireBytes)) {
        txEvent_ = loop_.afterLane(fullLane_, finish);
    } else if (serialization == bw_.serialize(kHeaderOnlyWireBytes)) {
        txEvent_ = loop_.afterLane(headerLane_, finish);
    } else {
        txEvent_ = loop_.at(txEndsAt_, finish);
    }
}

void EgressPort::finishTransmission() {
    busy_ = false;
    inFlightBytes_ = 0;
    txEvent_ = {};
    Packet done = std::move(*txPacket_);
    txPacket_.reset();
    done.arrivalLink = linkId_;
    if (degrade_ && degrade_->dropProb > 0.0 &&
        degrade_->rng->chance(degrade_->dropProb)) {
        // Lost on the degraded wire: it burned serialization time but
        // never reaches the peer.
        stats_.faultProbDrops++;
    } else if (remote_) {
        // Cross-shard link: park the packet in the engine's outbox; it
        // reaches the peer switch at the next window barrier.
        done.hops++;
        remote_(loop_.now(), std::move(done));
    } else if (peer_ != nullptr) {
        done.hops++;
        peer_->deliver(std::move(done));
    }
    routeDueThenTransmit();
}

}  // namespace homa
