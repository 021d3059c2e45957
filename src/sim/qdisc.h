// Queue disciplines for switch egress ports and host NICs.
//
// Two families cover every protocol in the paper:
//  * StrictPriorityQdisc — 8 FIFO queues served highest-priority-first.
//    Options: byte cap with tail drop (commodity switch), NDP-style
//    trim-to-header on overflow, and DCTCP/PIAS ECN marking.
//  * PFabricQdisc — bounded pool ordered by "remaining bytes" carried in
//    each packet; overflow drops the packet with the most remaining bytes;
//    dequeue picks the message with the fewest remaining bytes and sends
//    its earliest-offset packet (pFabric's starvation-avoidance rule).
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "sim/packet.h"
#include "sim/packet_pool.h"

namespace homa {

/// Statistics a qdisc keeps about what happened to offered packets.
struct QdiscStats {
    uint64_t enqueued = 0;
    uint64_t dropped = 0;
    uint64_t trimmed = 0;
    uint64_t ecnMarked = 0;
};

class Qdisc {
public:
    virtual ~Qdisc() = default;

    /// Offer a packet. The qdisc may mutate it (ECN mark, trim), accept it,
    /// or reject it (returns false = dropped).
    virtual bool enqueue(Packet& p) = 0;

    virtual std::optional<Packet> dequeue() = 0;

    /// Queued payload+header bytes (excludes any packet already being
    /// transmitted, which the port owns).
    virtual int64_t queuedBytes() const = 0;
    virtual size_t queuedPackets() const = 0;

    const QdiscStats& stats() const { return stats_; }

protected:
    QdiscStats stats_;
};

struct StrictPriorityOptions {
    /// Maximum queued bytes across all levels; 0 = unbounded.
    int64_t capBytes = 0;
    /// On overflow of a DATA packet, trim it to a header and enqueue at the
    /// highest priority instead of dropping (NDP). Control packets are
    /// never trimmed.
    bool trimOnOverflow = false;
    /// Mark kFlagEcn on enqueue when queuedBytes() >= threshold; 0 = off.
    int64_t ecnThresholdBytes = 0;
};

class StrictPriorityQdisc final : public Qdisc {
public:
    explicit StrictPriorityQdisc(StrictPriorityOptions opts = {}) : opts_(opts) {}

    bool enqueue(Packet& p) override;
    std::optional<Packet> dequeue() override;
    int64_t queuedBytes() const override { return bytes_; }
    size_t queuedPackets() const override { return packets_; }

    /// Highest non-empty priority level, or -1 when empty. Ports use this
    /// for the preemption-lag decomposition.
    int headPriority() const;

private:
    StrictPriorityOptions opts_;
    // Queued packets live in a recycled slab; each level's FIFO is chained
    // through the slab's links (see packet_pool.h).
    PacketPool pool_;
    std::array<PacketPool::Fifo, kPriorityLevels> queues_;
    int64_t bytes_ = 0;
    size_t packets_ = 0;
};

struct PFabricOptions {
    /// Pool size in bytes; pFabric provisions ~2x BDP per port.
    int64_t capBytes = 36 * 1500;
};

class PFabricQdisc final : public Qdisc {
public:
    explicit PFabricQdisc(PFabricOptions opts = {}) : opts_(opts) {}

    bool enqueue(Packet& p) override;
    std::optional<Packet> dequeue() override;
    int64_t queuedBytes() const override { return bytes_; }
    size_t queuedPackets() const override { return data_.size() + controlCount_; }

private:
    PFabricOptions opts_;
    PacketPool slab_;
    PacketPool::Fifo control_;                 // ACKs etc., served first
    size_t controlCount_ = 0;
    std::vector<PacketPool::Handle> data_;     // scanned (queues are small)
    int64_t bytes_ = 0;
};

}  // namespace homa
