// Messages and their lifecycle, shared by every transport.
//
// A Message is the unit of transmission in every transport here: a block of
// bytes with a known length, one sender, one receiver (§2.2 of the paper).
// Senders cut it into DATA packets with dataPacket(); receivers rebuild it
// in an Inbound from its first DATA packet and report a DeliveryInfo when
// the last byte lands. Reassembly tracks which byte ranges of an inbound
// message have arrived; packets may arrive in any order (per-packet
// spraying) and may be duplicated (retransmissions), so it maintains a set
// of disjoint ranges.
#pragma once

#include <cstdint>
#include <map>
#include <optional>

#include "sim/packet.h"
#include "sim/time.h"

namespace homa {

struct Message {
    MsgId id = 0;
    HostId src = kNoHost;
    HostId dst = kNoHost;
    uint32_t length = 0;
    Time created = 0;
    uint16_t flags = 0;  // kMessageFlags bits (request, incast)
};

/// The PacketFlag bits that describe a message rather than one packet.
constexpr uint16_t kMessageFlags = kFlagRequest | kFlagIncastMark;

/// How a message was delivered; feeds the experiment statistics.
struct DeliveryInfo {
    Time completed = 0;
    Duration queueingDelay = 0;   // summed over the message's packets, all hops
    Duration preemptionLag = 0;   // idem (Figure 14 decomposition)
    uint32_t packetsReceived = 0;
    uint32_t duplicateBytes = 0;  // payload received more than once
};

/// Tracks received byte ranges of one inbound message.
class Reassembly {
public:
    explicit Reassembly(uint32_t messageLength) : length_(messageLength) {}

    /// Record receipt of [offset, offset+len). Returns the number of bytes
    /// that were new (0 for a pure duplicate). Ranges beyond the message
    /// length are clipped.
    uint32_t addRange(uint32_t offset, uint32_t len);

    bool complete() const { return received_ == length_; }
    uint32_t receivedBytes() const { return received_; }
    uint32_t messageLength() const { return length_; }

    /// Length of the contiguous prefix received so far.
    uint32_t contiguousPrefix() const;

    /// First missing range, or nullopt when complete. `second` is the
    /// length of the gap (clipped to the message end).
    std::optional<std::pair<uint32_t, uint32_t>> firstGap() const;

private:
    uint32_t length_;
    uint32_t received_ = 0;
    std::map<uint32_t, uint32_t> ranges_;  // offset -> end (disjoint, sorted)
};

/// The DATA packet carrying bytes [offset, offset+len) of `m`: its
/// addressing, length, flags and creation time, with kFlagLast on the final
/// chunk. The sender adds what its protocol decides: the priority, the
/// retransmit flag, the stream id or `remaining`.
inline Packet dataPacket(const Message& m, uint32_t offset, uint32_t len) {
    Packet p;
    p.type = PacketType::Data;
    p.dst = m.dst;
    p.msg = m.id;
    p.created = m.created;
    p.offset = offset;
    p.length = len;
    p.messageLength = m.length;
    p.flags = m.flags;
    if (offset + len >= m.length) p.setFlag(kFlagLast);
    return p;
}

/// Receive-side state of one inbound message, built from the first of its
/// DATA packets to arrive: the message as sent, the bytes received so far,
/// and the delivery record summed over its packets. Transports hold one
/// per inbound message, or derive their own per-message state from it.
struct Inbound {
    Message meta;
    Reassembly reasm;
    DeliveryInfo acc;

    explicit Inbound(const Packet& first);

    /// Count one arrived DATA packet (a duplicate too).
    void add(const Packet& p);

    int64_t remaining() const {
        return static_cast<int64_t>(reasm.messageLength()) -
               reasm.receivedBytes();
    }

    /// The delivery record of a message completed at `now`.
    DeliveryInfo delivered(Time now) const {
        DeliveryInfo info = acc;
        info.completed = now;
        return info;
    }
};

}  // namespace homa
