// The simulated packet.
//
// One struct serves every protocol in the repository. The simulator moves
// packets by value; they carry sizes and metadata, not payload bytes (timing
// depends only on sizes). The on-the-wire byte format lives in src/wire and
// is exercised by its own tests and examples.
#pragma once

#include <cstdint>
#include <string>

#include "sim/time.h"

namespace homa {

using HostId = int32_t;
using MsgId = uint64_t;

constexpr HostId kNoHost = -1;

/// Number of in-network priority levels (per the paper: modern switches
/// support 8 queues per port). Priority 0 is lowest, 7 highest.
constexpr int kPriorityLevels = 8;
constexpr int kHighestPriority = kPriorityLevels - 1;

/// Maximum application payload per DATA packet. The simulations in the
/// paper use 1442-byte full packets (ns-2 heritage); keep that so W5's
/// full-packet quantization matches the paper's x-axis ticks.
constexpr int kMaxPayload = 1442;

/// Transport+IP+Ethernet header bytes carried by every packet.
constexpr int kHeaderBytes = 58;

/// Extra per-frame wire overhead: preamble (8) + inter-packet gap (12) +
/// frame check sequence (4).
constexpr int kFrameOverhead = 24;

/// Bytes on the wire for a full-size data packet.
constexpr int kFullPacketWireBytes = kMaxPayload + kHeaderBytes + kFrameOverhead;

enum class PacketType : uint8_t {
    Data,     // a range of message bytes (all protocols)
    Grant,    // Homa/Basic: permits bytes up to `grantOffset` at `priority`
    Resend,   // Homa: receiver asks for [offset, offset+length)
    Busy,     // Homa: sender defers a RESEND
    Token,    // pHost: permits one packet
    Pull,     // NDP: permits one packet
    Nack,     // NDP: header of a trimmed packet, bounced to the sender
    Ack,      // streaming/pFabric bookkeeping
    Rts,      // pHost request-to-send (rides in first unscheduled packet too)
};

/// Packet flags (bitmask).
enum PacketFlag : uint16_t {
    kFlagRetransmit = 1 << 0,   // resent data
    kFlagTrimmed = 1 << 1,      // NDP: payload removed in-network
    kFlagIncastMark = 1 << 2,   // Homa: RPC flagged for incast response limits
    kFlagEcn = 1 << 3,          // PIAS/DCTCP: congestion experienced
    kFlagRequest = 1 << 4,      // RPC request (vs response) message
    kFlagLast = 1 << 5,         // last packet of its message
};

// Within each part the fields run from wide to narrow, so the struct packs
// into 96 bytes: every queued packet, every packet on a wire and every
// packet waiting out a software delay is a copy.
struct Packet {
    MsgId msg = 0;                   // message / RPC identifier
    HostId src = kNoHost;
    HostId dst = kNoHost;
    uint32_t offset = 0;             // data: first byte; resend: range start
    uint32_t length = 0;             // data payload bytes; resend: range len
    uint32_t messageLength = 0;      // total message length

    // Grant/Token/Pull fields.
    uint32_t grantOffset = 0;        // Homa/Basic: may send up to this

    // pFabric's fine-grained priority: bytes remaining in the message when
    // this packet was sent. Smaller = more urgent.
    uint32_t remaining = 0;

    // Streaming transports: connection/stream identifier (unique per
    // sending host).
    uint32_t stream = 0;

    uint16_t flags = 0;
    PacketType type = PacketType::Data;
    uint8_t priority = 0;            // discrete in-network priority (0..7)
    uint8_t grantPriority = 0;       // Homa: priority for the granted bytes

    // --- Instrumentation (not on the wire) -------------------------------
    Time created = -1;               // message creation time; -1 = unset
    Duration queueingDelay = 0;      // waited behind >= priority packets
    Duration preemptionLag = 0;      // waited behind a < priority packet
    // Transient per-hop accounting, reset by each port.
    Time hopEnqueuedAt = 0;
    Duration hopPreemptLagBound = 0;
    uint32_t hops = 0;
    // Canonical id of the link this packet most recently arrived on,
    // stamped by the transmitting port (-1 until the first hop). Switches
    // order their internal transit queue by (arrival time, arrivalLink), so
    // routing order is a pure function of packet arrivals rather than of
    // event scheduling order — the parallel engine's byte-identity with the
    // serial engine leans on this.
    int32_t arrivalLink = -1;

    bool isControl() const { return type != PacketType::Data; }
    bool hasFlag(PacketFlag f) const { return (flags & f) != 0; }
    void setFlag(PacketFlag f) { flags |= f; }

    /// Bytes this packet occupies on a link, including framing. Trimmed
    /// packets lose their payload but keep header + framing.
    int64_t wireBytes() const;

    std::string summary() const;  // compact human-readable form for logs

    friend bool operator==(const Packet&, const Packet&) = default;
};

static_assert(sizeof(Packet) == 96, "Packet grew: reorder or justify it");

const char* packetTypeName(PacketType t);

}  // namespace homa
