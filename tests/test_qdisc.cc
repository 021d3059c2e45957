#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <deque>
#include <optional>
#include <vector>

#include "sim/qdisc.h"
#include "sim/random.h"

namespace homa {
namespace {

Packet dataPacket(uint8_t prio, uint32_t len = kMaxPayload, MsgId msg = 1,
                  uint32_t offset = 0) {
    Packet p;
    p.type = PacketType::Data;
    p.priority = prio;
    p.length = len;
    p.msg = msg;
    p.offset = offset;
    return p;
}

TEST(StrictPriority, HigherPriorityDequeuesFirst) {
    StrictPriorityQdisc q;
    Packet lo = dataPacket(1), hi = dataPacket(6), mid = dataPacket(3);
    q.enqueue(lo);
    q.enqueue(hi);
    q.enqueue(mid);
    EXPECT_EQ(q.dequeue()->priority, 6);
    EXPECT_EQ(q.dequeue()->priority, 3);
    EXPECT_EQ(q.dequeue()->priority, 1);
    EXPECT_FALSE(q.dequeue().has_value());
}

TEST(StrictPriority, FifoWithinLevel) {
    StrictPriorityQdisc q;
    for (uint32_t i = 0; i < 5; i++) {
        Packet p = dataPacket(4, 100, /*msg=*/i);
        q.enqueue(p);
    }
    for (uint32_t i = 0; i < 5; i++) EXPECT_EQ(q.dequeue()->msg, i);
}

TEST(StrictPriority, TracksBytesAndPackets) {
    StrictPriorityQdisc q;
    Packet a = dataPacket(0, 1000), b = dataPacket(7, 200);
    q.enqueue(a);
    q.enqueue(b);
    EXPECT_EQ(q.queuedPackets(), 2u);
    EXPECT_EQ(q.queuedBytes(), 1000 + 200 + 2 * kHeaderBytes);
    q.dequeue();
    EXPECT_EQ(q.queuedPackets(), 1u);
}

TEST(StrictPriority, HeadPriority) {
    StrictPriorityQdisc q;
    EXPECT_EQ(q.headPriority(), -1);
    Packet p = dataPacket(2);
    q.enqueue(p);
    EXPECT_EQ(q.headPriority(), 2);
    Packet p2 = dataPacket(5);
    q.enqueue(p2);
    EXPECT_EQ(q.headPriority(), 5);
}

TEST(StrictPriority, CapDropsWhenFull) {
    StrictPriorityOptions o;
    o.capBytes = 3 * 1500;
    StrictPriorityQdisc q(o);
    int accepted = 0;
    for (int i = 0; i < 10; i++) {
        Packet p = dataPacket(0);
        if (q.enqueue(p)) accepted++;
    }
    EXPECT_EQ(accepted, 3);  // 3 x (1442+58) = 4500 fits exactly
    EXPECT_EQ(q.stats().dropped, 7u);
}

TEST(StrictPriority, DropAccountingLeavesQueueStateUntouched) {
    StrictPriorityOptions o;
    o.capBytes = 2 * 1500;
    StrictPriorityQdisc q(o);
    Packet a = dataPacket(3), b = dataPacket(5);
    ASSERT_TRUE(q.enqueue(a));
    ASSERT_TRUE(q.enqueue(b));
    const int64_t bytesBefore = q.queuedBytes();
    const size_t packetsBefore = q.queuedPackets();
    for (uint32_t i = 0; i < 4; i++) {
        Packet p = dataPacket(7, kMaxPayload, /*msg=*/100 + i);
        EXPECT_FALSE(q.enqueue(p));
    }
    // A rejected packet must not perturb occupancy or the enqueued count.
    EXPECT_EQ(q.queuedBytes(), bytesBefore);
    EXPECT_EQ(q.queuedPackets(), packetsBefore);
    EXPECT_EQ(q.stats().dropped, 4u);
    EXPECT_EQ(q.stats().enqueued, 2u);
    // The queue keeps serving what it accepted.
    EXPECT_EQ(q.dequeue()->priority, 5);
    EXPECT_EQ(q.dequeue()->priority, 3);
    EXPECT_FALSE(q.dequeue().has_value());
}

TEST(StrictPriority, DrainingBelowCapAcceptsAgain) {
    StrictPriorityOptions o;
    o.capBytes = 1500;
    StrictPriorityQdisc q(o);
    Packet a = dataPacket(0);
    ASSERT_TRUE(q.enqueue(a));
    Packet b = dataPacket(0);
    EXPECT_FALSE(q.enqueue(b));
    q.dequeue();
    Packet c = dataPacket(0);
    EXPECT_TRUE(q.enqueue(c));
    EXPECT_EQ(q.stats().dropped, 1u);
    EXPECT_EQ(q.stats().enqueued, 2u);
}

TEST(StrictPriority, TrimAccountsHeaderBytesOnly) {
    StrictPriorityOptions o;
    o.capBytes = 2 * 1500;
    o.trimOnOverflow = true;
    StrictPriorityQdisc q(o);
    Packet a = dataPacket(0), b = dataPacket(0);
    ASSERT_TRUE(q.enqueue(a));
    ASSERT_TRUE(q.enqueue(b));
    const int64_t bytesBefore = q.queuedBytes();
    Packet c = dataPacket(0, kMaxPayload, /*msg=*/7, /*offset=*/2884);
    ASSERT_TRUE(q.enqueue(c));
    // The trimmed packet occupies one header, no payload, and keeps its
    // message identity so the receiver can request a retransmission.
    EXPECT_EQ(q.queuedBytes(), bytesBefore + kHeaderBytes);
    EXPECT_EQ(q.stats().trimmed, 1u);
    EXPECT_EQ(q.stats().dropped, 0u);
    EXPECT_EQ(q.stats().enqueued, 3u);
    auto first = q.dequeue();
    EXPECT_EQ(first->msg, 7u);
    EXPECT_EQ(first->offset, 2884u);
}

TEST(StrictPriority, TrimOnOverflowConvertsToHeader) {
    StrictPriorityOptions o;
    o.capBytes = 2 * 1500;
    o.trimOnOverflow = true;
    StrictPriorityQdisc q(o);
    Packet a = dataPacket(0), b = dataPacket(0);
    ASSERT_TRUE(q.enqueue(a));
    ASSERT_TRUE(q.enqueue(b));  // fills the cap
    Packet c = dataPacket(0, kMaxPayload, /*msg=*/9);
    ASSERT_TRUE(q.enqueue(c));  // trimmed, not dropped
    EXPECT_EQ(q.stats().trimmed, 1u);
    EXPECT_EQ(q.stats().dropped, 0u);
    // The trimmed header comes out first (highest priority).
    auto first = q.dequeue();
    ASSERT_TRUE(first.has_value());
    EXPECT_TRUE(first->hasFlag(kFlagTrimmed));
    EXPECT_EQ(first->msg, 9u);
    EXPECT_EQ(first->priority, kHighestPriority);
    EXPECT_EQ(first->wireBytes(), kHeaderBytes + kFrameOverhead);
}

TEST(StrictPriority, EcnMarksAboveThreshold) {
    StrictPriorityOptions o;
    o.ecnThresholdBytes = 2 * 1500;
    StrictPriorityQdisc q(o);
    Packet a = dataPacket(0), b = dataPacket(0), c = dataPacket(0);
    q.enqueue(a);
    q.enqueue(b);
    EXPECT_FALSE(b.hasFlag(kFlagEcn));
    q.enqueue(c);  // occupancy now >= threshold at enqueue time
    EXPECT_TRUE(c.hasFlag(kFlagEcn));
    EXPECT_EQ(q.stats().ecnMarked, 1u);
}

TEST(PFabric, DequeuesSmallestRemaining) {
    PFabricQdisc q;
    for (uint32_t rem : {50000u, 100u, 7000u}) {
        Packet p = dataPacket(0, kMaxPayload, /*msg=*/rem);
        p.remaining = rem;
        q.enqueue(p);
    }
    EXPECT_EQ(q.dequeue()->remaining, 100u);
    EXPECT_EQ(q.dequeue()->remaining, 7000u);
    EXPECT_EQ(q.dequeue()->remaining, 50000u);
}

TEST(PFabric, EarliestOffsetWithinWinningMessage) {
    PFabricQdisc q;
    for (uint32_t off : {2884u, 0u, 1442u}) {
        Packet p = dataPacket(0, kMaxPayload, /*msg=*/5, off);
        p.remaining = 1000;
        q.enqueue(p);
    }
    EXPECT_EQ(q.dequeue()->offset, 0u);
    EXPECT_EQ(q.dequeue()->offset, 1442u);
    EXPECT_EQ(q.dequeue()->offset, 2884u);
}

TEST(PFabric, OverflowDropsLargestRemaining) {
    PFabricQdisc q(PFabricOptions{2 * 1500});
    Packet a = dataPacket(0, kMaxPayload, 1);
    a.remaining = 10;
    Packet b = dataPacket(0, kMaxPayload, 2);
    b.remaining = 999999;
    ASSERT_TRUE(q.enqueue(a));
    ASSERT_TRUE(q.enqueue(b));
    // Queue full. An urgent packet evicts the 999999-remaining one.
    Packet c = dataPacket(0, kMaxPayload, 3);
    c.remaining = 20;
    ASSERT_TRUE(q.enqueue(c));
    EXPECT_EQ(q.stats().dropped, 1u);
    EXPECT_EQ(q.dequeue()->msg, 1u);
    EXPECT_EQ(q.dequeue()->msg, 3u);
    EXPECT_FALSE(q.dequeue().has_value());
}

TEST(PFabric, IncomingWorstIsDroppedItself) {
    PFabricQdisc q(PFabricOptions{2 * 1500});
    Packet a = dataPacket(0, kMaxPayload, 1);
    a.remaining = 10;
    Packet b = dataPacket(0, kMaxPayload, 2);
    b.remaining = 20;
    ASSERT_TRUE(q.enqueue(a));
    ASSERT_TRUE(q.enqueue(b));
    Packet c = dataPacket(0, kMaxPayload, 3);
    c.remaining = 30;  // worse than everything queued
    EXPECT_FALSE(q.enqueue(c));
    EXPECT_EQ(q.stats().dropped, 1u);
}

TEST(PFabric, EvictionAccountingStaysConsistent) {
    PFabricQdisc q(PFabricOptions{2 * 1500});
    Packet a = dataPacket(0, kMaxPayload, 1);
    a.remaining = 10;
    Packet b = dataPacket(0, kMaxPayload, 2);
    b.remaining = 999999;
    ASSERT_TRUE(q.enqueue(a));
    ASSERT_TRUE(q.enqueue(b));
    const int64_t bytesFull = q.queuedBytes();
    Packet c = dataPacket(0, kMaxPayload, 3);
    c.remaining = 20;
    ASSERT_TRUE(q.enqueue(c));  // evicts b
    // Eviction swaps one packet for another: occupancy is unchanged, and
    // enqueued counts accepted packets while dropped counts the victim.
    EXPECT_EQ(q.queuedBytes(), bytesFull);
    EXPECT_EQ(q.queuedPackets(), 2u);
    EXPECT_EQ(q.stats().enqueued, 3u);
    EXPECT_EQ(q.stats().dropped, 1u);
    q.dequeue();
    q.dequeue();
    EXPECT_EQ(q.queuedBytes(), 0);
    EXPECT_EQ(q.queuedPackets(), 0u);
}

TEST(PFabric, ControlServedBeforeData) {
    PFabricQdisc q;
    Packet d = dataPacket(0);
    d.remaining = 1;
    q.enqueue(d);
    Packet ack;
    ack.type = PacketType::Ack;
    ack.priority = kHighestPriority;
    q.enqueue(ack);
    EXPECT_EQ(q.dequeue()->type, PacketType::Ack);
    EXPECT_EQ(q.dequeue()->type, PacketType::Data);
}

TEST(PFabric, ControlNeverDroppedByCap) {
    PFabricQdisc q(PFabricOptions{1500});
    Packet d = dataPacket(0);
    d.remaining = 5;
    ASSERT_TRUE(q.enqueue(d));
    for (int i = 0; i < 10; i++) {
        Packet ack;
        ack.type = PacketType::Ack;
        EXPECT_TRUE(q.enqueue(ack));
    }
}

// ------------------------------------------- differential vs. references
//
// Both qdiscs queue through PacketPool's chained FIFOs. These runs check
// them, op for op, against the plain containers they replaced: the same
// rules over std::deque<Packet> per level (and pFabric's control FIFO),
// and every dequeued packet, occupancy, head level and statistic must
// agree.

int64_t refBufferBytes(const Packet& p) {
    const bool payload = p.type == PacketType::Data && !p.hasFlag(kFlagTrimmed);
    return (payload ? p.length : 0) + kHeaderBytes;
}

bool sameStats(const QdiscStats& a, const QdiscStats& b) {
    return a.enqueued == b.enqueued && a.dropped == b.dropped &&
           a.trimmed == b.trimmed && a.ecnMarked == b.ecnMarked;
}

class RefStrictPriority {
public:
    explicit RefStrictPriority(StrictPriorityOptions o) : opts_(o) {}

    bool enqueue(Packet& p) {
        if (opts_.ecnThresholdBytes > 0 && bytes_ >= opts_.ecnThresholdBytes) {
            p.setFlag(kFlagEcn);
            stats.ecnMarked++;
        }
        if (opts_.capBytes > 0 && bytes_ + refBufferBytes(p) > opts_.capBytes) {
            if (!opts_.trimOnOverflow) {
                stats.dropped++;
                return false;
            }
            if (p.type == PacketType::Data && !p.hasFlag(kFlagTrimmed)) {
                p.setFlag(kFlagTrimmed);
                p.priority = kHighestPriority;
                stats.trimmed++;
            }
        }
        levels_[p.priority].push_back(p);
        bytes_ += refBufferBytes(p);
        stats.enqueued++;
        return true;
    }

    std::optional<Packet> dequeue() {
        for (int prio = kHighestPriority; prio >= 0; prio--) {
            if (levels_[prio].empty()) continue;
            Packet p = levels_[prio].front();
            levels_[prio].pop_front();
            bytes_ -= refBufferBytes(p);
            return p;
        }
        return std::nullopt;
    }

    int headPriority() const {
        for (int prio = kHighestPriority; prio >= 0; prio--) {
            if (!levels_[prio].empty()) return prio;
        }
        return -1;
    }

    int64_t queuedBytes() const { return bytes_; }
    size_t queuedPackets() const {
        size_t n = 0;
        for (const auto& q : levels_) n += q.size();
        return n;
    }

    QdiscStats stats;

private:
    StrictPriorityOptions opts_;
    std::array<std::deque<Packet>, kPriorityLevels> levels_;
    int64_t bytes_ = 0;
};

// A random packet: mostly data of any size at any level, some already
// trimmed headers, some control packets; `msg` numbers every packet.
Packet randomPacket(Rng& rng, MsgId serial) {
    Packet p;
    p.msg = serial;
    p.priority = static_cast<uint8_t>(rng.below(kPriorityLevels));
    p.length = static_cast<uint32_t>(rng.range(1, kMaxPayload));
    p.offset = static_cast<uint32_t>(rng.below(1 << 20));
    p.remaining = static_cast<uint32_t>(rng.range(1, 1 << 20));
    p.created = static_cast<Time>(serial);
    if (rng.chance(0.15)) {
        p.type = PacketType::Grant;
    } else if (rng.chance(0.05)) {
        p.setFlag(kFlagTrimmed);
    }
    return p;
}

// Enqueue-heavy and dequeue-heavy phases alternate, so the queues fill
// past any cap, drain to empty, and reuse freed slots across levels.
bool enqueuePhase(int op) { return (op / 1000) % 2 == 0; }

TEST(StrictPriority, MatchesPerLevelDequesOverRandomRuns) {
    struct Setting {
        const char* name;
        StrictPriorityOptions opts;
    };
    StrictPriorityOptions capped, trimming, ecn;
    capped.capBytes = 24 * 1500;
    trimming.capBytes = 24 * 1500;
    trimming.trimOnOverflow = true;
    ecn.ecnThresholdBytes = 12 * 1500;
    const Setting settings[] = {{"default", {}},
                                {"byte cap, tail drop", capped},
                                {"trimOnOverflow", trimming},
                                {"ECN threshold", ecn}};
    constexpr int kOps = 120000;
    for (const Setting& st : settings) {
        SCOPED_TRACE(st.name);
        StrictPriorityQdisc q(st.opts);
        RefStrictPriority ref(st.opts);
        Rng rng(0x5eed);
        MsgId serial = 0;
        for (int op = 0; op < kOps; op++) {
            if (rng.chance(enqueuePhase(op) ? 0.7 : 0.3)) {
                Packet a = randomPacket(rng, serial++);
                Packet b = a;
                ASSERT_EQ(q.enqueue(a), ref.enqueue(b)) << "op " << op;
                ASSERT_EQ(a, b) << "op " << op << ": marks and trims differ";
            } else {
                const std::optional<Packet> got = q.dequeue();
                const std::optional<Packet> want = ref.dequeue();
                ASSERT_EQ(got.has_value(), want.has_value()) << "op " << op;
                if (got) {
                    ASSERT_EQ(*got, *want) << "op " << op;
                }
            }
            ASSERT_EQ(q.queuedBytes(), ref.queuedBytes()) << "op " << op;
            ASSERT_EQ(q.queuedPackets(), ref.queuedPackets()) << "op " << op;
            ASSERT_EQ(q.headPriority(), ref.headPriority()) << "op " << op;
            ASSERT_TRUE(sameStats(q.stats(), ref.stats)) << "op " << op;
        }
        // Every setting exercised what it configures.
        EXPECT_GT(q.stats().enqueued, 30000u);
        if (st.opts.capBytes > 0 && !st.opts.trimOnOverflow) {
            EXPECT_GT(q.stats().dropped, 1000u);
        }
        if (st.opts.trimOnOverflow) {
            EXPECT_GT(q.stats().trimmed, 1000u);
        }
        if (st.opts.ecnThresholdBytes > 0) {
            EXPECT_GT(q.stats().ecnMarked, 1000u);
        }
    }
}

class RefPFabric {
public:
    explicit RefPFabric(PFabricOptions o) : opts_(o) {}

    bool enqueue(Packet& p) {
        if (p.isControl()) {
            control_.push_back(p);
            bytes_ += refBufferBytes(p);
            stats.enqueued++;
            return true;
        }
        auto byRemaining = [](const Packet& a, const Packet& b) {
            return a.remaining < b.remaining;
        };
        if (bytes_ + refBufferBytes(p) > opts_.capBytes) {
            auto worst = std::max_element(data_.begin(), data_.end(), byRemaining);
            if (worst == data_.end() || worst->remaining <= p.remaining) {
                stats.dropped++;
                return false;
            }
            while (bytes_ + refBufferBytes(p) > opts_.capBytes && !data_.empty()) {
                worst = std::max_element(data_.begin(), data_.end(), byRemaining);
                if (worst->remaining <= p.remaining) break;
                bytes_ -= refBufferBytes(*worst);
                data_.erase(worst);
                stats.dropped++;
            }
            if (bytes_ + refBufferBytes(p) > opts_.capBytes) {
                stats.dropped++;
                return false;
            }
        }
        data_.push_back(p);
        bytes_ += refBufferBytes(p);
        stats.enqueued++;
        return true;
    }

    std::optional<Packet> dequeue() {
        if (!control_.empty()) {
            Packet p = control_.front();
            control_.pop_front();
            bytes_ -= refBufferBytes(p);
            return p;
        }
        if (data_.empty()) return std::nullopt;
        const MsgId msg =
            std::min_element(data_.begin(), data_.end(),
                             [](const Packet& a, const Packet& b) {
                                 return a.remaining < b.remaining;
                             })
                ->msg;
        auto earliest = data_.end();
        for (auto it = data_.begin(); it != data_.end(); ++it) {
            if (it->msg != msg) continue;
            if (earliest == data_.end() || it->offset < earliest->offset) {
                earliest = it;
            }
        }
        Packet p = *earliest;
        data_.erase(earliest);
        bytes_ -= refBufferBytes(p);
        return p;
    }

    int64_t queuedBytes() const { return bytes_; }
    size_t queuedPackets() const { return control_.size() + data_.size(); }

    QdiscStats stats;

private:
    PFabricOptions opts_;
    std::deque<Packet> control_;
    std::vector<Packet> data_;
    int64_t bytes_ = 0;
};

TEST(PFabric, MatchesReferenceWithControlInterleaved) {
    PFabricQdisc q;
    RefPFabric ref(PFabricOptions{});
    Rng rng(0xfab);
    MsgId serial = 0;
    constexpr int kOps = 120000;
    for (int op = 0; op < kOps; op++) {
        if (rng.chance(enqueuePhase(op) ? 0.7 : 0.3)) {
            Packet a = randomPacket(rng, serial++);
            // A few messages at a time, so the earliest-offset rule within
            // the winning message matters; a message's remaining bytes
            // stay its own.
            a.msg = rng.below(12);
            a.remaining = static_cast<uint32_t>(a.msg * 10000 + 1);
            Packet b = a;
            ASSERT_EQ(q.enqueue(a), ref.enqueue(b)) << "op " << op;
        } else {
            const std::optional<Packet> got = q.dequeue();
            const std::optional<Packet> want = ref.dequeue();
            ASSERT_EQ(got.has_value(), want.has_value()) << "op " << op;
            if (got) {
                ASSERT_EQ(*got, *want) << "op " << op;
            }
        }
        ASSERT_EQ(q.queuedBytes(), ref.queuedBytes()) << "op " << op;
        ASSERT_EQ(q.queuedPackets(), ref.queuedPackets()) << "op " << op;
        ASSERT_TRUE(sameStats(q.stats(), ref.stats)) << "op " << op;
    }
    EXPECT_GT(q.stats().enqueued, 30000u);
    EXPECT_GT(q.stats().dropped, 1000u);
}

}  // namespace
}  // namespace homa
