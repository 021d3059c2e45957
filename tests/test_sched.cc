// Unit tests for the src/sched/ subsystem: the incremental SRPT index, the
// round-robin ring, the GrantScheduler policies, the PriorityAllocator's
// scheduled-level assignment, and the packet pool plumbing.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "sched/grant_scheduler.h"
#include "sched/priority_allocator.h"
#include "sched/round_robin.h"
#include "sched/srpt_index.h"
#include "sim/packet_pool.h"

namespace homa {
namespace {

// ------------------------------------------------------------- SrptIndex

TEST(SrptIndex, OrdersByKeyThenId) {
    SrptIndex<MsgId> idx;
    idx.upsert(3, 500);
    idx.upsert(1, 100);
    idx.upsert(2, 100);
    std::vector<MsgId> order;
    idx.visitInOrder([&](MsgId id, int64_t) {
        order.push_back(id);
        return true;
    });
    EXPECT_EQ(order, (std::vector<MsgId>{1, 2, 3}));
    EXPECT_EQ(idx.best(), std::optional<MsgId>(1));
}

TEST(SrptIndex, UpdateOnDeltaReorders) {
    SrptIndex<MsgId> idx;
    idx.upsert(1, 300);
    idx.upsert(2, 200);
    EXPECT_EQ(idx.best(), std::optional<MsgId>(2));
    idx.upsert(1, 100);  // delta: message 1 shrank
    EXPECT_EQ(idx.best(), std::optional<MsgId>(1));
    EXPECT_EQ(idx.size(), 2u);
}

TEST(SrptIndex, EraseAndEmpty) {
    SrptIndex<MsgId> idx;
    EXPECT_FALSE(idx.best().has_value());
    idx.upsert(7, 10);
    EXPECT_TRUE(idx.erase(7));
    EXPECT_FALSE(idx.erase(7));
    EXPECT_TRUE(idx.empty());
}

TEST(SrptIndex, BoundedVisitStopsEarly) {
    SrptIndex<MsgId> idx;
    for (MsgId id = 1; id <= 100; id++) idx.upsert(id, static_cast<int64_t>(id));
    int seen = 0;
    idx.visitInOrder([&](MsgId, int64_t) { return ++seen < 3; });
    EXPECT_EQ(seen, 3);
}

// ---------------------------------------------------------- RoundRobinSet

TEST(RoundRobinSet, CyclesFairly) {
    RoundRobinSet<MsgId> ring;
    ring.insert(1);
    ring.insert(2);
    ring.insert(3);
    std::vector<MsgId> seen;
    for (int i = 0; i < 6; i++) seen.push_back(*ring.next());
    // Every member appears exactly twice in 6 draws.
    for (MsgId id = 1; id <= 3; id++) {
        EXPECT_EQ(std::count(seen.begin(), seen.end(), id), 2) << id;
    }
}

TEST(RoundRobinSet, EraseKeepsCursorValid) {
    RoundRobinSet<MsgId> ring;
    for (MsgId id = 1; id <= 4; id++) ring.insert(id);
    const MsgId atCursor = *ring.peek();
    ring.erase(atCursor);
    EXPECT_EQ(ring.size(), 3u);
    // Cursor moved to a surviving member; next() keeps cycling.
    std::vector<MsgId> seen;
    for (int i = 0; i < 3; i++) seen.push_back(*ring.next());
    std::sort(seen.begin(), seen.end());
    EXPECT_EQ(seen.size(), 3u);
    EXPECT_TRUE(std::unique(seen.begin(), seen.end()) == seen.end());
}

TEST(RoundRobinSet, EraseLastMemberEmptiesRing) {
    RoundRobinSet<MsgId> ring;
    ring.insert(5);
    EXPECT_TRUE(ring.erase(5));
    EXPECT_FALSE(ring.next().has_value());
    ring.insert(6);  // reusable after emptying
    EXPECT_EQ(ring.next(), std::optional<MsgId>(6));
}

TEST(RoundRobinSet, VisitDoesNotAdvance) {
    RoundRobinSet<MsgId> ring;
    ring.insert(1);
    ring.insert(2);
    const MsgId before = *ring.peek();
    int visited = 0;
    ring.visit(2, [&](MsgId) { visited++; });
    EXPECT_EQ(visited, 2);
    EXPECT_EQ(*ring.peek(), before);
}

// -------------------------------------------------------- GrantScheduler

GrantContext ctx8(int degree = 0) {
    GrantContext c;
    c.degree = degree;
    c.schedLevels = 7;
    c.rttBytes = 10000;
    return c;
}

TEST(SrptScheduler, ActiveSetIsTopKByRemaining) {
    auto s = makeGrantScheduler(GrantPolicy::Srpt);
    for (MsgId id = 1; id <= 10; id++) {
        s->add(id, 1000 * static_cast<int64_t>(id), /*created=*/0);
    }
    std::vector<ActiveGrant> out;
    s->decide(ctx8(4), out);
    ASSERT_EQ(out.size(), 4u);
    for (int i = 0; i < 4; i++) {
        EXPECT_EQ(out[i].id, static_cast<MsgId>(i + 1));
        EXPECT_EQ(out[i].rank, i);
    }
    EXPECT_EQ(s->withheld(), 6);
}

TEST(SrptScheduler, LowestAvailableLevels) {
    // Figure 5: k active messages occupy logical levels 0..k-1, most
    // urgent highest; overflow shares the top scheduled level.
    auto s = makeGrantScheduler(GrantPolicy::Srpt);
    for (MsgId id = 1; id <= 3; id++) s->add(id, 1000 * static_cast<int64_t>(id), 0);
    std::vector<ActiveGrant> out;
    s->decide(ctx8(0), out);  // degree <= 0 -> schedLevels (7)
    ASSERT_EQ(out.size(), 3u);
    EXPECT_EQ(out[0].logicalPriority, 2);
    EXPECT_EQ(out[1].logicalPriority, 1);
    EXPECT_EQ(out[2].logicalPriority, 0);
}

TEST(SrptScheduler, DeltaPromotesMessage) {
    auto s = makeGrantScheduler(GrantPolicy::Srpt);
    s->add(1, 5000, 0);
    s->add(2, 9000, 0);
    s->update(2, 1000);  // message 2 received data, now shortest
    std::vector<ActiveGrant> out;
    s->decide(ctx8(2), out);
    ASSERT_EQ(out.size(), 2u);
    EXPECT_EQ(out[0].id, 2u);
}

TEST(SrptScheduler, OldestReservationHoldsLastSlot) {
    auto s = makeGrantScheduler(GrantPolicy::Srpt);
    // Message 9 is the oldest but has the most remaining bytes: pure SRPT
    // with degree 2 would exclude it forever.
    s->add(9, 1000000, /*created=*/5);
    s->add(1, 1000, /*created=*/50);
    s->add(2, 2000, /*created=*/60);
    s->add(3, 3000, /*created=*/70);
    GrantContext c = ctx8(2);
    c.oldestReservation = 0.1;
    std::vector<ActiveGrant> out;
    s->decide(c, out);
    ASSERT_EQ(out.size(), 2u);
    EXPECT_EQ(out[0].id, 1u);
    EXPECT_EQ(out[1].id, 9u) << "oldest takes the last active slot";
    EXPECT_EQ(out[1].logicalPriority, c.schedLevels - 1)
        << "reserved trickle goes at the top scheduled level";
    EXPECT_EQ(out[1].window, kMaxPayload)
        << "10% of rtt < 1 packet clamps to one full packet";
}

TEST(SrptScheduler, RemoveFreesSlotForWithheldMessage) {
    auto s = makeGrantScheduler(GrantPolicy::Srpt);
    for (MsgId id = 1; id <= 3; id++) s->add(id, 1000 * static_cast<int64_t>(id), 0);
    std::vector<ActiveGrant> out;
    s->decide(ctx8(2), out);
    EXPECT_EQ(s->withheld(), 1);
    s->remove(1);
    s->decide(ctx8(2), out);
    ASSERT_EQ(out.size(), 2u);
    EXPECT_EQ(out[0].id, 2u);
    EXPECT_EQ(out[1].id, 3u);
    EXPECT_EQ(s->withheld(), 0);
}

TEST(FifoScheduler, GrantsInArrivalOrder) {
    auto s = makeGrantScheduler(GrantPolicy::Fifo);
    s->add(5, 100, /*created=*/30);   // shortest, but latest
    s->add(6, 90000, /*created=*/10);
    s->add(7, 50000, /*created=*/20);
    std::vector<ActiveGrant> out;
    s->decide(ctx8(2), out);
    ASSERT_EQ(out.size(), 2u);
    EXPECT_EQ(out[0].id, 6u);
    EXPECT_EQ(out[1].id, 7u);
    EXPECT_EQ(s->withheld(), 1);
}

TEST(RoundRobinScheduler, RotatesActiveWindow) {
    auto s = makeGrantScheduler(GrantPolicy::RoundRobin);
    for (MsgId id = 1; id <= 3; id++) s->add(id, 1000, 0);
    std::vector<ActiveGrant> a, b, c;
    s->decide(ctx8(1), a);
    s->decide(ctx8(1), b);
    s->decide(ctx8(1), c);
    ASSERT_EQ(a.size(), 1u);
    ASSERT_EQ(b.size(), 1u);
    ASSERT_EQ(c.size(), 1u);
    // Three consecutive single-slot decisions grant three distinct messages.
    EXPECT_NE(a[0].id, b[0].id);
    EXPECT_NE(b[0].id, c[0].id);
    EXPECT_NE(a[0].id, c[0].id);
}

TEST(UnlimitedScheduler, OnlyDirtyMessagesListedAndNothingWithheld) {
    auto s = makeGrantScheduler(GrantPolicy::Unlimited);
    for (MsgId id = 1; id <= 50; id++) s->add(id, 100000, 0);
    std::vector<ActiveGrant> out;
    s->decide(ctx8(1), out);
    EXPECT_EQ(out.size(), 50u) << "initial adds are all dirty";
    EXPECT_EQ(s->withheld(), 0);

    s->update(7, 90000);
    s->decide(ctx8(1), out);
    ASSERT_EQ(out.size(), 1u) << "only the delta'd message re-decided";
    EXPECT_EQ(out[0].id, 7u);

    s->decide(ctx8(1), out);
    EXPECT_TRUE(out.empty()) << "no deltas, no work";
}

// ----------------------------------------------------- PriorityAllocator

TEST(PriorityAllocator, ScheduledLevelAssignment) {
    PriorityAllocation a;
    a.logicalLevels = 8;
    a.unschedLevels = 1;
    a.schedLevels = 7;
    PriorityAllocator prio(a);
    // 3 active: ranks 0,1,2 -> levels 2,1,0.
    EXPECT_EQ(prio.scheduledLevel(0, 3), 2);
    EXPECT_EQ(prio.scheduledLevel(1, 3), 1);
    EXPECT_EQ(prio.scheduledLevel(2, 3), 0);
    // 9 active with 7 levels: the two most urgent share the top level.
    EXPECT_EQ(prio.scheduledLevel(0, 9), 6);
    EXPECT_EQ(prio.scheduledLevel(1, 9), 6);
    EXPECT_EQ(prio.scheduledLevel(2, 9), 6);
    EXPECT_EQ(prio.scheduledLevel(8, 9), 0);
}

// ------------------------------------------------------------ PacketPool

TEST(PacketPool, RecyclesSlots) {
    PacketPool pool;
    Packet p;
    p.msg = 42;
    const auto h1 = pool.acquire(p);
    EXPECT_EQ(pool.at(h1).msg, 42u);
    pool.release(h1);
    p.msg = 43;
    const auto h2 = pool.acquire(p);
    EXPECT_EQ(h2, h1) << "freed slot is reused";
    EXPECT_EQ(pool.capacity(), 1u);
}

// The pool's FIFOs chain queued slots through the same links as the
// freelist, so they need order kept across growth, across interleaved
// pushes and pops, and while other FIFOs of the same pool hold slots.

Packet withMsg(MsgId msg) {
    Packet p;
    p.msg = msg;
    return p;
}

TEST(PacketPoolFifo, FifoAcrossGrowth) {
    PacketPool pool;
    PacketPool::Fifo q;
    for (MsgId i = 0; i < 100; i++) pool.push(q, withMsg(i));
    for (MsgId i = 0; i < 100; i++) {
        ASSERT_FALSE(q.empty());
        EXPECT_EQ(pool.pop(q).msg, i);
    }
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(pool.capacity(), 100u);
}

TEST(PacketPoolFifo, InterleavedPushPopKeepsOrder) {
    PacketPool pool;
    PacketPool::Fifo q;
    MsgId nextPush = 0, nextPop = 0;
    for (int round = 0; round < 200; round++) {
        pool.push(q, withMsg(nextPush++));
        pool.push(q, withMsg(nextPush++));
        EXPECT_EQ(pool.pop(q).msg, nextPop++);
    }
    while (!q.empty()) EXPECT_EQ(pool.pop(q).msg, nextPop++);
    EXPECT_EQ(nextPop, nextPush);
    EXPECT_EQ(pool.capacity(), 201u) << "popped slots are reused";
}

TEST(PacketPoolFifo, SlotReusedWhileOtherFifosHoldPackets) {
    PacketPool pool;
    PacketPool::Fifo a, b;
    pool.push(a, withMsg(1));
    pool.push(b, withMsg(10));
    pool.push(a, withMsg(2));
    pool.push(b, withMsg(11));
    EXPECT_EQ(pool.pop(a).msg, 1u);
    // The slot that packet 1 freed is the next one handed out, here to b,
    // while a still holds 2 and b holds 10 and 11.
    pool.push(b, withMsg(12));
    pool.push(a, withMsg(3));
    EXPECT_EQ(pool.capacity(), 5u);
    EXPECT_EQ(pool.pop(b).msg, 10u);
    EXPECT_EQ(pool.pop(a).msg, 2u);
    EXPECT_EQ(pool.pop(b).msg, 11u);
    EXPECT_EQ(pool.pop(b).msg, 12u);
    EXPECT_TRUE(b.empty());
    EXPECT_EQ(pool.pop(a).msg, 3u);
    EXPECT_TRUE(a.empty());
    // Emptied FIFOs start over cleanly.
    pool.push(b, withMsg(20));
    EXPECT_EQ(a.head, PacketPool::kNone);
    EXPECT_EQ(b.head, b.tail);
    EXPECT_EQ(pool.pop(b).msg, 20u);
}

}  // namespace
}  // namespace homa
