#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <functional>
#include <memory>
#include <random>
#include <set>
#include <stdexcept>
#include <tuple>
#include <vector>

#include "sim/event_loop.h"

namespace homa {
namespace {

TEST(EventLoop, StartsAtZero) {
    EventLoop loop;
    EXPECT_EQ(loop.now(), 0);
    EXPECT_EQ(loop.pendingEvents(), 0u);
}

TEST(EventLoop, RunsEventsInTimeOrder) {
    EventLoop loop;
    std::vector<int> order;
    loop.at(30, [&] { order.push_back(3); });
    loop.at(10, [&] { order.push_back(1); });
    loop.at(20, [&] { order.push_back(2); });
    loop.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(loop.now(), 30);
}

TEST(EventLoop, TiesRunInSchedulingOrder) {
    EventLoop loop;
    std::vector<int> order;
    for (int i = 0; i < 10; i++) {
        loop.at(5, [&, i] { order.push_back(i); });
    }
    loop.run();
    for (int i = 0; i < 10; i++) EXPECT_EQ(order[i], i);
}

TEST(EventLoop, AfterSchedulesRelative) {
    EventLoop loop;
    Time fired = -1;
    loop.at(100, [&] {
        loop.after(50, [&] { fired = loop.now(); });
    });
    loop.run();
    EXPECT_EQ(fired, 150);
}

TEST(EventLoop, PastTimesClampToNow) {
    EventLoop loop;
    Time fired = -1;
    loop.at(100, [&] {
        loop.at(10, [&] { fired = loop.now(); });  // in the past
    });
    loop.run();
    EXPECT_EQ(fired, 100);
}

TEST(EventLoop, RunOneReturnsFalseWhenEmpty) {
    EventLoop loop;
    EXPECT_FALSE(loop.runOne());
    loop.at(1, [] {});
    EXPECT_TRUE(loop.runOne());
    EXPECT_FALSE(loop.runOne());
}

TEST(EventLoop, RunUntilAdvancesClockWithoutEvents) {
    EventLoop loop;
    loop.runUntil(12345);
    EXPECT_EQ(loop.now(), 12345);
}

TEST(EventLoop, RunUntilExecutesOnlyDueEvents) {
    EventLoop loop;
    int ran = 0;
    loop.at(10, [&] { ran++; });
    loop.at(20, [&] { ran++; });
    loop.runUntil(15);
    EXPECT_EQ(ran, 1);
    EXPECT_EQ(loop.now(), 15);
    EXPECT_EQ(loop.pendingEvents(), 1u);
}

TEST(EventLoop, RunWithLimitStops) {
    EventLoop loop;
    for (int i = 0; i < 100; i++) loop.at(i, [] {});
    EXPECT_EQ(loop.run(10), 10u);
    EXPECT_EQ(loop.pendingEvents(), 90u);
}

TEST(EventLoop, CountsExecutedEvents) {
    EventLoop loop;
    for (int i = 0; i < 7; i++) loop.at(i, [] {});
    loop.run();
    EXPECT_EQ(loop.executedEvents(), 7u);
}

TEST(EventLoopClamp, PastEventJoinsBackOfCurrentInstantFifo) {
    // Clamping t < now() must not reorder same-instant events: the clamped
    // event joins the back of the current instant's queue, behind events
    // already scheduled for now(), in scheduling order.
    EventLoop loop;
    std::vector<int> order;
    loop.at(100, [&] {
        loop.at(100, [&] { order.push_back(1); });  // same instant, first
        loop.at(10, [&] { order.push_back(2); });   // past: clamped to 100
        loop.at(50, [&] { order.push_back(3); });   // past: clamped to 100
    });
    loop.run();
    EXPECT_EQ(loop.now(), 100);
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventLoopClamp, ClampedEventsPreserveMutualFifo) {
    EventLoop loop;
    std::vector<int> order;
    loop.at(200, [&] {
        // All in the past, in "wrong" time order: scheduling order rules.
        loop.at(30, [&] { order.push_back(1); });
        loop.at(20, [&] { order.push_back(2); });
        loop.at(10, [&] { order.push_back(3); });
    });
    loop.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventLoopClamp, ClampAfterRunUntilAdvancedClock) {
    EventLoop loop;
    loop.runUntil(1000);  // no events; clock moved forward
    Time fired = -1;
    loop.at(5, [&] { fired = loop.now(); });  // far in the past
    loop.run();
    EXPECT_EQ(fired, 1000);
}

TEST(EventLoopCancel, CancelledEventNeverRuns) {
    EventLoop loop;
    int fired = 0;
    auto h = loop.at(10, [&] { fired++; });
    EXPECT_TRUE(loop.pending(h));
    EXPECT_TRUE(loop.cancel(h));
    EXPECT_FALSE(loop.pending(h));
    EXPECT_FALSE(loop.cancel(h));  // second cancel is a stale no-op
    loop.run();
    EXPECT_EQ(fired, 0);
    EXPECT_EQ(loop.executedEvents(), 0u);
}

TEST(EventLoopCancel, PendingCountExcludesCancelled) {
    EventLoop loop;
    auto h1 = loop.at(10, [] {});
    loop.at(20, [] {});
    EXPECT_EQ(loop.pendingEvents(), 2u);
    loop.cancel(h1);
    EXPECT_EQ(loop.pendingEvents(), 1u);
    EXPECT_EQ(loop.run(), 1u);
}

TEST(EventLoopCancel, StaleHandleAfterExecutionIsHarmless) {
    EventLoop loop;
    auto h = loop.at(10, [] {});
    loop.run();
    EXPECT_FALSE(loop.pending(h));
    EXPECT_FALSE(loop.cancel(h));
}

TEST(EventLoopCancel, SlotReuseInvalidatesOldHandles) {
    EventLoop loop;
    auto h1 = loop.at(10, [] {});
    loop.cancel(h1);
    int fired = 0;
    loop.at(20, [&] { fired++; });  // recycles h1's slot, new generation
    EXPECT_FALSE(loop.cancel(h1)) << "old handle must not cancel new event";
    loop.run();
    EXPECT_EQ(fired, 1);
}

TEST(EventLoopCancel, RunUntilSkipsCancelledGhosts) {
    EventLoop loop;
    auto h = loop.at(10, [] {});
    loop.at(50, [] {});
    loop.cancel(h);
    loop.runUntil(30);  // the ghost at t=10 must not stall or execute
    EXPECT_EQ(loop.now(), 30);
    EXPECT_EQ(loop.executedEvents(), 0u);
    EXPECT_EQ(loop.pendingEvents(), 1u);
}

TEST(EventLoopCancel, CancelAfterRunUntilBoundaryIsExact) {
    // runUntil(t) runs events at exactly t; a handle for such an event is
    // stale afterwards, while an event one tick later must still be
    // cancellable. Locks the boundary the parallel engine's windowed
    // stepping leans on (<= for runUntil, < for runBefore).
    EventLoop loop;
    int atBoundary = 0, afterBoundary = 0;
    auto hAt = loop.at(100, [&] { atBoundary++; });
    auto hAfter = loop.at(101, [&] { afterBoundary++; });
    loop.runUntil(100);
    EXPECT_EQ(atBoundary, 1);
    EXPECT_FALSE(loop.pending(hAt));
    EXPECT_FALSE(loop.cancel(hAt)) << "boundary event already ran";
    EXPECT_TRUE(loop.pending(hAfter));
    EXPECT_TRUE(loop.cancel(hAfter));
    loop.run();
    EXPECT_EQ(afterBoundary, 0);
}

TEST(EventLoopCancel, GhostCompactionBoundsHeapUnderChurn) {
    // Pathological cancel churn: arm and cancel far more events than ever
    // run. Lazy ghost discarding plus compaction must keep the heap and
    // slab bounded by the live population, not the churn volume.
    EventLoop loop;
    int fired = 0;
    loop.at(1'000'000, [&] { fired++; });  // one live survivor
    for (int round = 0; round < 1000; round++) {
        EventLoop::EventHandle hs[64];
        for (int i = 0; i < 64; i++) {
            hs[i] = loop.at(500'000 + round * 64 + i, [&] { fired++; });
        }
        for (int i = 0; i < 64; i++) EXPECT_TRUE(loop.cancel(hs[i]));
    }
    EXPECT_EQ(loop.pendingEvents(), 1u);
    // 6464 events were heap-pushed; compaction must have kept the heap to
    // a small multiple of the single live event, and the slab recycles
    // freed slots instead of growing per arm.
    EXPECT_LE(loop.slabSlots(), 128u);
    loop.run();
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(loop.executedEvents(), 1u);
}

TEST(EventLoopWindow, RunBeforeExcludesTheBoundaryInstant) {
    // runBefore(t) is the parallel engine's window step: strictly-before
    // semantics, clock parked exactly at t, the t-instant FIFO intact for
    // the next window.
    EventLoop loop;
    std::vector<int> order;
    loop.at(10, [&] { order.push_back(1); });
    loop.at(20, [&] { order.push_back(2); });  // exactly the boundary
    loop.at(20, [&] { order.push_back(3); });
    loop.runBefore(20);
    EXPECT_EQ(loop.now(), 20);
    EXPECT_EQ(order, (std::vector<int>{1}));
    EXPECT_EQ(loop.pendingEvents(), 2u);
    loop.runBefore(21);  // next window picks up the whole instant, in order
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(loop.now(), 21);
}

TEST(EventLoopWindow, RunBeforePreservesSchedulingOrderAcrossWindows) {
    // Events injected for the boundary instant *during* the window (e.g. a
    // cross-shard arrival drained at the barrier) must interleave with
    // pre-existing boundary events purely by scheduling order when the
    // next window runs them.
    EventLoop loop;
    std::vector<int> order;
    loop.at(30, [&] { order.push_back(1); });
    loop.at(10, [&] {
        loop.at(30, [&] { order.push_back(2); });  // scheduled mid-window
    });
    loop.runBefore(30);
    EXPECT_TRUE(order.empty());
    loop.runBefore(40);
    EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(EventLoopWindow, RunBeforeNeverMovesClockBackwards) {
    EventLoop loop;
    loop.runUntil(500);
    loop.runBefore(100);  // window end in the past: no-op, clock stays
    EXPECT_EQ(loop.now(), 500);
}

TEST(EventLoopWindow, NextEventTimeSeesThroughGhosts) {
    // The window-skipping optimization trusts nextEventTime(); a cancelled
    // ghost at the heap top must not masquerade as the next event.
    EventLoop loop;
    EXPECT_EQ(loop.nextEventTime(), EventLoop::kNoEvent);
    auto h = loop.at(10, [] {});
    loop.at(50, [] {});
    EXPECT_EQ(loop.nextEventTime(), 10);
    loop.cancel(h);
    EXPECT_EQ(loop.nextEventTime(), 50);
    loop.run();
    EXPECT_EQ(loop.nextEventTime(), EventLoop::kNoEvent);
}

TEST(EventLoopSlab, SlotsAreRecycledAcrossEvents) {
    EventLoop loop;
    std::function<void(int)> chain = [&](int depth) {
        if (depth > 0) loop.after(1, [&, depth] { chain(depth - 1); });
    };
    chain(10000);
    loop.run();
    EXPECT_EQ(loop.executedEvents(), 10000u);
    // One event pending at a time: the slab never grows past a handful.
    EXPECT_LE(loop.slabSlots(), 4u);
}

TEST(EventLoopSlab, LargeCallablesAreBoxedCorrectly) {
    EventLoop loop;
    std::array<int64_t, 16> payload{};  // 128 bytes: exceeds inline storage
    for (size_t i = 0; i < payload.size(); i++) payload[i] = static_cast<int64_t>(i);
    int64_t sum = 0;
    loop.at(1, [payload, &sum] {
        for (int64_t v : payload) sum += v;
    });
    loop.run();
    EXPECT_EQ(sum, 120);
}

TEST(EventLoopSlab, DestructorReleasesPendingCallables) {
    auto marker = std::make_shared<int>(7);
    std::weak_ptr<int> weak = marker;
    {
        EventLoop loop;
        loop.at(10, [marker] { (void)*marker; });
        marker.reset();
        EXPECT_FALSE(weak.expired());
    }
    EXPECT_TRUE(weak.expired()) << "pending closure destroyed with the loop";
}

// ------------------------------------------------------ fixed-delay lanes

TEST(EventLoopLane, SameDelaySharesALaneAndNegativeDelayThrows) {
    EventLoop loop;
    const EventLoop::LaneId a = loop.fixedDelayLane(250);
    EXPECT_EQ(loop.fixedDelayLane(250), a);
    EXPECT_NE(loop.fixedDelayLane(1500), a);
    EXPECT_NO_THROW(loop.fixedDelayLane(0));
    EXPECT_THROW(loop.fixedDelayLane(-1), std::invalid_argument);
    EXPECT_EQ(loop.queuedEntries(), 0u);  // lanes start empty
}

TEST(EventLoopLane, SameInstantLaneAndHeapEventsRunInSchedulingOrder) {
    // Both interleavings at one instant: the heap event first, then the
    // lane event first. Scheduling order decides, not the queue.
    EventLoop loop;
    const EventLoop::LaneId lane = loop.fixedDelayLane(10);
    std::vector<int> order;
    loop.at(10, [&] { order.push_back(1); });
    loop.afterLane(lane, [&] { order.push_back(2); });
    loop.afterLane(lane, [&] { order.push_back(3); });
    loop.after(10, [&] { order.push_back(4); });
    loop.at(10, [&] {
        // At t=10 the lane and the heap both hold t=20 events.
        loop.afterLane(lane, [&] { order.push_back(6); });
        loop.at(20, [&] { order.push_back(7); });
        loop.afterLane(lane, [&] { order.push_back(8); });
    });
    loop.at(20, [&] { order.push_back(5); });  // scheduled before 6, 7, 8
    loop.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4, 5, 6, 7, 8}));
    EXPECT_EQ(loop.now(), 20);
}

TEST(EventLoopLane, LaneEventFiresItsDelayAfterScheduling) {
    EventLoop loop;
    const EventLoop::LaneId lane = loop.fixedDelayLane(7);
    std::vector<Time> fired;
    loop.runUntil(100);
    loop.afterLane(lane, [&] { fired.push_back(loop.now()); });
    loop.at(103, [&] {
        loop.afterLane(lane, [&] { fired.push_back(loop.now()); });
    });
    loop.run();
    EXPECT_EQ(fired, (std::vector<Time>{107, 110}));
}

TEST(EventLoopLane, CancelledLaneEventNeverRuns) {
    EventLoop loop;
    const EventLoop::LaneId lane = loop.fixedDelayLane(5);
    std::vector<int> order;
    loop.afterLane(lane, [&] { order.push_back(1); });
    auto h = loop.afterLane(lane, [&] { order.push_back(2); });
    loop.afterLane(lane, [&] { order.push_back(3); });
    EXPECT_EQ(loop.pendingEvents(), 3u);
    EXPECT_TRUE(loop.pending(h));
    EXPECT_TRUE(loop.cancel(h));
    EXPECT_FALSE(loop.pending(h));
    EXPECT_FALSE(loop.cancel(h));
    EXPECT_EQ(loop.pendingEvents(), 2u);
    EXPECT_EQ(loop.run(), 2u);
    EXPECT_EQ(order, (std::vector<int>{1, 3}));
    EXPECT_EQ(loop.queuedEntries(), 0u);
}

TEST(EventLoopLane, GhostCompactionStaysBoundedUnderLaneChurn) {
    // Arm and cancel far more lane events than ever run, across two lanes
    // and the heap: compaction must sweep the lanes too, keeping every
    // queue bounded by the live population, not the churn volume.
    EventLoop loop;
    const EventLoop::LaneId fast = loop.fixedDelayLane(100);
    const EventLoop::LaneId slow = loop.fixedDelayLane(900);
    int fired = 0;
    loop.at(1'000'000, [&] { fired++; });  // one live survivor
    size_t peak = 0;
    for (int round = 0; round < 1000; round++) {
        EventLoop::EventHandle hs[64];
        for (int i = 0; i < 64; i++) {
            hs[i] = i % 3 == 0   ? loop.afterLane(fast, [&] { fired++; })
                    : i % 3 == 1 ? loop.afterLane(slow, [&] { fired++; })
                                 : loop.after(500 + i, [&] { fired++; });
        }
        for (int i = 0; i < 64; i++) EXPECT_TRUE(loop.cancel(hs[i]));
        peak = std::max(peak, loop.queuedEntries());
    }
    EXPECT_EQ(loop.pendingEvents(), 1u);
    EXPECT_LE(peak, 256u);
    EXPECT_LE(loop.slabSlots(), 128u);
    loop.run();
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(loop.executedEvents(), 1u);
    EXPECT_EQ(loop.queuedEntries(), 0u);
}

TEST(EventLoopLane, WindowEdgesTreatLaneEventsLikeHeapEvents) {
    EventLoop loop;
    const EventLoop::LaneId lane = loop.fixedDelayLane(20);
    std::vector<int> order;
    loop.at(20, [&] { order.push_back(1); });
    auto ghost = loop.at(5, [&] { order.push_back(-1); });
    loop.afterLane(lane, [&] { order.push_back(2); });  // t = 20
    EXPECT_TRUE(loop.cancel(ghost));
    EXPECT_EQ(loop.nextEventTime(), 20);

    // runBefore excludes the boundary instant for both queues.
    loop.runBefore(20);
    EXPECT_TRUE(order.empty());
    EXPECT_EQ(loop.now(), 20);
    EXPECT_EQ(loop.nextEventTime(), 20);

    // A lane ghost at the front must not masquerade as the next event.
    auto laneGhost = loop.afterLane(lane, [&] { order.push_back(-2); });  // 40
    loop.at(45, [&] { order.push_back(4); });
    loop.runUntil(20);  // runUntil includes the boundary instant
    EXPECT_EQ(order, (std::vector<int>{1, 2}));
    EXPECT_EQ(loop.nextEventTime(), 40);
    EXPECT_TRUE(loop.cancel(laneGhost));
    EXPECT_EQ(loop.nextEventTime(), 45);
    loop.afterLane(lane, [&] { order.push_back(3); });  // t = 40 again
    EXPECT_EQ(loop.nextEventTime(), 40);
    loop.runBefore(40);
    EXPECT_EQ(order, (std::vector<int>{1, 2}));
    loop.runUntil(44);
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(loop.now(), 44);
    loop.runBefore(46);
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
    EXPECT_EQ(loop.nextEventTime(), EventLoop::kNoEvent);
}

// Seeded property test: random mixes of at/after/afterLane over four lanes,
// cancels (of pending, run and already-cancelled handles), churn bursts
// that force compaction, and runUntil/runBefore/runOne steps, with
// callbacks that schedule and cancel more events. A reference model keeps
// every pending event keyed by (time, scheduling order); each event that
// fires must be the model's minimum at that moment, and every query must
// agree with the model.
class LaneMixModel {
public:
    explicit LaneMixModel(uint64_t seed) : rng_(seed) {
        for (Duration d : {Duration{0}, Duration{7}, Duration{25}, Duration{250}}) {
            lanes_.push_back(loop_.fixedDelayLane(d));
            delays_.push_back(d);
        }
    }

    void step() {
        const int op = pick(100);
        if (op < 50) {
            schedule();
        } else if (op < 62) {
            cancelOne();
        } else if (op < 64) {
            churn();
        } else if (op < 78) {
            const Time t = loop_.now() + pick(300);
            const Time before = loop_.now();
            loop_.runUntil(t);
            EXPECT_TRUE(pending_.empty() || std::get<0>(*pending_.begin()) > t);
            EXPECT_EQ(loop_.now(), std::max(before, t));
        } else if (op < 92) {
            const Time t = loop_.now() + pick(300) - 20;  // sometimes past
            const Time before = loop_.now();
            loop_.runBefore(t);
            EXPECT_TRUE(pending_.empty() || std::get<0>(*pending_.begin()) >= t);
            EXPECT_EQ(loop_.now(), std::max(before, t));
        } else {
            const bool any = !pending_.empty();  // runOne() changes pending_
            EXPECT_EQ(loop_.runOne(), any);
        }
        check();
    }

    void finish() {
        loop_.run();
        EXPECT_TRUE(pending_.empty());
        check();
    }

    size_t fired() const { return fired_; }

private:
    using Key = std::tuple<Time, uint64_t, int>;  // (time, seq, id)

    int pick(int n) { return static_cast<int>(rng_() % static_cast<uint64_t>(n)); }

    void check() {
        EXPECT_EQ(loop_.pendingEvents(), pending_.size());
        EXPECT_EQ(loop_.nextEventTime(), pending_.empty()
                                             ? EventLoop::kNoEvent
                                             : std::get<0>(*pending_.begin()));
    }

    void schedule() {
        const int id = static_cast<int>(keys_.size());
        auto fn = [this, id] { fire(id); };
        Time t;
        EventLoop::EventHandle h;
        const int how = pick(6);
        if (how == 0) {
            const Time want = loop_.now() + pick(400) - 50;  // may clamp
            t = std::max(want, loop_.now());
            h = loop_.at(want, fn);
        } else if (how == 1) {
            const Duration d = pick(400);
            t = loop_.now() + d;
            h = loop_.after(d, fn);
        } else {
            const int l = pick(static_cast<int>(lanes_.size()));
            t = loop_.now() + delays_[l];
            h = loop_.afterLane(lanes_[l], fn);
        }
        const Key k{t, seq_++, id};
        keys_.push_back(k);
        handles_.push_back(h);
        pending_.insert(k);
    }

    void cancelOne() {
        if (keys_.empty()) return;
        const int id = pick(static_cast<int>(keys_.size()));
        const bool wasPending = pending_.erase(keys_[id]) == 1;
        EXPECT_EQ(loop_.cancel(handles_[id]), wasPending) << "id " << id;
    }

    // Enough cancelled lane events to outnumber the live ones.
    void churn() {
        const size_t first = keys_.size();
        const int n = 70 + pick(60);
        for (int i = 0; i < n; i++) schedule();
        for (size_t id = first; id < keys_.size(); id++) {
            if (pick(8) == 0) continue;  // a few survive the burst
            const bool wasPending = pending_.erase(keys_[id]) == 1;
            EXPECT_EQ(loop_.cancel(handles_[id]), wasPending);
        }
    }

    void fire(int id) {
        ASSERT_FALSE(pending_.empty()) << "id " << id << " fired";
        const Key first = *pending_.begin();
        EXPECT_EQ(std::get<2>(first), id) << "at t=" << loop_.now();
        EXPECT_EQ(std::get<0>(first), loop_.now());
        EXPECT_EQ(pending_.erase(keys_[id]), 1u) << "id " << id;
        fired_++;
        // Callbacks schedule and cancel too, as transports do.
        const int more = pick(10);
        if (more < 3) schedule();
        if (more == 0) schedule();
        if (more == 9) cancelOne();
    }

    EventLoop loop_;
    std::mt19937_64 rng_;
    std::vector<EventLoop::LaneId> lanes_;
    std::vector<Duration> delays_;
    std::vector<Key> keys_;  // by id
    std::vector<EventLoop::EventHandle> handles_;
    std::set<Key> pending_;
    uint64_t seq_ = 0;
    size_t fired_ = 0;
};

TEST(EventLoopLane, RandomMixFiresInReferenceOrder) {
    size_t fired = 0;
    for (uint64_t seed = 1; seed <= 24; seed++) {
        LaneMixModel model(seed);
        for (int i = 0; i < 1500 && !::testing::Test::HasFailure(); i++) {
            model.step();
        }
        model.finish();
        ASSERT_FALSE(::testing::Test::HasFailure()) << "seed " << seed;
        fired += model.fired();
    }
    EXPECT_GT(fired, 10'000u);  // the mix really runs events
}

TEST(Timer, FiresAfterDelay) {
    EventLoop loop;
    int fired = 0;
    Timer t(loop, [&] { fired++; });
    t.schedule(microseconds(5));
    EXPECT_TRUE(t.armed());
    loop.run();
    EXPECT_EQ(fired, 1);
    EXPECT_FALSE(t.armed());
    EXPECT_EQ(loop.now(), microseconds(5));
}

TEST(Timer, CancelPreventsFiring) {
    EventLoop loop;
    int fired = 0;
    Timer t(loop, [&] { fired++; });
    t.schedule(100);
    t.cancel();
    loop.run();
    EXPECT_EQ(fired, 0);
}

TEST(Timer, RescheduleSupersedesPriorArming) {
    EventLoop loop;
    std::vector<Time> fireTimes;
    Timer t(loop, [&] { fireTimes.push_back(loop.now()); });
    t.schedule(100);
    t.schedule(200);  // supersedes
    loop.run();
    ASSERT_EQ(fireTimes.size(), 1u);
    EXPECT_EQ(fireTimes[0], 200);
}

TEST(Timer, CanRearmFromCallback) {
    EventLoop loop;
    int fired = 0;
    Timer* tp = nullptr;
    Timer t(loop, [&] {
        fired++;
        if (fired < 3) tp->schedule(10);
    });
    tp = &t;
    t.schedule(10);
    loop.run();
    EXPECT_EQ(fired, 3);
    EXPECT_EQ(loop.now(), 30);
}

TEST(Timer, DestructionCancelsSafely) {
    EventLoop loop;
    int fired = 0;
    {
        Timer t(loop, [&] { fired++; });
        t.schedule(50);
    }
    loop.run();  // stale heap entry must not crash or fire
    EXPECT_EQ(fired, 0);
}

}  // namespace
}  // namespace homa
