// Discrete-event execution core.
//
// A calendar of (time, sequence) ordered events in two kinds of queue: one
// binary heap for events at arbitrary times, plus one FIFO "lane" per
// distinct fixed delay. Both hold small POD entries; the callables live in
// a slab of fixed-size slots that are recycled through a freelist, so
// steady-state scheduling performs no heap allocation (callables larger
// than a slot fall back to one boxed allocation each; everything in the
// hot paths fits inline).
//
// Lanes: most events in a packet simulation fire a constant delay after
// they are scheduled — a switch's internal delay, a host's software delay,
// a full-size or header-only packet's serialization time at one link
// speed. afterLane() appends such an event to the lane for its delay in
// O(1). Because now() never decreases and sequence numbers only grow, each
// lane is already sorted by (time, seq), so the earliest event overall is
// the minimum of the heap top and the lane heads; popping that minimum
// runs events in exactly the order a single heap would.
//
// Ordering contract: events fire in (time, scheduling order), whichever
// queue holds them. Scheduling an event in the past (t < now()) clamps it
// to now() *at scheduling time*, so it joins the back of the current
// instant's FIFO — clamping never reorders events that execute at the same
// instant relative to their scheduling order, and never preempts an event
// already pending at now().
//
// Cancellation is by handle: at()/after()/afterLane() return an
// EventHandle that cancel() invalidates in O(1). The queued entry becomes
// a ghost that is discarded lazily when it is selected as the earliest
// event; its slot is recycled immediately (a generation counter makes
// stale handles and ghost entries detectable). When ghosts outnumber live
// events the heap and every lane are compacted in one pass, so
// pathological cancel/re-arm churn (timers) stays O(log n) amortized with
// bounded memory.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <functional>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/time.h"

namespace homa {

// Cache-line aligned: the parallel engine allocates its shard loops back to
// back, and each is written on every event by its own thread; a shared line
// would make one shard's writes invalidate its neighbour's reads.
class alignas(64) EventLoop {
public:
    using Callback = std::function<void()>;

    /// Identifies a scheduled event for cancellation. Default-constructed
    /// handles are empty; handles become stale (harmless) once the event
    /// runs or is cancelled.
    struct EventHandle {
        uint32_t slot = kNone;
        uint32_t gen = 0;
        explicit operator bool() const { return slot != kNone; }
        static constexpr uint32_t kNone = UINT32_MAX;
    };

    EventLoop() = default;
    EventLoop(const EventLoop&) = delete;
    EventLoop& operator=(const EventLoop&) = delete;
    ~EventLoop();

    /// Current simulated time.
    Time now() const { return now_; }

    /// Names one fixed-delay lane of this loop (see the header comment).
    using LaneId = uint32_t;

    /// Schedule `fn` to run at absolute time `t` (clamped to now(); see the
    /// ordering contract above).
    template <typename F>
    EventHandle at(Time t, F&& fn) {
        if (t < now_) t = now_;
        const uint32_t idx = store(std::forward<F>(fn));
        const uint32_t gen = slots_[idx].gen;
        heapPush(Entry{t, nextSeq_++, idx, gen});
        return EventHandle{idx, gen};
    }

    /// Schedule `fn` to run `d` after now().
    template <typename F>
    EventHandle after(Duration d, F&& fn) {
        return at(now_ + d, std::forward<F>(fn));
    }

    /// The lane for events that fire `d` after they are scheduled, created
    /// on first use. Throws std::invalid_argument for a negative `d`.
    LaneId fixedDelayLane(Duration d);

    /// Schedule `fn` to run the lane's delay after now(): the same event,
    /// order and handle as after(delay, fn), queued in O(1).
    template <typename F>
    EventHandle afterLane(LaneId lane, F&& fn) {
        const uint32_t idx = store(std::forward<F>(fn));
        const uint32_t gen = slots_[idx].gen;
        Lane& l = lanes_[lane];
        lanePush(l, Entry{now_ + l.delay, nextSeq_++, idx, gen});
        return EventHandle{idx, gen};
    }

    /// Cancel a pending event. Returns true if it was still pending (it
    /// will not run); false for empty, stale, or already-run handles.
    bool cancel(EventHandle h);

    /// True while the referenced event is still pending.
    bool pending(EventHandle h) const {
        return h.slot < slots_.size() && slots_[h.slot].gen == h.gen &&
               slots_[h.slot].ops != nullptr;
    }

    /// Run the earliest pending event; returns false if none are pending.
    bool runOne();

    /// Run events until the queue is empty or `limit` events have run.
    /// Returns the number of events executed.
    uint64_t run(uint64_t limit = UINT64_MAX);

    /// Run all events with time <= t, then advance the clock to t.
    void runUntil(Time t);

    /// Run all events with time strictly < t, then advance the clock to t.
    /// The parallel engine executes one lookahead window [now, t) per call;
    /// events at exactly t belong to the next window, so a window boundary
    /// never splits the FIFO of a single instant across windows.
    void runBefore(Time t);

    /// Sentinel returned by nextEventTime() when no events are pending.
    static constexpr Time kNoEvent = INT64_MAX;

    /// Earliest pending event time, or kNoEvent. Non-const: discards
    /// cancelled ghosts at the queue fronts so the answer reflects live
    /// events only.
    Time nextEventTime();

    /// Pending (live, uncancelled) events.
    size_t pendingEvents() const { return live_; }
    uint64_t executedEvents() const { return executed_; }

    /// Capacity counters, exposed for tests and the substrate bench.
    size_t slabSlots() const { return slots_.size(); }
    /// Entries held by the heap and every lane, cancelled ghosts included.
    size_t queuedEntries() const;

private:
    // Per-callable-type operation table. `relocate` move-constructs into
    // dst and destroys src, letting runOne() evacuate the callable onto the
    // stack before invoking it (the callable may grow the slab).
    struct Ops {
        void (*relocate)(void* dst, void* src) noexcept;
        void (*invoke)(void* p);           // call, then destroy
        void (*destroy)(void* p) noexcept; // destroy without calling
    };

    static constexpr size_t kInlineBytes = 48;

    template <typename D>
    static constexpr bool fitsInline() {
        return sizeof(D) <= kInlineBytes &&
               alignof(D) <= alignof(std::max_align_t) &&
               std::is_nothrow_move_constructible_v<D>;
    }

    template <typename D>
    struct InlineOps {
        static void relocate(void* dst, void* src) noexcept {
            D* s = static_cast<D*>(src);
            ::new (dst) D(std::move(*s));
            s->~D();
        }
        static void invoke(void* p) {
            D* f = static_cast<D*>(p);
            (*f)();
            f->~D();
        }
        static void destroy(void* p) noexcept { static_cast<D*>(p)->~D(); }
        static constexpr Ops ops{&relocate, &invoke, &destroy};
    };

    template <typename D>
    struct BoxedOps {  // storage holds a D*
        static void relocate(void* dst, void* src) noexcept {
            std::memcpy(dst, src, sizeof(D*));
        }
        static void invoke(void* p) {
            D* f;
            std::memcpy(&f, p, sizeof(D*));
            (*f)();
            delete f;
        }
        static void destroy(void* p) noexcept {
            D* f;
            std::memcpy(&f, p, sizeof(D*));
            delete f;
        }
        static constexpr Ops ops{&relocate, &invoke, &destroy};
    };

    struct Slot {
        alignas(alignof(std::max_align_t)) unsigned char storage[kInlineBytes];
        const Ops* ops = nullptr;  // nullptr = free
        uint32_t gen = 0;
        uint32_t nextFree = EventHandle::kNone;
    };

    struct Entry {
        Time time;
        uint64_t seq;
        uint32_t slot;
        uint32_t gen;
        bool operator>(const Entry& o) const {
            return time != o.time ? time > o.time : seq > o.seq;
        }
    };

    // A FIFO of entries that each fire `delay` after they were scheduled,
    // so appends arrive in (time, seq) order. The ring's capacity is zero
    // until first use, then a power of two. The front entry's key is
    // cached beside it so the selection scan touches one line per lane.
    struct Lane {
        Time headTime = kNoEvent;
        uint64_t headSeq = UINT64_MAX;  // with kNoEvent: sorts after all
        std::vector<Entry> ring;
        uint32_t head = 0;
        uint32_t size = 0;
        Duration delay = 0;
    };

    // Where the earliest event waits: a lane index or one of these.
    static constexpr uint32_t kHeap = UINT32_MAX - 1;
    static constexpr uint32_t kEmpty = UINT32_MAX;

    /// Place `fn` in a fresh slab slot; counts it live.
    template <typename F>
    uint32_t store(F&& fn) {
        const uint32_t idx = allocSlot();
        Slot& s = slots_[idx];
        using D = std::decay_t<F>;
        if constexpr (fitsInline<D>()) {
            ::new (static_cast<void*>(s.storage)) D(std::forward<F>(fn));
            s.ops = &InlineOps<D>::ops;
        } else {
            ::new (static_cast<void*>(s.storage)) D*(new D(std::forward<F>(fn)));
            s.ops = &BoxedOps<D>::ops;
        }
        live_++;
        return idx;
    }

    /// Re-read the front entry's key (the sorts-last sentinel if empty).
    static void cacheHead(Lane& l) {
        l.headTime = l.size > 0 ? l.ring[l.head].time : kNoEvent;
        l.headSeq = l.size > 0 ? l.ring[l.head].seq : UINT64_MAX;
    }

    void lanePush(Lane& l, const Entry& e) {
        if (l.size == l.ring.size()) growLane(l);
        l.ring[(l.head + l.size) & (l.ring.size() - 1)] = e;
        if (l.size++ == 0) cacheHead(l);
    }

    uint32_t allocSlot();
    void freeSlot(uint32_t idx);
    static void growLane(Lane& l);
    /// The queue holding the earliest live event (kEmpty if none). Ghosts
    /// are checked only at the selected front: one found there is
    /// discarded and the selection repeated.
    uint32_t selectNext();
    const Entry& front(uint32_t src) const {
        return src == kHeap ? heap_.front() : lanes_[src].ring[lanes_[src].head];
    }
    Entry popFront(uint32_t src);
    /// Advance the clock to `e` and run it.
    void dispatch(const Entry& e);
    /// Drop every ghost from the heap and the lanes.
    void compact();
    void heapPush(const Entry& e);
    Entry heapPop();

    // Min-heap over (time, seq), maintained with the std heap algorithms so
    // it can be compacted in place.
    std::vector<Entry> heap_;
    std::vector<Lane> lanes_;
    std::vector<Slot> slots_;
    uint32_t freeHead_ = EventHandle::kNone;
    size_t live_ = 0;
    size_t ghosts_ = 0;
    Time now_ = 0;
    uint64_t nextSeq_ = 0;
    uint64_t executed_ = 0;
};

/// A cancellable, re-armable one-shot timer built on EventLoop handles.
/// Each (re)arming costs one slab slot; the callback closure captures only
/// `this`, so arming never allocates.
class Timer {
public:
    Timer(EventLoop& loop, std::function<void()> fn)
        : loop_(loop), fn_(std::move(fn)) {}

    ~Timer() { cancel(); }
    Timer(const Timer&) = delete;
    Timer& operator=(const Timer&) = delete;

    /// (Re)arm the timer to fire `d` from now; cancels any prior arming.
    void schedule(Duration d) {
        loop_.cancel(handle_);
        deadline_ = loop_.now() + d;
        handle_ = loop_.at(deadline_, [this] {
            handle_ = EventLoop::EventHandle{};
            fn_();
        });
    }

    void cancel() {
        loop_.cancel(handle_);
        handle_ = EventLoop::EventHandle{};
    }

    bool armed() const { return static_cast<bool>(handle_); }
    Time deadline() const { return deadline_; }

private:
    EventLoop& loop_;
    std::function<void()> fn_;
    EventLoop::EventHandle handle_;
    Time deadline_ = 0;
};

}  // namespace homa
