#include "sim/event_loop.h"

#include <algorithm>
#include <functional>
#include <stdexcept>
#include <string>

namespace homa {

// Note: std::push_heap et al. with std::greater<> (via Entry's
// operator>) maintain the min-(time, seq) heap the calendar needs, with
// heap_.front() the earliest event.

EventLoop::~EventLoop() {
    for (Slot& s : slots_) {
        if (s.ops != nullptr) s.ops->destroy(s.storage);
    }
}

uint32_t EventLoop::allocSlot() {
    if (freeHead_ != EventHandle::kNone) {
        const uint32_t idx = freeHead_;
        freeHead_ = slots_[idx].nextFree;
        return idx;
    }
    slots_.emplace_back();
    return static_cast<uint32_t>(slots_.size() - 1);
}

void EventLoop::freeSlot(uint32_t idx) {
    Slot& s = slots_[idx];
    s.ops = nullptr;
    s.gen++;  // invalidates outstanding handles and ghost entries
    s.nextFree = freeHead_;
    freeHead_ = idx;
}

EventLoop::LaneId EventLoop::fixedDelayLane(Duration d) {
    if (d < 0) {
        throw std::invalid_argument(
            "EventLoop: a fixed-delay lane needs a delay >= 0, got " +
            std::to_string(d));
    }
    for (LaneId i = 0; i < lanes_.size(); i++) {
        if (lanes_[i].delay == d) return i;
    }
    lanes_.emplace_back().delay = d;
    return static_cast<LaneId>(lanes_.size() - 1);
}

void EventLoop::growLane(Lane& l) {
    std::vector<Entry> bigger(l.ring.empty() ? 16 : 2 * l.ring.size());
    for (uint32_t i = 0; i < l.size; i++) {
        bigger[i] = l.ring[(l.head + i) & (l.ring.size() - 1)];
    }
    l.ring.swap(bigger);
    l.head = 0;
}

size_t EventLoop::queuedEntries() const {
    size_t n = heap_.size();
    for (const Lane& l : lanes_) n += l.size;
    return n;
}

void EventLoop::heapPush(const Entry& e) {
    heap_.push_back(e);
    std::push_heap(heap_.begin(), heap_.end(), std::greater<>());
}

EventLoop::Entry EventLoop::heapPop() {
    std::pop_heap(heap_.begin(), heap_.end(), std::greater<>());
    const Entry e = heap_.back();
    heap_.pop_back();
    return e;
}

void EventLoop::compact() {
    auto ghost = [this](const Entry& e) { return slots_[e.slot].gen != e.gen; };
    std::erase_if(heap_, ghost);
    std::make_heap(heap_.begin(), heap_.end(), std::greater<>());
    for (Lane& l : lanes_) {
        // In place and in order: the write index never passes the read one.
        const uint32_t mask = static_cast<uint32_t>(l.ring.size()) - 1;
        uint32_t kept = 0;
        for (uint32_t i = 0; i < l.size; i++) {
            const Entry e = l.ring[(l.head + i) & mask];
            if (!ghost(e)) l.ring[(l.head + kept++) & mask] = e;
        }
        l.size = kept;
        cacheHead(l);
    }
    ghosts_ = 0;
}

bool EventLoop::cancel(EventHandle h) {
    if (!pending(h)) return false;
    Slot& s = slots_[h.slot];
    s.ops->destroy(s.storage);
    freeSlot(h.slot);
    live_--;
    ghosts_++;
    // Keep cancel/re-arm churn (timers) from growing the queues without
    // bound: once ghosts dominate, one O(n) sweep reclaims them all.
    if (ghosts_ > 64 && ghosts_ > live_) compact();
    return true;
}

uint32_t EventLoop::selectNext() {
    for (;;) {
        uint32_t best = kEmpty;
        Time t = kNoEvent;
        uint64_t seq = UINT64_MAX;
        if (!heap_.empty()) {
            best = kHeap;
            t = heap_.front().time;
            seq = heap_.front().seq;
        }
        for (uint32_t i = 0; i < lanes_.size(); i++) {
            const Lane& l = lanes_[i];
            if (l.headTime < t || (l.headTime == t && l.headSeq < seq)) {
                best = i;
                t = l.headTime;
                seq = l.headSeq;
            }
        }
        if (best == kEmpty) return kEmpty;
        const Entry& e = front(best);
        if (slots_[e.slot].gen == e.gen) return best;
        popFront(best);
        if (ghosts_ > 0) ghosts_--;
    }
}

EventLoop::Entry EventLoop::popFront(uint32_t src) {
    if (src == kHeap) return heapPop();
    Lane& l = lanes_[src];
    const Entry e = l.ring[l.head];
    l.head = (l.head + 1) & (static_cast<uint32_t>(l.ring.size()) - 1);
    l.size--;
    cacheHead(l);
    return e;
}

void EventLoop::dispatch(const Entry& e) {
    now_ = e.time;
    executed_++;
    live_--;
    // Evacuate the callable onto the stack and recycle its slot *before*
    // invoking: the callable may schedule events, growing the slab.
    alignas(alignof(std::max_align_t)) unsigned char buf[kInlineBytes];
    const Ops* ops = slots_[e.slot].ops;
    ops->relocate(buf, slots_[e.slot].storage);
    freeSlot(e.slot);
    ops->invoke(buf);
}

bool EventLoop::runOne() {
    const uint32_t src = selectNext();
    if (src == kEmpty) return false;
    dispatch(popFront(src));
    return true;
}

uint64_t EventLoop::run(uint64_t limit) {
    uint64_t n = 0;
    while (n < limit && runOne()) n++;
    return n;
}

void EventLoop::runUntil(Time t) {
    for (uint32_t src; (src = selectNext()) != kEmpty && front(src).time <= t;) {
        dispatch(popFront(src));
    }
    if (now_ < t) now_ = t;
}

void EventLoop::runBefore(Time t) {
    for (uint32_t src; (src = selectNext()) != kEmpty && front(src).time < t;) {
        dispatch(popFront(src));
    }
    if (now_ < t) now_ = t;
}

Time EventLoop::nextEventTime() {
    const uint32_t src = selectNext();
    return src == kEmpty ? kNoEvent : front(src).time;
}

}  // namespace homa
