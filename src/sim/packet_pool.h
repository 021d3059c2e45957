// Packet slab + freelist, and the FIFOs that queue packets through it.
//
// The simulator used to move Packets by value through per-qdisc
// std::deques, paying deque chunk allocation and ~140-byte element copies
// per hop. Queues now hold 4-byte handles into a PacketPool whose slots are
// recycled through a freelist: steady-state enqueue/dequeue allocates
// nothing, and the hot data stays in two tight arrays.
//
// Each slot has one link. A free slot's link chains the freelist; a queued
// slot's link chains its FIFO. A FIFO is therefore just its (head, tail)
// handles: eight priority levels cost 64 bytes and no allocation of their
// own, however many packets they ever held.
#pragma once

#include <cassert>
#include <cstdint>
#include <utility>
#include <vector>

#include "sim/packet.h"

namespace homa {

class PacketPool {
public:
    using Handle = uint32_t;
    static constexpr Handle kNone = UINT32_MAX;

    /// A FIFO of this pool's slots, chained through their links.
    struct Fifo {
        Handle head = kNone;
        Handle tail = kNone;
        bool empty() const { return head == kNone; }
    };

    /// Copy `p` into a recycled (or new) slot.
    Handle acquire(const Packet& p) {
        if (freeHead_ != kNone) {
            const Handle h = freeHead_;
            freeHead_ = link_[h];
            slots_[h] = p;
            return h;
        }
        slots_.push_back(p);
        link_.push_back(kNone);
        return static_cast<Handle>(slots_.size() - 1);
    }

    /// Move the packet out and recycle its slot.
    Packet release(Handle h) {
        Packet p = std::move(slots_[h]);
        link_[h] = freeHead_;
        freeHead_ = h;
        return p;
    }

    /// Copy `p` into a slot at the back of `q`.
    void push(Fifo& q, const Packet& p) {
        const Handle h = acquire(p);
        link_[h] = kNone;
        if (q.empty()) {
            q.head = h;
        } else {
            link_[q.tail] = h;
        }
        q.tail = h;
    }

    /// Move the front packet of `q` (which must not be empty) out and
    /// recycle its slot.
    Packet pop(Fifo& q) {
        assert(!q.empty());
        const Handle h = q.head;
        q.head = link_[h];
        if (q.head == kNone) q.tail = kNone;
        return release(h);
    }

    Packet& at(Handle h) { return slots_[h]; }
    const Packet& at(Handle h) const { return slots_[h]; }

    size_t capacity() const { return slots_.size(); }

private:
    std::vector<Packet> slots_;
    std::vector<Handle> link_;  // freelist or FIFO successor, kNone at the end
    Handle freeHead_ = kNone;
};

}  // namespace homa
