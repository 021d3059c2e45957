// Linear-probing index from message ids to positions in a caller's array.
//
// HomaReceiver's completed-id memory and HomaSender's linger table both
// keep their entries in a flat array and find them by MsgId. The index
// holds only positions: a slot stores position + 1, and 0 marks an empty
// slot (ids use all 64 bits, so no id can serve as the marker). Every call
// therefore takes `idAt`, the caller's "id stored at position p". The slot
// count is a power of two that the caller keeps at least twice the number
// of linked positions, so probe runs stay short, and unlink() shifts later
// entries back into the hole, so erasing leaves no tombstones behind.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/packet.h"

namespace homa {

/// `Pos` is the slot type: wide enough for the caller's largest position
/// + 1. Empty until the first grow(), so an idle owner holds no heap.
template <typename Pos>
class IdIndex {
public:
    static constexpr size_t kNotFound = SIZE_MAX;

    /// True when `linked` positions would fill more than half the slots:
    /// the caller then calls grow() and links every position again.
    bool needsGrowth(size_t linked) const { return slots_.size() < 2 * linked; }

    /// Double the slot count (16 at first) and empty every slot.
    void grow() { slots_.assign(std::max<size_t>(16, 2 * slots_.size()), 0); }

    /// The position holding `id`, or kNotFound.
    template <typename IdAt>
    size_t find(MsgId id, IdAt idAt) const {
        if (slots_.empty()) return kNotFound;
        const size_t mask = slots_.size() - 1;
        for (size_t s = home(id);; s = (s + 1) & mask) {
            if (slots_[s] == 0) return kNotFound;
            const size_t pos = size_t{slots_[s]} - 1;
            if (idAt(pos) == id) return pos;
        }
    }

    /// Index `pos` under the id it holds now.
    template <typename IdAt>
    void link(size_t pos, IdAt idAt) {
        const size_t mask = slots_.size() - 1;
        size_t s = home(idAt(pos));
        while (slots_[s] != 0) s = (s + 1) & mask;
        slots_[s] = static_cast<Pos>(pos + 1);
    }

    /// Drop linked `pos`; its array entry must still hold its id.
    template <typename IdAt>
    void unlink(size_t pos, IdAt idAt) {
        const size_t mask = slots_.size() - 1;
        size_t hole = home(idAt(pos));
        while (size_t{slots_[hole]} != pos + 1) hole = (hole + 1) & mask;
        // Backward-shift deletion: pull each later entry of the probe run
        // into the hole unless that would move it before its home slot.
        for (size_t s = (hole + 1) & mask; slots_[s] != 0; s = (s + 1) & mask) {
            const size_t from = home(idAt(size_t{slots_[s]} - 1));
            if (((s - from) & mask) >= ((s - hole) & mask)) {
                slots_[hole] = slots_[s];
                hole = s;
            }
        }
        slots_[hole] = 0;
    }

private:
    size_t home(MsgId id) const {
        // Per-host id streams keep the source above bit 40 and a counter
        // below; the multiply spreads both upwards and the fold brings the
        // high half back down to the bits the mask keeps.
        uint64_t h = id * 0x9e3779b97f4a7c15ull;
        h ^= h >> 32;
        return static_cast<size_t>(h) & (slots_.size() - 1);
    }

    std::vector<Pos> slots_;  // position + 1; 0 = empty
};

}  // namespace homa
