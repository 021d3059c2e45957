#include "sim/qdisc.h"

#include <algorithm>

namespace homa {

namespace {
// Bytes a packet contributes to queue occupancy: payload + header (framing
// overhead exists only on the wire, not in buffers).
int64_t bufferBytes(const Packet& p) {
    int64_t payload =
        (p.type == PacketType::Data && !p.hasFlag(kFlagTrimmed)) ? p.length : 0;
    return payload + kHeaderBytes;
}
}  // namespace

bool StrictPriorityQdisc::enqueue(Packet& p) {
    if (opts_.ecnThresholdBytes > 0 && bytes_ >= opts_.ecnThresholdBytes) {
        p.setFlag(kFlagEcn);
        stats_.ecnMarked++;
    }
    if (opts_.capBytes > 0 && bytes_ + bufferBytes(p) > opts_.capBytes) {
        if (opts_.trimOnOverflow) {
            // NDP-style switch: overflowing data packets lose their payload
            // but the header must get through (switches reserve a separate
            // header queue), as must control packets — otherwise receivers
            // could never learn about the loss.
            if (p.type == PacketType::Data && !p.hasFlag(kFlagTrimmed)) {
                p.setFlag(kFlagTrimmed);
                p.priority = kHighestPriority;
                stats_.trimmed++;
            }
            // Headers and control bypass the cap.
        } else {
            stats_.dropped++;
            return false;
        }
    }
    pool_.push(queues_[p.priority], p);
    bytes_ += bufferBytes(p);
    packets_++;
    stats_.enqueued++;
    return true;
}

std::optional<Packet> StrictPriorityQdisc::dequeue() {
    for (int prio = kHighestPriority; prio >= 0; prio--) {
        auto& q = queues_[prio];
        if (q.empty()) continue;
        Packet p = pool_.pop(q);
        bytes_ -= bufferBytes(p);
        packets_--;
        return p;
    }
    return std::nullopt;
}

int StrictPriorityQdisc::headPriority() const {
    for (int prio = kHighestPriority; prio >= 0; prio--) {
        if (!queues_[prio].empty()) return prio;
    }
    return -1;
}

bool PFabricQdisc::enqueue(Packet& p) {
    if (p.isControl()) {
        slab_.push(control_, p);
        controlCount_++;
        bytes_ += bufferBytes(p);
        stats_.enqueued++;
        return true;
    }
    if (bytes_ + bufferBytes(p) > opts_.capBytes) {
        // Drop the lowest-priority packet in the pool (largest remaining);
        // if the incoming packet is the worst, drop it instead.
        auto worstOf = [this]() {
            return std::max_element(data_.begin(), data_.end(),
                                    [this](PacketPool::Handle a,
                                           PacketPool::Handle b) {
                                        return slab_.at(a).remaining <
                                               slab_.at(b).remaining;
                                    });
        };
        auto worst = worstOf();
        if (worst == data_.end() || slab_.at(*worst).remaining <= p.remaining) {
            stats_.dropped++;
            return false;
        }
        while (bytes_ + bufferBytes(p) > opts_.capBytes && !data_.empty()) {
            worst = worstOf();
            if (slab_.at(*worst).remaining <= p.remaining) break;
            bytes_ -= bufferBytes(slab_.at(*worst));
            slab_.release(*worst);
            data_.erase(worst);
            stats_.dropped++;
        }
        if (bytes_ + bufferBytes(p) > opts_.capBytes) {
            stats_.dropped++;
            return false;
        }
    }
    data_.push_back(slab_.acquire(p));
    bytes_ += bufferBytes(p);
    stats_.enqueued++;
    return true;
}

std::optional<Packet> PFabricQdisc::dequeue() {
    if (!control_.empty()) {
        Packet p = slab_.pop(control_);
        controlCount_--;
        bytes_ -= bufferBytes(p);
        return p;
    }
    if (data_.empty()) return std::nullopt;
    // Message with fewest remaining bytes wins; within it, earliest offset
    // first so the receiver can make contiguous progress.
    auto best = std::min_element(
        data_.begin(), data_.end(),
        [this](PacketPool::Handle a, PacketPool::Handle b) {
            return slab_.at(a).remaining < slab_.at(b).remaining;
        });
    const MsgId msg = slab_.at(*best).msg;
    auto earliest = data_.end();
    for (auto it = data_.begin(); it != data_.end(); ++it) {
        if (slab_.at(*it).msg != msg) continue;
        if (earliest == data_.end() ||
            slab_.at(*it).offset < slab_.at(*earliest).offset) {
            earliest = it;
        }
    }
    Packet p = slab_.release(*earliest);
    data_.erase(earliest);
    bytes_ -= bufferBytes(p);
    return p;
}

}  // namespace homa
