#include "transport/message.h"

#include <algorithm>

namespace homa {

uint32_t Reassembly::addRange(uint32_t offset, uint32_t len) {
    if (offset >= length_) return 0;
    uint32_t end = std::min(offset + len, length_);
    if (end <= offset) return 0;

    // Find all existing ranges overlapping or adjacent to [offset, end) and
    // merge them into one.
    uint32_t newBytes = end - offset;
    auto it = ranges_.upper_bound(offset);
    if (it != ranges_.begin()) {
        auto prev = std::prev(it);
        if (prev->second >= offset) it = prev;
    }
    uint32_t mergedStart = offset;
    uint32_t mergedEnd = end;
    while (it != ranges_.end() && it->first <= mergedEnd) {
        // Overlap with [it->first, it->second): subtract the overlap with
        // the *new* range from newBytes.
        uint32_t overlapStart = std::max(it->first, offset);
        uint32_t overlapEnd = std::min(it->second, end);
        if (overlapEnd > overlapStart) newBytes -= (overlapEnd - overlapStart);
        mergedStart = std::min(mergedStart, it->first);
        mergedEnd = std::max(mergedEnd, it->second);
        it = ranges_.erase(it);
    }
    ranges_[mergedStart] = mergedEnd;
    received_ += newBytes;
    return newBytes;
}

uint32_t Reassembly::contiguousPrefix() const {
    auto it = ranges_.begin();
    if (it == ranges_.end() || it->first != 0) return 0;
    return it->second;
}

std::optional<std::pair<uint32_t, uint32_t>> Reassembly::firstGap() const {
    if (complete()) return std::nullopt;
    uint32_t gapStart = contiguousPrefix();
    auto it = ranges_.upper_bound(gapStart);
    uint32_t gapEnd = (it != ranges_.end()) ? it->first : length_;
    return std::make_pair(gapStart, gapEnd - gapStart);
}

Inbound::Inbound(const Packet& first)
    : meta{.id = first.msg,
           .src = first.src,
           .dst = first.dst,
           .length = first.messageLength,
           .created = first.created,  // stamped by the sending host
           .flags = static_cast<uint16_t>(first.flags & kMessageFlags)},
      reasm(first.messageLength) {}

void Inbound::add(const Packet& p) {
    const uint32_t fresh = reasm.addRange(p.offset, p.length);
    acc.packetsReceived++;
    acc.duplicateBytes += p.length - fresh;
    acc.queueingDelay += p.queueingDelay;
    acc.preemptionLag += p.preemptionLag;
}

}  // namespace homa
