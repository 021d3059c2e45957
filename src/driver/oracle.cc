#include "driver/oracle.h"

#include <algorithm>
#include <array>
#include <vector>

#include "sim/packet.h"

namespace homa {

Duration Oracle::bestOneWay(uint32_t size, bool intraRack) const {
    // Split into packets exactly like the transports do: full payloads,
    // then the remainder.
    const int64_t packets = std::max<int64_t>(
        1, (static_cast<int64_t>(size) + kMaxPayload - 1) / kMaxPayload);
    const int64_t lastWire = static_cast<int64_t>(size) -
                             (packets - 1) * kMaxPayload + kHeaderBytes +
                             kFrameOverhead;

    // The walk is packet-major: packet i's finish time at hop k depends only
    // on its finish at hop k-1 (store-and-forward: hop k starts after that
    // plus the switch delay) and on when hop k's link finished packet i-1.
    // So one clock per link carries the whole pipeline.
    Duration completion = 0;
    if (cfg_.threeTier() && !intraRack) {
        // Worst-case placement on a three-tier tree: cross-pod, 6 links /
        // 5 switches, with the aggr<->core hops at the oversubscribed
        // bandwidth. Spraying spreads consecutive packets across parallel
        // links at every interior hop; the best case is a round-robin
        // assignment, modeled by one FIFO clock per parallel link. With
        // oversubscription > 1 an aggr<->core link can serialize slower
        // than the sender link, so (unlike the two-tier tree) interior
        // queueing can genuinely bound completion.
        const int fan = cfg_.aggrSwitches;          // TOR -> pod aggrs
        const int coreFan = fan * cfg_.coreSwitches;  // aggr -> core links
        const Bandwidth up = cfg_.aggrCoreLink();
        const std::array<Bandwidth, 6> hops = {cfg_.hostLink, cfg_.coreLink,
                                               up,            up,
                                               cfg_.coreLink, cfg_.hostLink};
        const std::array<int, 6> links = {1, fan, coreFan, coreFan, fan, 1};
        std::array<std::vector<Duration>, 6> linkFree;
        for (size_t k = 0; k < hops.size(); k++) linkFree[k].assign(links[k], 0);
        for (int64_t i = 0; i < packets; i++) {
            const int64_t wire = i + 1 < packets ? kFullPacketWireBytes : lastWire;
            Duration done = linkFree[0][0] += hops[0].serialize(wire);
            for (size_t k = 1; k < hops.size(); k++) {
                Duration& free = linkFree[k][i % links[k]];
                done = free = std::max(done + cfg_.switchDelay, free) +
                              hops[k].serialize(wire);
            }
            completion = std::max(completion, done);
        }
    } else {
        // Hop bandwidths along the path.
        std::array<Bandwidth, 4> hops;
        size_t hopCount = 0;
        hops[hopCount++] = cfg_.hostLink;
        if (!cfg_.singleRack() && !intraRack) {
            hops[hopCount++] = cfg_.coreLink;
            hops[hopCount++] = cfg_.coreLink;
        }
        hops[hopCount++] = cfg_.hostLink;

        // On the single-rack cluster there is one path, so packets share
        // every link FIFO. On the fat-tree, per-packet spraying lets
        // packets travel independent core paths; the sender link imposes
        // the only ordering (its FIFO spacing is >= every downstream
        // serialization time, so shared final-hop contention cannot delay
        // the completion-determining packet). The event simulator confirms
        // both models exactly.
        const bool sharedPath = cfg_.singleRack() || intraRack;
        std::array<Duration, 4> linkFree{};
        for (int64_t i = 0; i < packets; i++) {
            const int64_t wire = i + 1 < packets ? kFullPacketWireBytes : lastWire;
            Duration done = linkFree[0] += hops[0].serialize(wire);
            for (size_t k = 1; k < hopCount; k++) {
                Duration start = done + cfg_.switchDelay;
                if (sharedPath) start = std::max(start, linkFree[k]);
                done = linkFree[k] = start + hops[k].serialize(wire);
            }
            completion = std::max(completion, done);
        }
    }
    return completion + cfg_.softwareDelay;
}

Duration Oracle::bestEchoRpc(uint32_t size) const {
    // The response generation is covered by the receiver software delay
    // already included in each one-way time.
    return 2 * bestOneWay(size);
}

}  // namespace homa
