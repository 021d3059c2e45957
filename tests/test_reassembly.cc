#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "sim/random.h"
#include "transport/message.h"

namespace homa {
namespace {

TEST(Reassembly, EmptyState) {
    Reassembly r(1000);
    EXPECT_FALSE(r.complete());
    EXPECT_EQ(r.receivedBytes(), 0u);
    EXPECT_EQ(r.contiguousPrefix(), 0u);
    auto gap = r.firstGap();
    ASSERT_TRUE(gap.has_value());
    EXPECT_EQ(gap->first, 0u);
    EXPECT_EQ(gap->second, 1000u);
}

TEST(Reassembly, SingleRangeCompletes) {
    Reassembly r(500);
    EXPECT_EQ(r.addRange(0, 500), 500u);
    EXPECT_TRUE(r.complete());
    EXPECT_FALSE(r.firstGap().has_value());
}

TEST(Reassembly, InOrderPackets) {
    Reassembly r(4326);  // 3 full packets
    EXPECT_EQ(r.addRange(0, 1442), 1442u);
    EXPECT_EQ(r.contiguousPrefix(), 1442u);
    EXPECT_EQ(r.addRange(1442, 1442), 1442u);
    EXPECT_EQ(r.addRange(2884, 1442), 1442u);
    EXPECT_TRUE(r.complete());
}

TEST(Reassembly, OutOfOrderPackets) {
    Reassembly r(4326);
    r.addRange(2884, 1442);
    EXPECT_EQ(r.contiguousPrefix(), 0u);
    r.addRange(0, 1442);
    EXPECT_EQ(r.contiguousPrefix(), 1442u);
    auto gap = r.firstGap();
    ASSERT_TRUE(gap.has_value());
    EXPECT_EQ(gap->first, 1442u);
    EXPECT_EQ(gap->second, 1442u);
    r.addRange(1442, 1442);
    EXPECT_TRUE(r.complete());
}

TEST(Reassembly, DuplicatesCountZeroNewBytes) {
    Reassembly r(3000);
    EXPECT_EQ(r.addRange(0, 1442), 1442u);
    EXPECT_EQ(r.addRange(0, 1442), 0u);
    EXPECT_EQ(r.addRange(100, 500), 0u);
    EXPECT_EQ(r.receivedBytes(), 1442u);
}

TEST(Reassembly, PartialOverlapCountsOnlyNewBytes) {
    Reassembly r(3000);
    r.addRange(0, 1000);
    EXPECT_EQ(r.addRange(500, 1000), 500u);
    EXPECT_EQ(r.receivedBytes(), 1500u);
    EXPECT_EQ(r.contiguousPrefix(), 1500u);
}

TEST(Reassembly, OverlapSpanningMultipleRanges) {
    Reassembly r(10000);
    r.addRange(1000, 1000);
    r.addRange(4000, 1000);
    r.addRange(7000, 1000);
    // Covers all three existing ranges plus the gaps between them.
    EXPECT_EQ(r.addRange(500, 8000), 5000u);
    EXPECT_EQ(r.receivedBytes(), 8000u);
    auto gap = r.firstGap();
    ASSERT_TRUE(gap.has_value());
    EXPECT_EQ(gap->first, 0u);
    EXPECT_EQ(gap->second, 500u);
}

TEST(Reassembly, RangeBeyondLengthIsClipped) {
    Reassembly r(1000);
    EXPECT_EQ(r.addRange(900, 1442), 100u);
    EXPECT_EQ(r.addRange(1000, 500), 0u);  // entirely past the end
    EXPECT_EQ(r.addRange(5000, 10), 0u);
    EXPECT_EQ(r.receivedBytes(), 100u);
}

TEST(Reassembly, ZeroLengthRangeIsNoop) {
    Reassembly r(1000);
    EXPECT_EQ(r.addRange(10, 0), 0u);
    EXPECT_EQ(r.receivedBytes(), 0u);
}

TEST(Reassembly, AdjacentRangesMerge) {
    Reassembly r(3000);
    r.addRange(0, 1000);
    r.addRange(1000, 1000);  // exactly adjacent
    EXPECT_EQ(r.contiguousPrefix(), 2000u);
    auto gap = r.firstGap();
    ASSERT_TRUE(gap.has_value());
    EXPECT_EQ(gap->first, 2000u);
}

// Property: random permutations of packets with random duplicates always
// reassemble exactly, and newly-counted bytes always sum to the length.
class ReassemblyProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ReassemblyProperty, RandomArrivalOrderAlwaysCompletes) {
    Rng rng(GetParam());
    const uint32_t length = 1 + static_cast<uint32_t>(rng.below(200000));
    Reassembly r(length);

    std::vector<std::pair<uint32_t, uint32_t>> packets;
    for (uint32_t off = 0; off < length; off += kMaxPayload) {
        packets.emplace_back(off, std::min<uint32_t>(kMaxPayload, length - off));
    }
    // Shuffle and inject duplicates.
    for (size_t i = packets.size(); i > 1; i--) {
        std::swap(packets[i - 1], packets[rng.below(i)]);
    }
    const size_t dups = rng.below(packets.size() + 1);
    for (size_t i = 0; i < dups; i++) {
        packets.push_back(packets[rng.below(packets.size())]);
    }

    uint64_t newBytes = 0;
    for (auto [off, len] : packets) newBytes += r.addRange(off, len);
    EXPECT_TRUE(r.complete());
    EXPECT_EQ(newBytes, length);
    EXPECT_EQ(r.contiguousPrefix(), length);
    EXPECT_FALSE(r.firstGap().has_value());
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReassemblyProperty,
                         ::testing::Range<uint64_t>(0, 25));

// The lifecycle every transport shares: a message cut into DATA packets by
// dataPacket() and fed to an Inbound in any order, with a duplicate, comes
// back as the message that was sent, with the per-packet sums Figure 14
// decomposes.
TEST(MessageLifecycle, DataPacketsRebuildTheSentMessage) {
    Message m;
    m.id = (uint64_t{3} << 40) | 17;
    m.src = 3;
    m.dst = 11;
    m.length = 4 * kMaxPayload + 100;  // five chunks, the last one short
    m.created = microseconds(7);
    m.flags = kFlagRequest | kFlagIncastMark;

    std::vector<Packet> chunks;
    for (uint32_t off = 0; off < m.length; off += kMaxPayload) {
        Packet p = dataPacket(m, off, std::min<uint32_t>(kMaxPayload,
                                                         m.length - off));
        p.src = m.src;  // the sending host stamps it
        const auto k = static_cast<Duration>(chunks.size() + 1);
        p.queueingDelay = k * nanoseconds(100);
        p.preemptionLag = nanoseconds(10);
        chunks.push_back(p);
    }
    ASSERT_EQ(chunks.size(), 5u);
    for (size_t i = 0; i < chunks.size(); i++) {
        EXPECT_EQ(chunks[i].type, PacketType::Data);
        EXPECT_EQ(chunks[i].dst, m.dst);
        EXPECT_EQ(chunks[i].msg, m.id);
        EXPECT_EQ(chunks[i].messageLength, m.length);
        EXPECT_EQ(chunks[i].created, m.created);
        EXPECT_EQ(chunks[i].hasFlag(kFlagLast), i + 1 == chunks.size()) << i;
    }

    // The last chunk arrives first and chunk 1 arrives twice.
    const size_t order[] = {4, 1, 0, 1, 3, 2};
    Inbound in(chunks[order[0]]);
    Duration queueing = 0;
    for (size_t i : order) {
        EXPECT_FALSE(in.reasm.complete()) << "before chunk " << i;
        in.add(chunks[i]);
        queueing += chunks[i].queueingDelay;
    }
    EXPECT_TRUE(in.reasm.complete());
    EXPECT_EQ(in.remaining(), 0);

    EXPECT_EQ(in.meta.id, m.id);
    EXPECT_EQ(in.meta.src, m.src);
    EXPECT_EQ(in.meta.dst, m.dst);
    EXPECT_EQ(in.meta.length, m.length);
    EXPECT_EQ(in.meta.created, m.created);
    EXPECT_EQ(in.meta.flags, m.flags);  // no kFlagLast from the first chunk

    const DeliveryInfo info = in.delivered(microseconds(40));
    EXPECT_EQ(info.completed, microseconds(40));
    EXPECT_EQ(info.packetsReceived, 6u);
    EXPECT_EQ(info.duplicateBytes, chunks[1].length);
    EXPECT_EQ(info.queueingDelay, queueing);
    EXPECT_EQ(info.preemptionLag, nanoseconds(60));
}

}  // namespace
}  // namespace homa
