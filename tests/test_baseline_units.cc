// White-box unit tests for baseline protocol mechanisms.
#include <gtest/gtest.h>

#include "baselines/phost.h"
#include "baselines/pias.h"
#include "workload/workloads.h"

namespace homa {
namespace {

// ----------------------------------------------------------- PIAS

TEST(PiasThresholds, AscendingAndCoverFirstPacket) {
    for (WorkloadId wl : kAllWorkloads) {
        auto t = piasThresholdsFor(workload(wl));
        ASSERT_EQ(t.size(), 7u) << workload(wl).name();
        EXPECT_GE(t[0], static_cast<uint32_t>(kMaxPayload))
            << "single-packet messages ride the top priority";
        for (size_t i = 1; i < t.size(); i++) EXPECT_GE(t[i], t[i - 1]);
    }
}

TEST(PiasThresholds, RoughlyEqualBytesPerLevel) {
    const auto& dist = workload(WorkloadId::W5);  // heavy tail exercises it
    auto t = piasThresholdsFor(dist);
    // Bytes a message of size s contributes to level i:
    //   min(s, t[i]) - min(s, t[i-1]).
    Rng rng(8);
    std::vector<double> perLevel(8, 0);
    double total = 0;
    for (int n = 0; n < 100000; n++) {
        const double s = dist.sample(rng);
        double prev = 0;
        for (int lvl = 0; lvl < 8; lvl++) {
            const double hi = lvl < 7 ? std::min<double>(s, t[lvl]) : s;
            perLevel[lvl] += hi - prev;
            prev = hi;
        }
        total += s;
    }
    for (int lvl = 0; lvl < 8; lvl++) {
        EXPECT_NEAR(perLevel[lvl] / total, 1.0 / 8.0, 0.06) << "level " << lvl;
    }
}

class MockHost : public HostServices {
public:
    EventLoop& loop() override { return loop_; }
    HostId id() const override { return 0; }
    void pushPacket(Packet p) override {
        p.src = 0;
        pushed.push_back(p);
    }
    void kickNic() override {}
    Rng& rng() override { return rng_; }

    EventLoop loop_;
    Rng rng_{1};
    std::vector<Packet> pushed;
};

TEST(PiasSender, PriorityDropsAsBytesAreSent) {
    MockHost host;
    PiasTransport t(host, piasThresholdsFor(workload(WorkloadId::W4)),
                    /*initialWindow=*/1 << 30,  // no window limit here
                    /*rtt=*/microseconds(8));

    Message m;
    m.id = 1;
    m.src = 0;
    m.dst = 5;
    m.length = 3'000'000;
    t.sendMessage(m);

    uint8_t firstPrio = 0, lastPrio = 0;
    int n = 0;
    while (auto p = t.pullPacket()) {
        if (n == 0) firstPrio = p->priority;
        lastPrio = p->priority;
        n++;
        if (n > 2500) break;
    }
    EXPECT_EQ(firstPrio, kHighestPriority) << "flows start at top priority";
    EXPECT_LT(lastPrio, firstPrio) << "demoted as bytes accumulate";
}

TEST(PiasSender, WindowGatesTransmission) {
    MockHost host;
    PiasTransport t(host, piasThresholdsFor(workload(WorkloadId::W4)),
                    /*initialWindow=*/3 * kMaxPayload, /*rtt=*/microseconds(8));
    Message m;
    m.id = 1;
    m.src = 0;
    m.dst = 5;
    m.length = 1'000'000;
    t.sendMessage(m);
    int sent = 0;
    while (t.pullPacket()) sent++;
    EXPECT_EQ(sent, 3);  // window exhausted until ACKs arrive

    // An ACK opens the window by one packet.
    Packet ack;
    ack.type = PacketType::Ack;
    ack.msg = 1;
    ack.length = kMaxPayload;
    t.handlePacket(ack);
    EXPECT_TRUE(t.pullPacket().has_value());
}

// ----------------------------------------------------------- pHost

TEST(PHostSender, BlindRegionThenTokens) {
    MockHost host;
    PHostTransport t(host, /*rttBytes=*/9640,
                     k10Gbps.serialize(kFullPacketWireBytes));
    Message m;
    m.id = 1;
    m.src = 0;
    m.dst = 3;
    m.length = 100000;
    t.sendMessage(m);

    int64_t blind = 0;
    int blindPackets = 0;
    while (auto p = t.pullPacket()) {
        EXPECT_EQ(p->priority, kHighestPriority) << "unscheduled = static high";
        blind += p->length;
        blindPackets++;
    }
    EXPECT_EQ(blind, 9640);

    // No more without tokens; one token = one packet at the low priority.
    Packet token;
    token.type = PacketType::Token;
    token.msg = 1;
    t.handlePacket(token);
    auto p = t.pullPacket();
    ASSERT_TRUE(p.has_value());
    EXPECT_EQ(p->priority, 0) << "scheduled = static low";
    EXPECT_FALSE(t.pullPacket().has_value());
}

TEST(PHostReceiver, PacesTokensAndStopsWhenDone) {
    MockHost host;
    const Duration packetTime = k10Gbps.serialize(kFullPacketWireBytes);
    PHostTransport t(host, /*rttBytes=*/9640, packetTime);

    // A 3-packet-beyond-RTT message announces itself.
    Packet first;
    first.type = PacketType::Data;
    first.src = 2;
    first.dst = 0;
    first.msg = 9;
    first.created = 0;
    first.offset = 0;
    first.length = 1442;
    first.messageLength = 9640 + 3 * 1442;
    t.handlePacket(first);
    // After three packet times, exactly the scheduled remainder was issued.
    host.loop_.runUntil(4 * k10Gbps.serialize(kFullPacketWireBytes));
    int tokens = 0;
    for (const auto& p : host.pushed) {
        if (p.type == PacketType::Token) tokens++;
    }
    EXPECT_EQ(tokens, 3) << "exactly the scheduled remainder, paced";
    // The sender never answers, so the free-token timeout eventually rolls
    // the grant back and re-issues (pHost's recovery path).
    host.loop_.runUntil(milliseconds(1));
    tokens = 0;
    for (const auto& p : host.pushed) {
        if (p.type == PacketType::Token) tokens++;
    }
    EXPECT_GT(tokens, 3) << "expired tokens must be re-issued";
}

}  // namespace
}  // namespace homa
