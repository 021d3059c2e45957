// EgressPort: serialization timing, pull model, and the Figure 14
// preemption-lag/queueing-delay decomposition.
#include <gtest/gtest.h>

#include <deque>
#include <limits>
#include <stdexcept>

#include "sim/port.h"

namespace homa {
namespace {

struct CollectSink : PacketSink {
    std::vector<std::pair<Time, Packet>> got;
    EventLoop* loop = nullptr;
    void deliver(Packet p) override { got.emplace_back(loop->now(), p); }
};

Packet mkData(uint8_t prio, uint32_t len = kMaxPayload, MsgId id = 1) {
    Packet p;
    p.type = PacketType::Data;
    p.priority = prio;
    p.length = len;
    p.msg = id;
    return p;
}

struct PortFixture {
    EventLoop loop;
    CollectSink sink;
    EgressPort port{loop, k10Gbps, std::make_unique<StrictPriorityQdisc>()};
    PortFixture() {
        sink.loop = &loop;
        port.connectTo(&sink);
    }
};

TEST(EgressPort, SerializationTimeExact) {
    PortFixture f;
    f.port.enqueue(mkData(0));  // wire = 1442 + 58 + 24 = 1524 B
    f.loop.run();
    ASSERT_EQ(f.sink.got.size(), 1u);
    EXPECT_EQ(f.sink.got[0].first, k10Gbps.serialize(1524));
}

TEST(EgressPort, BackToBackPacketsPipeline) {
    PortFixture f;
    f.port.enqueue(mkData(0, kMaxPayload, 1));
    f.port.enqueue(mkData(0, kMaxPayload, 2));
    f.loop.run();
    ASSERT_EQ(f.sink.got.size(), 2u);
    EXPECT_EQ(f.sink.got[1].first - f.sink.got[0].first,
              k10Gbps.serialize(1524));
}

TEST(EgressPort, HigherPriorityOvertakesQueued) {
    PortFixture f;
    f.port.enqueue(mkData(0, kMaxPayload, 1));  // starts transmitting
    f.port.enqueue(mkData(0, kMaxPayload, 2));  // queued
    f.port.enqueue(mkData(7, 100, 3));          // queued, higher priority
    f.loop.run();
    ASSERT_EQ(f.sink.got.size(), 3u);
    EXPECT_EQ(f.sink.got[0].second.msg, 1u);  // in flight, can't preempt
    EXPECT_EQ(f.sink.got[1].second.msg, 3u);  // jumps the queue
    EXPECT_EQ(f.sink.got[2].second.msg, 2u);
}

TEST(EgressPort, PreemptionLagAttributedToLowerPriorityHolder) {
    PortFixture f;
    f.port.enqueue(mkData(0, kMaxPayload, 1));
    // Arrives while the P0 packet holds the wire: the residual wait is
    // preemption lag, not queueing delay.
    f.loop.at(k10Gbps.serialize(1524) / 2, [&] {
        f.port.enqueue(mkData(7, 100, 2));
    });
    f.loop.run();
    ASSERT_EQ(f.sink.got.size(), 2u);
    const Packet& hi = f.sink.got[1].second;
    EXPECT_EQ(hi.msg, 2u);
    EXPECT_EQ(hi.preemptionLag, k10Gbps.serialize(1524) / 2);
    EXPECT_EQ(hi.queueingDelay, 0);
}

TEST(EgressPort, QueueingDelayBehindEqualPriority) {
    PortFixture f;
    f.port.enqueue(mkData(5, kMaxPayload, 1));
    f.port.enqueue(mkData(5, kMaxPayload, 2));
    f.loop.run();
    const Packet& second = f.sink.got[1].second;
    EXPECT_EQ(second.preemptionLag, 0);
    EXPECT_EQ(second.queueingDelay, k10Gbps.serialize(1524));
}

TEST(EgressPort, MixedWaitSplitsCorrectly) {
    PortFixture f;
    // P0 full packet transmitting; then a P7 packet and another P7 behind
    // it. Second P7: preemption lag = residual of P0, queueing = first P7.
    f.port.enqueue(mkData(0, kMaxPayload, 1));
    f.port.enqueue(mkData(7, kMaxPayload, 2));
    f.port.enqueue(mkData(7, kMaxPayload, 3));
    f.loop.run();
    const Packet& third = f.sink.got[2].second;
    EXPECT_EQ(third.msg, 3u);
    EXPECT_EQ(third.preemptionLag, k10Gbps.serialize(1524));
    EXPECT_EQ(third.queueingDelay, k10Gbps.serialize(1524));
}

struct ScriptedSource : PacketSource {
    std::deque<Packet> script;
    std::optional<Packet> pullPacket() override {
        if (script.empty()) return std::nullopt;
        Packet p = script.front();
        script.pop_front();
        return p;
    }
};

TEST(EgressPort, PullModeDrainsSource) {
    PortFixture f;
    ScriptedSource src;
    for (int i = 0; i < 5; i++) src.script.push_back(mkData(0, 1000, i));
    f.port.setSource(&src);
    f.port.kick();
    f.loop.run();
    EXPECT_EQ(f.sink.got.size(), 5u);
    EXPECT_TRUE(src.script.empty());
}

TEST(EgressPort, PushedControlBeatsPulledData) {
    PortFixture f;
    ScriptedSource src;
    src.script.push_back(mkData(0, kMaxPayload, 1));
    src.script.push_back(mkData(0, kMaxPayload, 2));
    f.port.setSource(&src);
    f.port.kick();
    // While packet 1 is on the wire, a control packet is pushed: it must
    // go out before pulled packet 2 (the qdisc is consulted first).
    Packet ctrl;
    ctrl.type = PacketType::Grant;
    ctrl.priority = kHighestPriority;
    ctrl.msg = 99;
    f.loop.at(100, [&] { f.port.enqueue(ctrl); });
    f.loop.run();
    ASSERT_EQ(f.sink.got.size(), 3u);
    EXPECT_EQ(f.sink.got[1].second.msg, 99u);
}

TEST(EgressPort, IdleFlagReflectsState) {
    PortFixture f;
    EXPECT_TRUE(f.port.idle());
    f.port.enqueue(mkData(0));
    EXPECT_FALSE(f.port.idle());
    f.loop.run();
    EXPECT_TRUE(f.port.idle());
}

TEST(EgressPort, BacklogCountsQueuedAndInFlight) {
    PortFixture f;
    f.port.enqueue(mkData(0));
    f.port.enqueue(mkData(0));
    EXPECT_GT(f.port.backlogBytes(), 1524);
    f.loop.run();
    EXPECT_EQ(f.port.backlogBytes(), 0);
}

TEST(EgressPort, SetDegradeRejectsValuesOutOfRange) {
    // The checks hold in every build type: a bw factor of 0 would divide
    // by zero at the next serialization and cast +inf to a Duration.
    PortFixture f;
    const double nan = std::numeric_limits<double>::quiet_NaN();
    for (double bw : {0.0, -1.0, 1.5, nan}) {
        EXPECT_THROW(f.port.setDegrade(bw, 0, 0.0, 1), std::invalid_argument)
            << bw;
    }
    for (double drop : {-0.1, 1.0, nan}) {
        EXPECT_THROW(f.port.setDegrade(0.5, 0, drop, 1), std::invalid_argument)
            << drop;
    }
    EXPECT_THROW(f.port.setDegrade(0.5, -1, 0.0, 1), std::invalid_argument);

    // A rejected call leaves the link healthy: full-size serialization.
    f.port.enqueue(mkData(0));
    f.loop.run();
    ASSERT_EQ(f.sink.got.size(), 1u);
    EXPECT_EQ(f.sink.got[0].first, k10Gbps.serialize(kFullPacketWireBytes));

    // In range, it stretches the serialization by 1/bwFactor.
    f.port.setDegrade(0.5, 0, 0.0, 1);
    const Time start = f.loop.now();
    f.port.enqueue(mkData(0));
    f.loop.run();
    ASSERT_EQ(f.sink.got.size(), 2u);
    EXPECT_EQ(f.sink.got[1].first - start,
              2 * k10Gbps.serialize(kFullPacketWireBytes));
}

}  // namespace
}  // namespace homa
