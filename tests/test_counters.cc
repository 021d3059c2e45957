// Network-level probes: wasted-bandwidth sampling and queue summaries.
#include <gtest/gtest.h>

#include "driver/experiment.h"
#include "stats/counters.h"

namespace homa {
namespace {

Network makeIdleNet() {
    NetworkConfig cfg = NetworkConfig::singleRack16();
    return Network(cfg,
                   HomaTransport::factory({}, cfg, &workload(WorkloadId::W3)));
}

TEST(WastedBandwidth, ZeroOnIdleNetwork) {
    Network net = makeIdleNet();
    WastedBandwidthProbe probe(net, microseconds(5));
    probe.start(0, microseconds(500));
    net.loop().run();
    EXPECT_EQ(probe.wastedFraction(), 0.0);
}

TEST(WastedBandwidth, DetectsWithheldIdleReceiver) {
    // Overcommit degree 1 + two needy inbound messages whose senders went
    // silent: the downlink is idle while work is withheld -> waste.
    NetworkConfig cfg = NetworkConfig::singleRack16();
    HomaConfig homa;
    homa.overcommitDegree = 1;
    homa.resendTimeout = milliseconds(100);  // keep RESENDs out of the way
    Network net(cfg, HomaTransport::factory(homa, cfg, &workload(WorkloadId::W3)));

    // Hand-deliver first packets of two long messages to host 0's
    // transport; their "senders" never follow up.
    for (MsgId id = 1; id <= 2; id++) {
        Packet p;
        p.type = PacketType::Data;
        p.src = static_cast<HostId>(id);
        p.dst = 0;
        p.msg = 1000 + id;
        p.created = 0;
        p.offset = 0;
        p.length = 1442;
        p.messageLength = 400000;
        net.host(0).transport().handlePacket(p);
    }
    EXPECT_TRUE(net.host(0).transport().hasWithheldWork());

    WastedBandwidthProbe probe(net, microseconds(5));
    probe.start(0, microseconds(500));
    net.loop().runUntil(microseconds(600));
    // Host 0 is 1 of 16 sampled hosts and always wasted: fraction ~1/16.
    EXPECT_NEAR(probe.wastedFraction(), 1.0 / 16.0, 0.02);
}

TEST(QueueSummary, EmptyPortsGiveZero) {
    QueueOccupancy q = summarizeQueues({}, kSecond);
    EXPECT_EQ(q.meanBytes, 0.0);
    EXPECT_EQ(q.maxBytes, 0);
}

TEST(QueueSummary, AggregatesAcrossPorts) {
    EventLoop loop;
    EgressPort a(loop, k10Gbps, std::make_unique<StrictPriorityQdisc>());
    EgressPort b(loop, k10Gbps, std::make_unique<StrictPriorityQdisc>());
    // Fill a's queue with two packets behind one transmitting.
    Packet p;
    p.type = PacketType::Data;
    p.length = kMaxPayload;
    a.enqueue(p);
    a.enqueue(p);
    a.enqueue(p);
    loop.run();
    QueueOccupancy q = summarizeQueues({&a, &b}, loop.now());
    EXPECT_GT(q.meanBytes, 0.0);
    EXPECT_EQ(q.maxBytes, 2 * (kMaxPayload + kHeaderBytes));
}

}  // namespace
}  // namespace homa
