// Network wiring, port accounting, and timing constants.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "core/homa_transport.h"
#include "sim/network.h"
#include "workload/workloads.h"

namespace homa {
namespace {

Network makeNet(NetworkConfig cfg) {
    return Network(cfg, HomaTransport::factory({}, cfg, &workload(WorkloadId::W3)));
}

TEST(Topology, FatTreePresetMatchesFigure11) {
    NetworkConfig cfg = NetworkConfig::fatTree144();
    EXPECT_EQ(cfg.hostCount(), 144);
    EXPECT_EQ(cfg.racks, 9);
    EXPECT_EQ(cfg.hostsPerRack, 16);
    EXPECT_EQ(cfg.aggrSwitches, 4);
    EXPECT_FALSE(cfg.singleRack());
    EXPECT_EQ(cfg.switchDelay, nanoseconds(250));
    EXPECT_EQ(cfg.softwareDelay, nanoseconds(1500));
}

TEST(Topology, SingleRackPreset) {
    NetworkConfig cfg = NetworkConfig::singleRack16();
    EXPECT_EQ(cfg.hostCount(), 16);
    EXPECT_TRUE(cfg.singleRack());
}

TEST(NetworkWiring, PortGroupCounts) {
    Network net = makeNet(NetworkConfig::fatTree144());
    EXPECT_EQ(net.torDownlinkPorts().size(), 144u);
    EXPECT_EQ(net.torUplinkPorts().size(), 9u * 4u);
    EXPECT_EQ(net.aggrDownlinkPorts().size(), 4u * 9u);
}

TEST(NetworkWiring, SingleRackHasNoCore) {
    Network net = makeNet(NetworkConfig::singleRack16());
    EXPECT_EQ(net.torDownlinkPorts().size(), 16u);
    EXPECT_TRUE(net.torUplinkPorts().empty());
    EXPECT_TRUE(net.aggrDownlinkPorts().empty());
}

TEST(NetworkWiring, RackOfMapsHostsToTors) {
    Network net = makeNet(NetworkConfig::fatTree144());
    EXPECT_EQ(net.rackOf(0), 0);
    EXPECT_EQ(net.rackOf(15), 0);
    EXPECT_EQ(net.rackOf(16), 1);
    EXPECT_EQ(net.rackOf(143), 8);
}

TEST(NetworkWiring, CrossRackTrafficUsesCoreLinks) {
    NetworkConfig cfg = NetworkConfig::fatTree144();
    Network net(cfg, HomaTransport::factory({}, cfg, &workload(WorkloadId::W3)));
    int delivered = 0;
    net.setDeliveryCallback([&](const Message&, const DeliveryInfo&) {
        delivered++;
    });
    Message m;
    m.id = net.nextMsgId();
    m.src = 0;
    m.dst = 140;  // rack 8
    m.length = 50000;
    net.sendMessage(m);
    net.loop().run();
    EXPECT_EQ(delivered, 1);
    int64_t coreBytes = 0;
    for (const auto* p : net.torUplinkPorts()) {
        coreBytes += p->stats().wireBytesSent;
    }
    EXPECT_GE(coreBytes, messageWireBytes(50000));
}

TEST(NetworkWiring, SecondDeliveryCallbackReachesEveryHost) {
    // The network keeps one callback and every transport forwards to it,
    // so replacing it must reroute all hosts' deliveries, not some.
    NetworkConfig cfg = NetworkConfig::fatTree144();
    Network net(cfg, HomaTransport::factory({}, cfg, &workload(WorkloadId::W3)));
    int first = 0;
    net.setDeliveryCallback([&](const Message&, const DeliveryInfo&) {
        first++;
    });
    std::vector<int> second(net.hostCount(), 0);
    net.setDeliveryCallback([&](const Message& m, const DeliveryInfo&) {
        second[m.dst]++;
    });
    for (HostId h = 0; h < net.hostCount(); h++) {
        Message m;
        m.id = net.nextMsgId();
        m.src = (h + 17) % net.hostCount();  // most cross a rack
        m.dst = h;
        m.length = 3000;
        net.sendMessage(m);
    }
    net.loop().run();
    EXPECT_EQ(first, 0);
    EXPECT_EQ(second, std::vector<int>(net.hostCount(), 1));
}

TEST(NetworkWiring, IntraRackTrafficStaysLocal) {
    NetworkConfig cfg = NetworkConfig::fatTree144();
    Network net(cfg, HomaTransport::factory({}, cfg, &workload(WorkloadId::W3)));
    Message m;
    m.id = net.nextMsgId();
    m.src = 0;
    m.dst = 1;  // same rack
    m.length = 50000;
    net.sendMessage(m);
    net.loop().run();
    for (const auto* p : net.torUplinkPorts()) {
        // Only control packets could ever appear here; data must not.
        EXPECT_EQ(p->stats().wireBytesSent, 0);
    }
}

TEST(NetworkWiring, SprayingSpreadsAcrossUplinks) {
    NetworkConfig cfg = NetworkConfig::fatTree144();
    Network net(cfg, HomaTransport::factory({}, cfg, &workload(WorkloadId::W3)));
    Message m;
    m.id = net.nextMsgId();
    m.src = 0;
    m.dst = 143;
    m.length = 400 * 1442;  // 400 packets
    net.sendMessage(m);
    net.loop().run();
    // Rack 0's four uplinks each carried a reasonable share.
    auto ports = net.torUplinkPorts();
    for (int u = 0; u < 4; u++) {
        const auto& st = ports[u]->stats();
        EXPECT_GT(st.packetsSent, 50u) << "uplink " << u;
        EXPECT_LT(st.packetsSent, 200u) << "uplink " << u;
    }
}

TEST(NetworkSendMessage, RejectsInvalidMessagesNamingTheField) {
    Network net = makeNet(NetworkConfig::singleRack16());
    int delivered = 0;
    net.setDeliveryCallback([&](const Message&, const DeliveryInfo&) {
        delivered++;
    });
    // The error text of sending src -> dst with `length` bytes, or "" when
    // the message is accepted.
    auto errorOf = [&net](HostId src, HostId dst, uint32_t length) {
        Message m;
        m.id = net.nextMsgId();
        m.src = src;
        m.dst = dst;
        m.length = length;
        try {
            net.sendMessage(m);
        } catch (const std::invalid_argument& e) {
            return std::string(e.what());
        }
        return std::string();
    };
    EXPECT_NE(errorOf(-1, 1, 100).find("src -1"), std::string::npos);
    EXPECT_NE(errorOf(16, 1, 100).find("src 16"), std::string::npos);
    EXPECT_NE(errorOf(0, -1, 100).find("dst -1"), std::string::npos);
    EXPECT_NE(errorOf(0, 16, 100).find("dst 16"), std::string::npos);
    EXPECT_NE(errorOf(3, 3, 100).find("src == dst"), std::string::npos);
    EXPECT_NE(errorOf(0, 1, 0).find("length"), std::string::npos);

    // Rejected messages queue nothing: only the valid one is delivered.
    EXPECT_EQ(errorOf(0, 1, 100), "");
    net.loop().run();
    EXPECT_EQ(delivered, 1);
}

TEST(PortStats, BusyTimeAndBytesConsistent) {
    NetworkConfig cfg = NetworkConfig::singleRack16();
    Network net(cfg, HomaTransport::factory({}, cfg, &workload(WorkloadId::W3)));
    Message m;
    m.id = net.nextMsgId();
    m.src = 3;
    m.dst = 4;
    m.length = 100000;
    net.sendMessage(m);
    net.loop().run();
    const auto& st = net.downlink(4).stats();
    EXPECT_EQ(st.busyTime, k10Gbps.serialize(st.wireBytesSent));
    EXPECT_GE(st.wireBytesSent, messageWireBytes(100000));
}

TEST(PortStats, PriorityByteAccounting) {
    NetworkConfig cfg = NetworkConfig::singleRack16();
    Network net(cfg, HomaTransport::factory({}, cfg, &workload(WorkloadId::W3)));
    Message m;
    m.id = net.nextMsgId();
    m.src = 3;
    m.dst = 4;
    m.length = 100;  // single tiny unscheduled packet at the top level
    net.sendMessage(m);
    net.loop().run();
    const auto& st = net.downlink(4).stats();
    int64_t total = 0;
    for (int p = 0; p < kPriorityLevels; p++) total += st.bytesByPriority[p];
    EXPECT_EQ(total, st.wireBytesSent);
    EXPECT_GT(st.bytesByPriority[kHighestPriority], 0);
}

TEST(PortStats, QueueOccupancyTracked) {
    // Two senders blast the same receiver: its downlink must queue, and
    // the time-weighted mean must be positive but below the max.
    NetworkConfig cfg = NetworkConfig::singleRack16();
    Network net(cfg, HomaTransport::factory({}, cfg, &workload(WorkloadId::W3)));
    for (HostId s : {1, 2, 3}) {
        Message m;
        m.id = net.nextMsgId();
        m.src = s;
        m.dst = 0;
        m.length = 9000;
        net.sendMessage(m);
    }
    net.loop().run();
    const auto& st = net.downlink(0).stats();
    EXPECT_GT(st.maxQueueBytes, 0);
    const double mean = st.meanQueueBytes(net.loop().now());
    EXPECT_GT(mean, 0.0);
    EXPECT_LT(mean, static_cast<double>(st.maxQueueBytes));
}

TEST(HostSoftwareDelay, AppliedOncePerPacket) {
    // One-packet message: total time = wire path + exactly one software
    // delay. Doubling the configured delay adds exactly the difference.
    auto measure = [](Duration swDelay) {
        NetworkConfig cfg = NetworkConfig::singleRack16();
        cfg.softwareDelay = swDelay;
        Network net(cfg,
                    HomaTransport::factory({}, cfg, &workload(WorkloadId::W3)));
        Duration elapsed = -1;
        net.setDeliveryCallback([&](const Message& m, const DeliveryInfo& i) {
            elapsed = i.completed - m.created;
        });
        Message m;
        m.id = net.nextMsgId();
        m.src = 0;
        m.dst = 1;
        m.length = 100;
        net.sendMessage(m);
        net.loop().run();
        return elapsed;
    };
    const Duration base = measure(nanoseconds(1500));
    const Duration doubled = measure(nanoseconds(3000));
    EXPECT_EQ(doubled - base, nanoseconds(1500));
}

TEST(NetworkTimingsTest, SingleRackRttSmallerThanFatTree) {
    const auto rack = NetworkTimings::compute(NetworkConfig::singleRack16());
    const auto tree = NetworkTimings::compute(NetworkConfig::fatTree144());
    EXPECT_LT(rack.rttSmallGrant, tree.rttSmallGrant);
    EXPECT_LT(rack.rttBytes, tree.rttBytes);
}

}  // namespace
}  // namespace homa
