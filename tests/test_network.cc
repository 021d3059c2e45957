// Network wiring, port accounting, and timing constants.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/homa_transport.h"
#include "sim/network.h"
#include "sim/parallel.h"
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

// One packet reaching a transport: when, where, and the loop's event
// count at that moment (a run order within one shard loop).
struct Arrival {
    Time at;
    HostId host;
    MsgId msg;
    uint64_t order;
};

class LoggingTransport final : public Transport {
public:
    LoggingTransport(HostServices& host, std::vector<Arrival>& log)
        : host_(host), log_(log) {}
    void sendMessage(const Message&) override {}
    void handlePacket(const Packet& p) override {
        log_.push_back(Arrival{host_.loop().now(), host_.id(), p.msg,
                               host_.loop().executedEvents()});
    }

private:
    HostServices& host_;
    std::vector<Arrival>& log_;
};

// Each host logs into its own vector, so shard threads never share one.
TransportFactory loggingFactory(std::vector<std::vector<Arrival>>& logs) {
    return [&logs](HostServices& h) {
        return std::make_unique<LoggingTransport>(h, logs[h.id()]);
    };
}

// Hands `batch` ((host, msg) pairs, in order) to the hosts' Host::deliver
// at `at`, from the loop of the batch's shard.
void deliverAt(Network& net, Time at,
               std::vector<std::pair<HostId, MsgId>> batch) {
    EventLoop& loop = net.loopFor(batch.front().first);
    loop.at(at, [&net, batch] {
        for (const auto& [h, msg] : batch) {
            Packet p;
            p.dst = h;
            p.msg = msg;
            net.host(h).deliver(p);
        }
    });
}

// The arrivals of `hosts`, merged in the order their (common) loop ran
// them.
std::vector<Arrival> mergedArrivals(
    const std::vector<std::vector<Arrival>>& logs,
    std::initializer_list<HostId> hosts) {
    std::vector<Arrival> all;
    for (HostId h : hosts) all.insert(all.end(), logs[h].begin(), logs[h].end());
    std::sort(all.begin(), all.end(), [](const Arrival& a, const Arrival& b) {
        return a.order < b.order;
    });
    return all;
}

TEST(HostSoftwareDelay, SameInstantArrivalsKeepTheirOrderAcrossHosts) {
    // Two hosts of one rack share their loop's software-delay FIFO. Each
    // packet reaches its transport exactly one software delay after
    // Host::deliver, and the loop hands them over in delivery order,
    // across both hosts and across two instants.
    NetworkConfig cfg = NetworkConfig::singleRack16();
    std::vector<std::vector<Arrival>> logs(cfg.hostCount());
    Network net(cfg, loggingFactory(logs));
    const Time t0 = microseconds(1);
    const Time t1 = t0 + nanoseconds(700);  // before t0's batch comes out
    deliverAt(net, t0, {{0, 1}, {1, 2}, {1, 3}, {0, 4}, {1, 5}});
    deliverAt(net, t1, {{1, 6}, {0, 7}});
    net.loop().run();

    const std::vector<Arrival> got = mergedArrivals(logs, {0, 1});
    const std::vector<std::pair<HostId, MsgId>> want = {
        {0, 1}, {1, 2}, {1, 3}, {0, 4}, {1, 5}, {1, 6}, {0, 7}};
    ASSERT_EQ(got.size(), want.size());
    for (size_t i = 0; i < want.size(); i++) {
        EXPECT_EQ(got[i].host, want[i].first) << i;
        EXPECT_EQ(got[i].msg, want[i].second) << i;
        const Time sent = got[i].msg <= 5 ? t0 : t1;
        EXPECT_EQ(got[i].at, sent + cfg.softwareDelay) << i;
    }
}

TEST(ParallelDeterminism, SoftwareDelayFifoPerShardKeepsArrivalOrder) {
    // With two shards, hosts 0 and 1 (rack 0) wait on shard 0's FIFO and
    // hosts 16 and 17 (rack 1) on shard 1's, each touched only by its own
    // shard's thread. Same-instant packets on both shards each come out
    // one software delay later, in delivery order within the shard.
    NetworkConfig cfg = NetworkConfig::fatTree144();
    std::vector<std::vector<Arrival>> logs(cfg.hostCount());
    Network net(cfg, loggingFactory(logs), /*shards=*/2);
    ASSERT_EQ(net.shardCount(), 2);
    ASSERT_NE(net.shardOfHost(0), net.shardOfHost(16));
    const Time t0 = microseconds(1);
    deliverAt(net, t0, {{0, 1}, {1, 2}, {0, 3}, {1, 4}});
    deliverAt(net, t0, {{17, 11}, {16, 12}, {17, 13}, {16, 14}});
    runNetworkUntil(net, t0 + microseconds(10));

    const auto check = [&](std::initializer_list<HostId> hosts,
                           const std::vector<MsgId>& want) {
        const std::vector<Arrival> got = mergedArrivals(logs, hosts);
        ASSERT_EQ(got.size(), want.size());
        for (size_t i = 0; i < want.size(); i++) {
            EXPECT_EQ(got[i].msg, want[i]) << i;
            EXPECT_EQ(got[i].at, t0 + cfg.softwareDelay) << i;
        }
    };
    check({0, 1}, {1, 2, 3, 4});
    check({16, 17}, {11, 12, 13, 14});
}

TEST(NetworkTimingsTest, SingleRackRttSmallerThanFatTree) {
    const auto rack = NetworkTimings::compute(NetworkConfig::singleRack16());
    const auto tree = NetworkTimings::compute(NetworkConfig::fatTree144());
    EXPECT_LT(rack.rttSmallGrant, tree.rttSmallGrant);
    EXPECT_LT(rack.rttBytes, tree.rttBytes);
}

}  // namespace
}  // namespace homa
