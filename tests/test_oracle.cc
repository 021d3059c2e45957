// The oracle must agree with the event simulator on an idle network —
// this pins down every timing constant in the substrate.
#include <gtest/gtest.h>

#include <vector>

#include "core/homa_transport.h"
#include "driver/oracle.h"
#include "sim/network.h"
#include "workload/workloads.h"

namespace homa {
namespace {

TEST(Oracle, MonotoneInSize) {
    Oracle oracle(NetworkConfig::fatTree144());
    Duration prev = 0;
    for (uint32_t size = 1; size < 2'000'000; size = size * 3 / 2 + 7) {
        const Duration t = oracle.bestOneWay(size);
        EXPECT_GT(t, prev == 0 ? 0 : prev - 1);
        EXPECT_GE(t, prev);
        prev = t;
    }
}

TEST(Oracle, SmallMessageMatchesPaperConstant) {
    // The paper: minimum one-way time for a small message is 2.3 us on the
    // simulated fat-tree.
    Oracle oracle(NetworkConfig::fatTree144());
    const double us = toMicros(oracle.bestOneWay(100));
    EXPECT_GT(us, 2.0);
    EXPECT_LT(us, 2.8);
}

TEST(Oracle, RttBytesMatchesPaperConstant) {
    // ~9.7 KB at 10 Gbps (§5.2).
    const auto t = NetworkTimings::compute(NetworkConfig::fatTree144());
    EXPECT_GT(t.rttBytes, 9000);
    EXPECT_LT(t.rttBytes, 10500);
    EXPECT_NEAR(toMicros(t.rttSmallGrant), 7.8, 0.4);
}

TEST(Oracle, SingleRackRpcMatchesPaperScale) {
    // The paper: best-case 100-byte echo RPC ~4.7 us on the CloudLab
    // cluster (whose software overheads differ slightly from the simulated
    // 1.5 us); accept the same ballpark.
    Oracle oracle(NetworkConfig::singleRack16());
    const double us = toMicros(oracle.bestEchoRpc(100));
    EXPECT_GT(us, 3.0);
    EXPECT_LT(us, 5.5);
}

TEST(Oracle, LargeMessageApproachesLineRate) {
    Oracle oracle(NetworkConfig::fatTree144());
    const uint32_t size = 10'000'000;
    const double secs = toSeconds(oracle.bestOneWay(size));
    const double lineRate = static_cast<double>(messageWireBytes(size)) / 1.25e9;
    EXPECT_GT(secs, lineRate);
    EXPECT_LT(secs, lineRate * 1.01);
}

// Exact one-way times (ps) on every path shape the walk distinguishes, at
// packet boundaries (1442/1443, 2884/2885) and up to W3's largest size.
// Captured from the earlier memoized implementation; any change to the
// walk that moves a slowdown denominator by one picosecond fails here.
TEST(Oracle, GoldenOneWayTimes) {
    const std::vector<uint32_t> sizes = {1,    100,  1442,   1443,   2884,
                                         2885, 9000, 100000, 5114695};
    NetworkConfig tiered = NetworkConfig::fatTree144();
    ASSERT_TRUE(
        parseTopoSpec("racks=8,hosts=4,aggr=2,core=2,oversub=4", tiered));
    // The intra-rack path is the same host-TOR-host walk on every shape.
    const std::vector<Duration> rack = {1882800,  2041200,    4188400,
                                        4254800,  5407600,    5474000,
                                        10628400, 87561200,   4327408400};
    struct Shape {
        const char* name;
        NetworkConfig cfg;
        bool intraRack;
        std::vector<Duration> want;
    };
    const std::vector<Shape> shapes = {
        {"fatTree144 cross-rack", NetworkConfig::fatTree144(), false,
         {2416000, 2614000, 5298000, 5298000, 6517200, 6517200, 11394000,
          88203600, 4328423200}},
        {"fatTree144 intra-rack", NetworkConfig::fatTree144(), true, rack},
        {"singleRack16", NetworkConfig::singleRack16(), false, rack},
        {"three-tier cross-pod", tiered, false,
         {2982400, 3259600, 7017200, 7083600, 8236400, 8302800, 13457200,
          90390000, 4330237200}},
        {"three-tier intra-rack", tiered, true, rack},
    };
    for (const Shape& s : shapes) {
        const Oracle oracle(s.cfg);
        for (size_t i = 0; i < sizes.size(); i++) {
            EXPECT_EQ(oracle.bestOneWay(sizes[i], s.intraRack), s.want[i])
                << s.name << ", " << sizes[i] << " B";
        }
    }
}

// The definitive check: Homa on an otherwise idle simulated network hits
// the oracle exactly for unscheduled-only messages, across both topologies
// and a sweep of sizes.
class OracleVsSim
    : public ::testing::TestWithParam<std::tuple<bool, uint32_t>> {};

TEST_P(OracleVsSim, IdleNetworkMatchesOracleExactly) {
    const auto [singleRack, size] = GetParam();
    NetworkConfig cfg = singleRack ? NetworkConfig::singleRack16()
                                   : NetworkConfig::fatTree144();
    Network net(cfg, HomaTransport::factory({}, cfg, &workload(WorkloadId::W3)));
    Oracle oracle(cfg);

    Duration measured = -1;
    Time created = 0;
    net.setDeliveryCallback([&](const Message& m, const DeliveryInfo& info) {
        measured = info.completed - m.created;
        (void)created;
    });
    Message m;
    m.id = net.nextMsgId();
    m.src = 0;
    m.dst = static_cast<HostId>(cfg.hostCount() - 1);
    m.length = size;
    net.sendMessage(m);
    net.loop().run();

    ASSERT_GE(measured, 0);
    // Single-packet messages match the oracle exactly. Multi-packet ones
    // can exceed it slightly: the oracle is the best case over spraying
    // choices, and an unlucky draw can queue a runt packet behind a full
    // one (~66 ns per hop); scheduled messages may also pay a one-grant
    // hiccup. Never faster than the oracle, never more than 10% + 1 us
    // slower on an idle network.
    const Duration best = oracle.bestOneWay(size);
    EXPECT_GE(measured, best);
    if (size <= static_cast<uint32_t>(kMaxPayload)) {
        EXPECT_EQ(measured, best);
    } else {
        EXPECT_LE(static_cast<double>(measured),
                  1.10 * static_cast<double>(best) + microseconds(1));
    }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, OracleVsSim,
    ::testing::Combine(::testing::Bool(),
                       ::testing::Values(1u, 64u, 100u, 500u, 1442u, 1443u,
                                         2884u, 5000u, 9000u, 20000u, 100000u,
                                         1000000u)),
    [](const auto& info) {
        return std::string(std::get<0>(info.param) ? "rack" : "fattree") +
               "_" + std::to_string(std::get<1>(info.param));
    });

}  // namespace
}  // namespace homa
