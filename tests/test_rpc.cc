// RPC layer: echo semantics, at-least-once recovery, incast marking.
#include <gtest/gtest.h>

#include <stdexcept>

#include "core/rpc.h"
#include "workload/workloads.h"

namespace homa {
namespace {

struct Cluster {
    NetworkConfig cfg = NetworkConfig::singleRack16();
    std::unique_ptr<Network> net;
    std::vector<std::unique_ptr<RpcEndpoint>> eps;

    explicit Cluster(HomaConfig homa = {}) {
        net = std::make_unique<Network>(
            cfg, HomaTransport::factory(homa, cfg, &workload(WorkloadId::W3)));
        for (HostId h = 0; h < net->hostCount(); h++) {
            eps.push_back(std::make_unique<RpcEndpoint>(*net, h));
        }
    }
};

TEST(Rpc, EchoRoundTrip) {
    Cluster c;
    uint32_t gotReq = 0, gotResp = 0;
    Duration elapsed = -1;
    c.eps[0]->call(5, 1000, [&](RpcId, uint32_t req, uint32_t resp, Duration d) {
        gotReq = req;
        gotResp = resp;
        elapsed = d;
    });
    c.net->loop().run();
    EXPECT_EQ(gotReq, 1000u);
    EXPECT_EQ(gotResp, 1000u);  // default handler echoes
    EXPECT_GT(elapsed, 0);
    EXPECT_EQ(c.eps[0]->stats().completed, 1u);
    EXPECT_EQ(c.eps[0]->outstanding(), 0u);
}

TEST(Rpc, CustomHandlerControlsResponseSize) {
    Cluster c;
    c.eps[7]->setHandler([](const Message&) { return 4242u; });
    uint32_t gotResp = 0;
    c.eps[0]->call(7, 100, [&](RpcId, uint32_t, uint32_t resp, Duration) {
        gotResp = resp;
    });
    c.net->loop().run();
    EXPECT_EQ(gotResp, 4242u);
}

TEST(Rpc, ManyConcurrentRpcsAllComplete) {
    Cluster c;
    int completed = 0;
    Rng rng(3);
    for (int i = 0; i < 200; i++) {
        const HostId client = static_cast<HostId>(rng.below(8));
        const HostId server = static_cast<HostId>(8 + rng.below(8));
        c.eps[client]->call(server, 1 + static_cast<uint32_t>(rng.below(20000)),
                            [&](RpcId, uint32_t, uint32_t, Duration) {
                                completed++;
                            });
    }
    c.net->loop().run();
    EXPECT_EQ(completed, 200);
}

TEST(Rpc, ConcurrentRpcsToSameServerCompleteInAnyOrder) {
    // §3.1: a client may have many outstanding RPCs to one server; SRPT
    // means a later small RPC overtakes an earlier big one.
    Cluster c;
    std::vector<uint32_t> completionOrder;
    c.eps[0]->call(5, 2'000'000, [&](RpcId, uint32_t req, uint32_t, Duration) {
        completionOrder.push_back(req);
    });
    c.eps[0]->call(5, 300, [&](RpcId, uint32_t req, uint32_t, Duration) {
        completionOrder.push_back(req);
    });
    c.net->loop().run();
    ASSERT_EQ(completionOrder.size(), 2u);
    EXPECT_EQ(completionOrder[0], 300u);
    EXPECT_EQ(completionOrder[1], 2'000'000u);
}

TEST(Rpc, IncastMarkSetBeyondThreshold) {
    Cluster c;
    c.eps[0]->setIncastThreshold(5);
    // Fire 8 RPCs back-to-back; the 6th onward must carry the mark, which
    // caps the response's unscheduled bytes. We detect it indirectly: all
    // complete, and the endpoint saw > threshold outstanding.
    int completed = 0;
    for (int i = 0; i < 8; i++) {
        c.eps[0]->call(static_cast<HostId>(1 + i), 100,
                       [&](RpcId, uint32_t, uint32_t, Duration) { completed++; });
    }
    EXPECT_EQ(c.eps[0]->outstanding(), 8u);
    c.net->loop().run();
    EXPECT_EQ(completed, 8);
}

TEST(Rpc, LostResponseRecoveredViaResend) {
    // Drop-prone network: tiny switch buffers force real loss; the RPC
    // layer must still complete every call (possibly via retries).
    NetworkConfig cfg = NetworkConfig::singleRack16();
    cfg.switchQdisc = [] {
        StrictPriorityOptions o;
        o.capBytes = 64 * 1500;  // small enough to drop under fan-in
        return std::make_unique<StrictPriorityQdisc>(o);
    };
    Network net(cfg, HomaTransport::factory({}, cfg, &workload(WorkloadId::W3)));
    std::vector<std::unique_ptr<RpcEndpoint>> eps;
    for (HostId h = 0; h < net.hostCount(); h++) {
        eps.push_back(std::make_unique<RpcEndpoint>(net, h));
        eps.back()->setHandler([](const Message&) { return 40000u; });
    }
    int completed = 0;
    for (int s = 1; s <= 15; s++) {
        for (int k = 0; k < 4; k++) {
            eps[0]->call(static_cast<HostId>(s), 64,
                         [&](RpcId, uint32_t, uint32_t, Duration) {
                             completed++;
                         });
        }
    }
    net.loop().run();
    EXPECT_EQ(completed, 60);
}

TEST(Rpc, RejectedCallRecordsNothing) {
    Cluster c;
    // Zero bytes, an unknown server, and a call to oneself never reach a
    // transport, so they leave no pending RPC for the timeout scan.
    EXPECT_THROW(c.eps[0]->call(5, 0, nullptr), std::invalid_argument);
    EXPECT_THROW(c.eps[0]->call(16, 100, nullptr), std::invalid_argument);
    EXPECT_THROW(c.eps[0]->call(0, 100, nullptr), std::invalid_argument);
    EXPECT_EQ(c.eps[0]->outstanding(), 0u);
    EXPECT_EQ(c.eps[0]->stats().issued, 0u);
    c.net->loop().run();
    EXPECT_EQ(c.eps[0]->stats().retries, 0u);
}

TEST(Rpc, ResponseIdEncoding) {
    EXPECT_TRUE(isResponseId(5ull | kRpcResponseBit));
    EXPECT_FALSE(isResponseId(5ull));
    EXPECT_EQ(requestIdOf(5ull | kRpcResponseBit), 5ull);
}

TEST(Rpc, StatsTrackIssuedAndCompleted) {
    Cluster c;
    for (int i = 0; i < 10; i++) {
        c.eps[2]->call(9, 500, [](RpcId, uint32_t, uint32_t, Duration) {});
    }
    c.net->loop().run();
    EXPECT_EQ(c.eps[2]->stats().issued, 10u);
    EXPECT_EQ(c.eps[2]->stats().completed, 10u);
    EXPECT_EQ(c.eps[2]->stats().aborted, 0u);
}

}  // namespace
}  // namespace homa
