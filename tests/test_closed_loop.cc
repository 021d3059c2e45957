// Closed-loop workload tests: the outstanding-window invariant (verified
// with accounting external to the generator), stall behavior without
// deliveries, think-time pacing, ON-OFF gating, and the end-to-end
// closed-loop metrics reported by runExperiment.
#include <gtest/gtest.h>

#include <algorithm>

#include "driver/sweep.h"
#include "workload/generator.h"

namespace homa {
namespace {

// Delivers every message back after a fixed service time without
// simulating any packets: exercises the pure closed-loop control loop.
class EchoDelayTransport final : public Transport {
public:
    explicit EchoDelayTransport(HostServices& host) : host_(host) {}
    void sendMessage(const Message& m) override {
        host_.loop().after(microseconds(3), [this, m] {
            DeliveryInfo info;
            info.completed = host_.loop().now();
            notifyDelivered(m, info);
        });
    }
    void handlePacket(const Packet&) override {}

private:
    HostServices& host_;
};

// Swallows every message: nothing is ever delivered.
class SinkTransport final : public Transport {
public:
    void sendMessage(const Message&) override {}
    void handlePacket(const Packet&) override {}
};

TrafficConfig closedLoopConfig(int window, Duration think = 0,
                               bool onOff = false) {
    TrafficConfig cfg;
    cfg.workload = WorkloadId::W1;
    cfg.stop = milliseconds(2);
    cfg.scenario.kind = TrafficPatternKind::ClosedLoop;
    cfg.scenario.closedLoopWindow = window;
    cfg.scenario.thinkTime = think;
    cfg.scenario.onOff.enabled = onOff;
    return cfg;
}

struct LoopRun {
    uint64_t generated = 0;
    int maxSeen = 0;       // external per-host outstanding accounting
    int genReported = 0;   // TrafficGenerator::maxOutstanding()
};

LoopRun runLoop(const TrafficConfig& cfg) {
    Network net(NetworkConfig::singleRack16(), [](HostServices& h) {
        return std::make_unique<EchoDelayTransport>(h);
    });
    LoopRun run;
    std::vector<int> outstanding(net.hostCount(), 0);
    TrafficGenerator gen(net, cfg, [&](const Message& m) {
        outstanding[m.src]++;
        run.maxSeen = std::max(run.maxSeen, outstanding[m.src]);
    });
    net.setDeliveryCallback([&](const Message& m, const DeliveryInfo&) {
        outstanding[m.src]--;
        EXPECT_GE(outstanding[m.src], 0);
        gen.onDelivered(m);
    });
    gen.start();
    net.loop().runUntil(cfg.stop + milliseconds(1));
    run.generated = gen.generatedMessages();
    run.genReported = gen.maxOutstanding();
    return run;
}

TEST(ClosedLoop, WindowNeverExceeded) {
    const int window = 3;
    LoopRun run = runLoop(closedLoopConfig(window));
    EXPECT_GT(run.generated, 1000u);  // the loop actually turned
    EXPECT_GT(run.maxSeen, 0);
    EXPECT_LE(run.maxSeen, window);
    EXPECT_EQ(run.genReported, run.maxSeen);
}

TEST(ClosedLoop, WindowHeldUnderOnOffGating) {
    const int window = 4;
    LoopRun plain = runLoop(closedLoopConfig(window));
    LoopRun gated = runLoop(closedLoopConfig(window, 0, /*onOff=*/true));
    EXPECT_GT(gated.generated, 100u);
    EXPECT_LE(gated.maxSeen, window);
    // Idle periods must actually suppress issuing: the gated run moves
    // well fewer messages than the free-running loop (duty cycle 0.25).
    EXPECT_LT(static_cast<double>(gated.generated),
              0.7 * static_cast<double>(plain.generated));
}

TEST(ClosedLoop, StallsAtWindowWithoutDeliveries) {
    // With a transport that never delivers, each host issues exactly its
    // initial window and then waits forever.
    Network net(NetworkConfig::singleRack16(),
                [](HostServices&) { return std::make_unique<SinkTransport>(); });
    TrafficConfig cfg = closedLoopConfig(5);
    TrafficGenerator gen(net, cfg);
    gen.start();
    net.loop().runUntil(cfg.stop + milliseconds(1));
    EXPECT_EQ(gen.generatedMessages(),
              static_cast<uint64_t>(net.hostCount()) * 5u);
    EXPECT_EQ(gen.maxOutstanding(), 5);
}

TEST(ClosedLoop, ThinkTimeSlowsTheLoop) {
    LoopRun eager = runLoop(closedLoopConfig(2));
    LoopRun thoughtful = runLoop(closedLoopConfig(2, microseconds(30)));
    EXPECT_GT(thoughtful.generated, 100u);
    // Service time is 3 us; adding a mean 30 us think time must cut
    // throughput by several-fold.
    EXPECT_LT(static_cast<double>(thoughtful.generated),
              0.5 * static_cast<double>(eager.generated));
}

TEST(ClosedLoop, EndToEndExperimentReportsClosedLoopMetrics) {
    ExperimentConfig cfg;
    cfg.net = NetworkConfig::singleRack16();
    cfg.traffic.workload = WorkloadId::W1;
    cfg.traffic.stop = milliseconds(2);
    cfg.traffic.scenario.kind = TrafficPatternKind::ClosedLoop;
    cfg.traffic.scenario.closedLoopWindow = 4;
    cfg.drainGrace = milliseconds(20);
    ExperimentResult r = runExperiment(cfg);
    EXPECT_GT(r.delivered, 0u);
    EXPECT_TRUE(r.keptUp);  // bounded in-flight: the loop always keeps up
    EXPECT_GT(r.maxOutstanding, 0);
    EXPECT_LE(r.maxOutstanding, 4);
    ASSERT_TRUE(r.closedLoop);
    EXPECT_EQ(r.closedLoop->clients(), 16);
    uint64_t sum = 0;
    for (int c = 0; c < r.closedLoop->clients(); c++) {
        EXPECT_GT(r.closedLoop->client(c).completed, 0u) << "client " << c;
        sum += r.closedLoop->client(c).completed;
    }
    EXPECT_EQ(sum, r.closedLoop->totalCompleted());
    EXPECT_GT(r.closedLoop->aggregateOpsPerSec(), 0.0);
    EXPECT_GT(r.closedLoop->aggregateGbps(), 0.0);
    EXPECT_GE(r.closedLoop->latencyPercentileUs(0.99),
              r.closedLoop->latencyPercentileUs(0.50));
    EXPECT_GE(r.closedLoop->maxClientCompleted(),
              r.closedLoop->minClientCompleted());
}

TEST(ClosedLoop, OpenLoopResultsCarryNoClosedLoopTracker) {
    ExperimentConfig cfg;
    cfg.net = NetworkConfig::singleRack16();
    cfg.traffic.workload = WorkloadId::W1;
    cfg.traffic.load = 0.4;
    cfg.traffic.stop = milliseconds(1);
    ExperimentResult r = runExperiment(cfg);
    EXPECT_GT(r.delivered, 0u);
    EXPECT_FALSE(r.closedLoop);
    EXPECT_EQ(r.maxOutstanding, 0);
}

}  // namespace
}  // namespace homa
