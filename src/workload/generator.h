// Traffic generation (§5.2 methodology), scenario-aware.
//
// Three arrival modes, selected by the scenario:
//  * Open loop (the paper): each host creates one-way messages according
//    to a Poisson process; sizes come from the chosen workload;
//    destinations and per-host rate weights come from the scenario's
//    `TrafficPattern` (uniform by default). Arrival rates are calibrated
//    so the aggregate offered load is the requested fraction of total
//    host-link bandwidth, counting on-the-wire bytes — weights are
//    normalized, so the aggregate is pattern-independent. With
//    `ScenarioConfig::onOff` enabled, each host's Poisson process runs on
//    its ON-time clock at rate base/dutyCycle: bursts transmit well above
//    the average rate, idle periods are silent, and the long-run offered
//    load stays calibrated.
//  * Closed loop (`TrafficPatternKind::ClosedLoop`): each host keeps a
//    window of `closedLoopWindow` messages outstanding and issues the
//    next one only when the driver reports a delivery via `onDelivered()`
//    (optional exponential think time; ON-OFF gates issue times). Offered
//    load is endogenous — `TrafficConfig::load` is ignored.
//  * Trace replay: bypasses the Poisson process and replays an explicit
//    (time, src, dst, size) schedule.
//
// `TrafficPatternKind::Dag` is closed-loop over *trees*: each root host
// keeps `ScenarioConfig::dag.window` fan-out/fan-in request trees
// outstanding (see workload/rpc_dag.h), the per-message cascade is driven
// by `onDelivered()`, and a completed tree refills the root's window
// (ON-OFF gates tree issues exactly like closed-loop message issues).
#pragma once

#include <functional>

#include "sim/network.h"
#include "workload/rpc_dag.h"
#include "workload/scenario.h"
#include "workload/workloads.h"

namespace homa {

struct TrafficConfig {
    WorkloadId workload = WorkloadId::W3;
    double load = 0.8;        // fraction of aggregate host-link bandwidth
    uint64_t seed = 99;
    Time start = 0;
    Time stop = milliseconds(10);  // stop *generating* at this time
    ScenarioConfig scenario;
};

class TrafficGenerator {
public:
    /// `onCreate` (optional) observes every generated message.
    TrafficGenerator(Network& net, TrafficConfig cfg,
                     std::function<void(const Message&)> onCreate = nullptr);

    /// Schedule the generation processes on the network's event loop.
    void start();

    /// Closed-loop feed: the driver calls this for every delivered
    /// message (a no-op in open-loop and trace modes). The source host's
    /// window frees a slot and, before `stop`, the next message is issued
    /// after the optional think time (and ON-OFF gating).
    void onDelivered(const Message& m);

    /// Totals, summed over hosts; call after the run (the per-host cells
    /// are written from each source host's shard while it runs).
    uint64_t generatedMessages() const {
        uint64_t n = 0;
        for (uint64_t v : perHostGenerated_) n += v;
        return n;
    }
    int64_t generatedBytes() const {
        int64_t n = 0;
        for (int64_t v : perHostGeneratedBytes_) n += v;
        return n;
    }

    /// Closed loop: the highest outstanding count any host ever reached
    /// (never exceeds `closedLoopWindow` — tested invariant). Dag mode:
    /// the analogous peak count of outstanding *trees*. 0 otherwise.
    int maxOutstanding() const { return maxOutstanding_; }

    /// Dag mode only (null otherwise): the tree orchestrator, exposed for
    /// the fan-in semantics tests.
    const DagEngine* dag() const { return dag_.get(); }

    /// Dag mode: inject the unloaded-edge cost used for per-tree slowdown
    /// (the driver wraps its Oracle). Call before start().
    void setDagCost(DagCostFn cost);

    /// Dag mode: observe every completed tree (after the generator's own
    /// window refill accounting). Call before start().
    void setOnTreeComplete(std::function<void(const DagTreeResult&)> fn) {
        onTreeComplete_ = std::move(fn);
    }

private:
    bool closedLoop() const {
        return cfg_.scenario.kind == TrafficPatternKind::ClosedLoop;
    }
    bool dagMode() const {
        return cfg_.scenario.kind == TrafficPatternKind::Dag;
    }
    void scheduleNext(HostId h);           // open loop, unmodulated
    void scheduleNextModulated(HostId h);  // open loop, ON-OFF
    void issueClosedLoop(HostId h);        // closed loop (applies gating)
    void issueDagTree(HostId h);           // dag (applies gating)
    void emit(Message m);

    Network& net_;
    TrafficConfig cfg_;
    const SizeDistribution& dist_;
    std::function<void(const Message&)> onCreate_;
    std::unique_ptr<TrafficPattern> pattern_;
    std::vector<double> gaps_;       // per-host mean interarrival (0 = mute)
    std::vector<TraceRecord> trace_;
    Duration meanGap_ = 0;
    std::vector<Rng> rngs_;  // one independent stream per host
    std::vector<OnOffModulator> onoff_;  // one per host when enabled
    std::vector<int> outstanding_;       // closed loop/dag: in-flight per host
    std::unique_ptr<DagEngine> dag_;     // dag mode only
    std::function<void(const DagTreeResult&)> onTreeComplete_;
    int dagRoots_ = 0;                   // dag mode: hosts [0, dagRoots_)
    int maxOutstanding_ = 0;
    // Cell h is only touched by host h's shard (emit runs on the source
    // host's loop), so open-loop generation needs no synchronization.
    std::vector<uint64_t> perHostGenerated_;
    std::vector<int64_t> perHostGeneratedBytes_;
};

}  // namespace homa
