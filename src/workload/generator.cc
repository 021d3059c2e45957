#include "workload/generator.h"

#include <cassert>
#include <cmath>

namespace homa {

TrafficGenerator::TrafficGenerator(Network& net, TrafficConfig cfg,
                                   std::function<void(const Message&)> onCreate)
    : net_(net),
      cfg_(cfg),
      dist_(workload(cfg.workload)),
      onCreate_(std::move(onCreate)) {
    Rng master(cfg_.seed);
    rngs_.reserve(net_.hostCount());
    for (int h = 0; h < net_.hostCount(); h++) rngs_.push_back(master.fork());
    perHostGenerated_.assign(net_.hostCount(), 0);
    perHostGeneratedBytes_.assign(net_.hostCount(), 0);

    if (cfg_.scenario.kind == TrafficPatternKind::TraceReplay) {
        trace_ = loadTrace(cfg_.scenario, net_.hostCount());
        return;
    }

    // The pattern's own randomness (permutation, popularity ranks) derives
    // from the master stream, after the per-host forks, so adding a pattern
    // never perturbs the per-host arrival streams of other scenarios.
    // (Keep the master-stream call order fixed: forks, then the pattern
    // seed, then any ON-OFF modulator seeds.)
    pattern_ = makeTrafficPattern(cfg_.scenario, net_.hostCount(),
                                  net_.config().hostsPerRack, master.next());

    if (closedLoop()) {
        assert(cfg_.scenario.closedLoopWindow >= 1);
        outstanding_.assign(net_.hostCount(), 0);
    } else if (dagMode()) {
        dagRoots_ = dagRootCount(cfg_.scenario.dag, net_.hostCount());
        outstanding_.assign(dagRoots_, 0);
        dag_ = std::make_unique<DagEngine>(
            cfg_.scenario.dag, &dist_, net_.hostCount(), net_.loop(),
            [this] { return net_.nextMsgId(); },
            [this](const Message& m) { emit(m); });
        dag_->setOnComplete([this](const DagTreeResult& r) {
            assert(r.root >= 0 && r.root < dagRoots_);
            assert(outstanding_[r.root] > 0);
            outstanding_[r.root]--;
            if (onTreeComplete_) onTreeComplete_(r);
            if (net_.loop().now() >= cfg_.stop) return;
            // Refill the root's slot; bounce through the event loop so the
            // next tree is not issued from inside the delivery callback.
            const HostId h = r.root;
            net_.loop().after(1, [this, h] { issueDagTree(h); });
        });
    } else {
        assert(cfg_.load > 0 && cfg_.load <= 1.5);  // >1 allowed for overload
        // load = (wire bytes/message) / (interarrival * link rate)
        //   => mean gap = meanWireBytes * psPerByte / load for weight 1.
        const double psPerByte =
            static_cast<double>(net_.config().hostLink.psPerByte);
        meanGap_ = static_cast<Duration>(
            std::llround(dist_.meanWireBytes() * psPerByte / cfg_.load));

        // Normalize weights so their sum is hostCount: the aggregate
        // arrival rate (and thus offered load) is then independent of the
        // pattern. Water-fill on top of that: a sender cannot offer more
        // than its line rate (fraction 1.0; or `load` itself when load > 1,
        // so overload experiments stay uniform overloads), so weights clamp
        // at `cap` and the excess redistributes over the unclamped hosts.
        // A no-op for patterns whose weights are all equal.
        const int n = net_.hostCount();
        const double cap = std::max(1.0, cfg_.load) / cfg_.load;
        std::vector<double> raw(n), weight(n, 0.0);
        for (HostId h = 0; h < n; h++) {
            raw[h] = pattern_->senderWeight(h);
            assert(raw[h] >= 0);
        }
        std::vector<bool> atCap(n, false);
        int clamped = 0;
        while (clamped < n) {
            double freeRaw = 0;
            for (HostId h = 0; h < n; h++) {
                if (!atCap[h]) freeRaw += raw[h];
            }
            const double budget = static_cast<double>(n) - cap * clamped;
            // Undistributable budget (every positive-weight sender capped):
            // the requested aggregate is infeasible; offer what caps allow.
            if (freeRaw <= 0 || budget <= 0) break;
            const double scale = budget / freeRaw;
            bool newlyClamped = false;
            for (HostId h = 0; h < n; h++) {
                if (atCap[h]) continue;
                if (raw[h] * scale > cap) {
                    atCap[h] = true;
                    weight[h] = cap;
                    clamped++;
                    newlyClamped = true;
                } else {
                    weight[h] = raw[h] * scale;
                }
            }
            if (!newlyClamped) break;
        }
        gaps_.assign(n, 0.0);
        for (HostId h = 0; h < n; h++) {
            gaps_[h] = weight[h] > 0 ? toSeconds(meanGap_) / weight[h] : 0.0;
        }
    }

    if (cfg_.scenario.onOff.enabled) {
        onoff_.reserve(net_.hostCount());
        for (int h = 0; h < net_.hostCount(); h++) {
            onoff_.emplace_back(cfg_.scenario.onOff, cfg_.start, master.next());
        }
    }
}

void TrafficGenerator::start() {
    if (cfg_.scenario.kind == TrafficPatternKind::TraceReplay) {
        for (const TraceRecord& rec : trace_) {
            const Time at = cfg_.start + rec.at;
            if (at >= cfg_.stop) break;  // trace_ is time-sorted
            net_.loopFor(rec.src).at(at, [this, rec] {
                Message m;
                m.id = net_.nextMsgId(rec.src);
                m.src = rec.src;
                m.dst = rec.dst;
                m.length = rec.size;
                emit(m);
            });
        }
        return;
    }
    if (closedLoop()) {
        // Prime every host's window. Slots get a small random stagger so
        // the cluster doesn't fire hostCount * W messages in lockstep at
        // t=start (ON-OFF gating, applied inside issueClosedLoop, then
        // pushes gated slots to each host's first burst).
        for (HostId h = 0; h < net_.hostCount(); h++) {
            for (int w = 0; w < cfg_.scenario.closedLoopWindow; w++) {
                const Duration jitter = static_cast<Duration>(
                    rngs_[h].uniform() * static_cast<double>(microseconds(5)));
                net_.loop().at(cfg_.start + jitter,
                               [this, h] { issueClosedLoop(h); });
            }
        }
        return;
    }
    if (dagMode()) {
        // Prime every root's tree window, staggered like closed loop.
        for (HostId h = 0; h < dagRoots_; h++) {
            for (int w = 0; w < cfg_.scenario.dag.window; w++) {
                const Duration jitter = static_cast<Duration>(
                    rngs_[h].uniform() * static_cast<double>(microseconds(5)));
                net_.loop().at(cfg_.start + jitter,
                               [this, h] { issueDagTree(h); });
            }
        }
        return;
    }
    for (HostId h = 0; h < net_.hostCount(); h++) {
        if (gaps_[h] <= 0) continue;  // pattern muted this sender
        if (!onoff_.empty()) {
            // The first arrival falls out of the ON-clock process itself
            // (advance() from the stationary initial phase), so no extra
            // phase draw is needed.
            scheduleNextModulated(h);
            continue;
        }
        // Random phase so hosts don't fire in lockstep at t=start.
        const Duration phase = exponentialDuration(rngs_[h], gaps_[h]);
        net_.loopFor(h).at(cfg_.start + phase, [this, h] { scheduleNext(h); });
    }
}

void TrafficGenerator::emit(Message m) {
    net_.sendMessage(m);
    m.created = net_.loopFor(m.src).now();
    perHostGenerated_[m.src]++;
    perHostGeneratedBytes_[m.src] += m.length;
    if (onCreate_) onCreate_(m);
}

void TrafficGenerator::scheduleNext(HostId h) {
    if (net_.loopFor(h).now() >= cfg_.stop) return;

    Message m;
    m.id = net_.nextMsgId(h);
    m.src = h;
    m.dst = pattern_->pickDestination(h, rngs_[h]);
    assert(m.dst != h);
    m.length = dist_.sample(rngs_[h]);
    emit(m);

    const Duration gap = exponentialDuration(rngs_[h], gaps_[h]);
    net_.loopFor(h).after(gap, [this, h] { scheduleNext(h); });
}

void TrafficGenerator::scheduleNextModulated(HostId h) {
    // Poisson on the host's ON-time clock: mean gap scaled down by the
    // duty cycle, so bursts run at base/duty and the average is calibrated.
    const double onGap = gaps_[h] * cfg_.scenario.onOff.dutyCycle();
    const Duration onDelay = exponentialDuration(rngs_[h], onGap);
    const Time at = onoff_[h].advance(onDelay);
    net_.loopFor(h).at(at, [this, h] {
        if (net_.loopFor(h).now() >= cfg_.stop) return;
        Message m;
        m.id = net_.nextMsgId(h);
        m.src = h;
        m.dst = pattern_->pickDestination(h, rngs_[h]);
        assert(m.dst != h);
        m.length = dist_.sample(rngs_[h]);
        emit(m);
        scheduleNextModulated(h);
    });
}

void TrafficGenerator::issueClosedLoop(HostId h) {
    if (net_.loop().now() >= cfg_.stop) return;
    if (!onoff_.empty()) {
        const Time go = onoff_[h].gate(net_.loop().now());
        if (go > net_.loop().now()) {
            net_.loop().at(go, [this, h] { issueClosedLoop(h); });
            return;
        }
    }
    Message m;
    m.id = net_.nextMsgId();
    m.src = h;
    m.dst = pattern_->pickDestination(h, rngs_[h]);
    assert(m.dst != h);
    m.length = dist_.sample(rngs_[h]);
    outstanding_[h]++;
    maxOutstanding_ = std::max(maxOutstanding_, outstanding_[h]);
    assert(outstanding_[h] <= cfg_.scenario.closedLoopWindow);
    emit(m);
}

void TrafficGenerator::issueDagTree(HostId h) {
    if (net_.loop().now() >= cfg_.stop) return;
    if (!onoff_.empty()) {
        const Time go = onoff_[h].gate(net_.loop().now());
        if (go > net_.loop().now()) {
            net_.loop().at(go, [this, h] { issueDagTree(h); });
            return;
        }
    }
    outstanding_[h]++;
    maxOutstanding_ = std::max(maxOutstanding_, outstanding_[h]);
    assert(outstanding_[h] <= cfg_.scenario.dag.window);
    dag_->issueTree(h, rngs_[h]);
}

void TrafficGenerator::setDagCost(DagCostFn cost) {
    assert(dag_);
    dag_->setCost(std::move(cost));
}

void TrafficGenerator::onDelivered(const Message& m) {
    // Closed-loop and DAG modes have zero-lookahead feedback — a delivery
    // observed on the destination's shard refills the *source's* window at
    // the same instant — so the driver always runs them single-shard, and
    // net_.loop() here is the only loop (same for issueClosedLoop and
    // issueDagTree below, plus the DagEngine's use of net_.loop()).
    if (dagMode()) {
        dag_->onDelivered(m);
        return;
    }
    if (!closedLoop()) return;
    const HostId h = m.src;
    assert(h >= 0 && h < static_cast<HostId>(outstanding_.size()));
    assert(outstanding_[h] > 0);
    outstanding_[h]--;
    if (net_.loop().now() >= cfg_.stop) return;
    // Think, then issue; always bounce through the event loop so the new
    // message is not emitted from inside the delivery callback.
    const Duration think =
        cfg_.scenario.thinkTime > 0
            ? exponentialDuration(rngs_[h], toSeconds(cfg_.scenario.thinkTime))
            : 1;
    net_.loop().after(think, [this, h] { issueClosedLoop(h); });
}

}  // namespace homa
