#include "driver/rpc_experiment.h"

#include <cassert>
#include <cmath>
#include <stdexcept>
#include <unordered_map>

namespace homa {

// Unchecked, these configs crash (an empty server pool reaches
// Rng::below(0)), never return (an open loop at load 0) or run empty.
std::string rpcExperimentConfigError(const RpcExperimentConfig& cfg) {
    const std::string topo = validateTopoConfig(cfg.net);
    if (!topo.empty()) return topo;
    if (cfg.proto.kind == Protocol::Homa) {
        const std::string homa = homaConfigError(cfg.proto.homa);
        if (!homa.empty()) return homa;
    }
    const int hosts = cfg.net.hostCount();
    if (cfg.serving.enabled()) {
        // A valid config leaves >= 1 server host and resolves its replica
        // groups.
        return validateServingConfig(cfg.serving, hosts);
    }
    if (cfg.clients < 1) return "clients must be >= 1";
    if (cfg.clients >= hosts) return "clients leave no server host";
    if (!(cfg.load > 0 && std::isfinite(cfg.load))) {
        return "open-loop load must be finite and > 0";
    }
    return "";
}

namespace {

NetworkConfig withSwitchQdisc(const RpcExperimentConfig& cfg) {
    NetworkConfig netCfg = cfg.net;
    if (!netCfg.switchQdisc) netCfg.switchQdisc = switchQdiscFor(cfg.proto);
    return netCfg;
}

// What both modes share: the network, oracle and one endpoint per host
// (hosts [0, clients) are clients, the rest servers); the per-client
// window tracker; one forked RNG stream per client; the closed-loop and
// open-loop issue schedules; and the window tallies the run closes with.
// A mode adds its own trackers, sets `issue`, starts its clients, then
// calls finish(). Scheduled events capture its address, so it neither
// copies nor moves.
struct RpcRun {
    explicit RpcRun(const RpcExperimentConfig& config)
        : cfg(config),
          // Transport factories key unscheduled-priority cutoffs off one
          // size distribution. Serving uses the first tenant's (cutoff
          // tuning, not correctness — every tenant's traffic still flows).
          dist(workload(config.serving.enabled()
                            ? config.serving.tenants[0].workload
                            : config.workload)),
          netCfg(withSwitchQdisc(config)),
          net(netCfg, makeTransportFactory(config.proto, netCfg, &dist)),
          oracle(netCfg),
          clients(config.serving.enabled() ? config.serving.totalClients()
                                           : config.clients),
          servers(net.hostCount() - clients),
          windowStart(static_cast<Time>(config.warmupFraction *
                                        static_cast<double>(config.stop))) {
        for (HostId h = 0; h < net.hostCount(); h++) {
            endpoints.push_back(std::make_unique<RpcEndpoint>(net, h));
        }
        result.perClient =
            std::make_unique<ClosedLoopTracker>(clients, windowStart, cfg.stop);
        Rng master(cfg.seed);
        for (int c = 0; c < clients; c++) rngs.push_back(master.fork());
    }
    RpcRun(const RpcRun&) = delete;
    RpcRun& operator=(const RpcRun&) = delete;

    // Prime client c's closed-loop window; a small stagger keeps
    // clients * W calls from firing in lockstep at t=0.
    void primeWindow(int c, int window) {
        for (int w = 0; w < window; w++) {
            const Duration jitter = static_cast<Duration>(
                rngs[c].uniform() * static_cast<double>(microseconds(5)));
            net.loop().at(jitter, [this, c] { issue(c); });
        }
    }

    // Closed loop: refill client c's freed slot after an exponential think
    // time of mean `think` (1 ps when `think` <= 0).
    void refill(int c, Duration think) {
        const Duration gap =
            think <= 0 ? 1 : exponentialDuration(rngs[c], toSeconds(think));
        net.loop().after(gap, [this, c] { issue(c); });
    }

    // Open loop: schedule client c's next Poisson arrival at `meanGap`.
    void scheduleArrival(int c, Duration meanGap) {
        const Duration gap = exponentialDuration(rngs[c], toSeconds(meanGap));
        net.loop().after(gap, [this, c] { issue(c); });
    }

    // Runs to stop + drainGrace, lets the mode close its own books, then
    // tallies the window and the endpoints' retries.
    RpcExperimentResult finish(const std::function<void()>& closeBooks = {}) {
        // Single-shard: the harness orchestrates every client from one
        // loop and draws RpcIds from the global id stream. Equivalent to
        // net.loop().runUntil, routed through the engine entry for
        // uniformity.
        runNetworkUntil(net, cfg.stop + cfg.drainGrace);
        if (closeBooks) closeBooks();
        result.issued = issuedInWindow;
        result.completed = completedInWindow;
        for (const auto& ep : endpoints) {
            result.retries += ep->stats().retries;
            result.reexecutions += ep->stats().reexecutions;
        }
        result.keptUp = issuedInWindow > 0 &&
                        static_cast<double>(completedInWindow) >=
                            0.99 * static_cast<double>(issuedInWindow);
        return std::move(result);
    }

    const RpcExperimentConfig& cfg;
    const SizeDistribution& dist;
    const NetworkConfig netCfg;
    Network net;
    Oracle oracle;
    const int clients;
    const int servers;
    const Time windowStart;
    std::vector<std::unique_ptr<RpcEndpoint>> endpoints;
    RpcExperimentResult result;
    std::vector<Rng> rngs;
    std::function<void(int)> issue;  // the mode's issue
    uint64_t issuedInWindow = 0;
    uint64_t completedInWindow = 0;
};

// Multi-tenant serving: tenants issue logical RPCs against replica groups
// through a ReplicaSelector; groups may hedge (re-issue to a second
// replica once an RPC outlives the tenant's observed latency percentile,
// first response wins, loser cancelled). The harness tracks every call's
// lifecycle in the ServingStats ledgers so the invariant tests can prove
// conservation: exactly one response consumed per logical RPC, every
// issued byte consumed, refunded, or declared unresolved at run end.
RpcExperimentResult runServing(RpcRun& run) {
    const RpcExperimentConfig& cfg = run.cfg;
    const ServingConfig& sv = cfg.serving;
    EventLoop& loop = run.net.loop();
    const OracleFn echo = run.oracle.echoRpcFn();

    const int nTenants = static_cast<int>(sv.tenants.size());
    const int nClients = run.clients;

    const std::vector<ReplicaGroupConfig> groups = sv.effectiveGroups();
    std::vector<ResolvedGroup> resolved;
    resolveReplicaGroups(sv, run.servers, resolved, nullptr);

    RpcExperimentResult& result = run.result;
    result.tenants = std::make_unique<TenantTracker>(nTenants, run.windowStart,
                                                     cfg.stop);
    ServingStats& led = result.serving;

    // Per-tenant shape: group, selector, arrival rate.
    struct TenantState {
        const SizeDistribution* dist = nullptr;
        int groupIdx = 0;
        uint64_t seq = 0;  // logical-RPC sequence; feeds the selector
        // Observed latencies arm the hedge delay (whole run, not
        // window-gated: the hedge needs samples before the window opens).
        Samples latency;  // microseconds
        Duration hedgeDelay = 0;
        int sinceRecalc = 0;
        Duration meanGap = 0;  // open mode
    };
    std::vector<TenantState> ts(static_cast<size_t>(nTenants));
    std::vector<ReplicaSelector> selectors;
    selectors.reserve(static_cast<size_t>(nTenants));
    std::vector<int> clientTenant(static_cast<size_t>(nClients));
    const double psPerByte = static_cast<double>(run.netCfg.hostLink.psPerByte);
    {
        int nextClient = 0;
        for (int t = 0; t < nTenants; t++) {
            const TenantConfig& tc = sv.tenants[t];
            ts[t].dist = &workload(tc.workload);
            ts[t].groupIdx = tenantGroupIndex(sv, tc);
            assert(ts[t].groupIdx >= 0);
            if (tc.mode == ArrivalMode::Open) {
                ts[t].meanGap = static_cast<Duration>(std::llround(
                    ts[t].dist->meanWireBytes() * psPerByte / tc.load));
            }
            selectors.emplace_back(groups[ts[t].groupIdx].policy,
                                   resolved[ts[t].groupIdx].count, cfg.seed, t);
            for (int c = 0; c < tc.clients; c++) clientTenant[nextClient++] = t;
        }
        assert(nextClient == nClients);
    }

    // Outstanding-call depth per server host, fed to power-of-two-choices.
    std::vector<int> depth(static_cast<size_t>(run.net.hostCount()), 0);

    // One logical RPC: a primary call plus at most one hedge, first
    // response wins. Callbacks carry (logicalId, slot) by capture, so no
    // reverse map is needed; a cancelled call's callback never fires.
    struct CallSlot {
        RpcId id = 0;
        HostId server = 0;
        bool open = false;  // issued, neither consumed nor cancelled
    };
    struct Logical {
        int tenant = 0;
        int client = 0;
        uint32_t size = 0;
        Time issuedAt = 0;
        bool inWindow = false;
        CallSlot calls[2];  // [0] primary, [1] hedge
        bool hedged = false;
    };
    std::unordered_map<uint64_t, Logical> active;
    uint64_t nextLogical = 1;

    auto hedgeArmed = [&](int t) -> bool {
        const ReplicaGroupConfig& g = groups[ts[t].groupIdx];
        return g.hedging() &&
               ts[t].latency.count() >= static_cast<size_t>(g.hedgeMinSamples);
    };
    auto hedgeDelayFor = [&](int t) -> Duration {
        TenantState& s = ts[t];
        const ReplicaGroupConfig& g = groups[s.groupIdx];
        // Recompute the cached percentile every 64 completions. A refresh
        // merges only the latencies added since the last one into Samples'
        // sorted prefix. The cadence decides when every hedge timer fires,
        // which the serving goldens pin, so it stays fixed.
        if (s.hedgeDelay == 0 || s.sinceRecalc >= 64) {
            const Duration p = static_cast<Duration>(std::llround(
                s.latency.percentile(g.hedgePercentile) *
                static_cast<double>(microseconds(1))));
            s.hedgeDelay = std::max(g.hedgeFloor, p);
            s.sinceRecalc = 0;
        }
        return s.hedgeDelay;
    };

    std::function<void(RpcId, uint64_t, int, uint32_t, Duration)> onResponse;

    auto issueCall = [&](uint64_t logicalId, int slot, HostId server) {
        Logical& lg = active[logicalId];
        const RpcId id = run.endpoints[lg.client]->call(
            server, lg.size,
            [&, logicalId, slot](RpcId rid, uint32_t, uint32_t respSize,
                                 Duration elapsed) {
                onResponse(rid, logicalId, slot, respSize, elapsed);
            });
        lg.calls[slot] = CallSlot{id, server, true};
        depth[server]++;
        led.callsIssued++;
        led.issuedBytes += 2 * static_cast<int64_t>(lg.size);
    };

    auto issueHedge = [&](uint64_t logicalId, uint64_t seq) {
        const auto it = active.find(logicalId);
        if (it == active.end()) return;  // already resolved; stale timer
        Logical& lg = it->second;
        if (lg.hedged) return;
        if (loop.now() >= cfg.stop) return;  // no new work in drain
        const int t = lg.tenant;
        const ResolvedGroup& rg = resolved[ts[t].groupIdx];
        const int primaryLocal =
            static_cast<int>(lg.calls[0].server) - nClients - rg.first;
        const int replica = selectors[t].pickHedge(seq, primaryLocal);
        lg.hedged = true;
        led.hedgesIssued++;
        result.tenants->recordHedgeIssued(t);
        issueCall(logicalId, 1,
                  static_cast<HostId>(nClients + rg.first + replica));
    };

    onResponse = [&](RpcId, uint64_t logicalId, int slot, uint32_t respSize,
                     Duration /*callElapsed*/) {
        // The winner cancels the loser synchronously below, so the loser's
        // callback never fires: this is structurally the only response a
        // logical RPC consumes.
        const auto it = active.find(logicalId);
        assert(it != active.end());
        Logical& lg = it->second;
        const int t = lg.tenant;
        const Time now = loop.now();
        lg.calls[slot].open = false;
        depth[lg.calls[slot].server]--;
        led.responsesConsumed++;
        led.logicalCompleted++;
        led.consumedBytes += static_cast<int64_t>(lg.size) + respSize;
        if (slot == 1) {
            led.hedgesWon++;
            result.tenants->recordHedgeWon(t);
        }
        // Cancel the losing sibling (primary when the hedge won, hedge
        // when the primary won). A false return means the endpoint had
        // already aborted it after max retries; its bytes then resolve at
        // run end, not here — and the endpoint's own `cancelled` counter
        // stays equal to ours.
        const int other = 1 - slot;
        if (lg.calls[other].open) {
            lg.calls[other].open = false;
            depth[lg.calls[other].server]--;
            if (run.endpoints[lg.client]->cancel(lg.calls[other].id)) {
                led.refundedBytes += 2 * static_cast<int64_t>(lg.size);
                if (other == 1) {
                    led.hedgesCancelled++;
                    result.tenants->recordHedgeCancelled(t);
                } else {
                    led.primariesCancelled++;
                }
            } else {
                led.unresolvedBytes += 2 * static_cast<int64_t>(lg.size);
                if (other == 1) {
                    led.hedgesFailed++;
                    result.tenants->recordHedgeFailed(t);
                }
            }
        }
        // Latency measured from logical issue (a winning hedge includes
        // the hedge delay — that *is* the tail the tenant observes).
        const Duration logicalElapsed = now - lg.issuedAt;
        const double us = toMicros(logicalElapsed);
        ts[t].latency.add(us);
        ts[t].sinceRecalc++;
        const double best = static_cast<double>(echo(lg.size));
        const double sd =
            best > 0 ? static_cast<double>(logicalElapsed) / best : 0;
        result.tenants->record(t, static_cast<int64_t>(lg.size) + respSize,
                               logicalElapsed, sd, now);
        result.perClient->record(lg.client,
                                 static_cast<int64_t>(lg.size) + respSize,
                                 logicalElapsed, now);
        if (lg.inWindow) run.completedInWindow++;
        const int client = lg.client;
        const bool closed = sv.tenants[t].mode == ArrivalMode::Closed;
        active.erase(it);
        if (closed) run.refill(client, sv.tenants[t].think);
    };

    run.issue = [&](int c) {
        if (loop.now() >= cfg.stop) return;
        const int t = clientTenant[c];
        TenantState& s = ts[t];
        const ResolvedGroup& rg = resolved[s.groupIdx];
        const uint64_t seq = s.seq++;
        const uint32_t size = s.dist->sample(run.rngs[c]);
        const int replica = selectors[t].pick(seq, [&](int r) {
            return depth[static_cast<size_t>(nClients + rg.first + r)];
        });
        const HostId server = static_cast<HostId>(nClients + rg.first + replica);

        const uint64_t logicalId = nextLogical++;
        Logical lg;
        lg.tenant = t;
        lg.client = c;
        lg.size = size;
        lg.issuedAt = loop.now();
        lg.inWindow = lg.issuedAt >= run.windowStart;
        if (lg.inWindow) run.issuedInWindow++;
        active.emplace(logicalId, lg);
        led.logicalIssued++;
        issueCall(logicalId, 0, server);
        if (hedgeArmed(t)) {
            loop.after(hedgeDelayFor(t),
                       [&, logicalId, seq] { issueHedge(logicalId, seq); });
        }

        if (sv.tenants[t].mode == ArrivalMode::Open) {
            run.scheduleArrival(c, s.meanGap);
        }
        // Closed mode: onResponse refills the slot.
    };

    for (int c = 0; c < nClients; c++) {
        const TenantConfig& tc = sv.tenants[clientTenant[c]];
        if (tc.mode == ArrivalMode::Closed) {
            run.primeWindow(c, tc.window);
        } else {
            run.scheduleArrival(c, ts[clientTenant[c]].meanGap);
        }
    }

    // Close the ledgers: whatever is still active never resolved. Each of
    // its open calls parks its bytes in `unresolvedBytes`; an issued,
    // still-open hedge is a failed hedge (neither won nor cancelled).
    return run.finish([&] {
        for (auto& [id, lg] : active) {
            (void)id;
            for (int slot = 0; slot < 2; slot++) {
                if (!lg.calls[slot].open) continue;
                led.unresolvedBytes += 2 * static_cast<int64_t>(lg.size);
            }
            if (lg.hedged && lg.calls[1].open) {
                led.hedgesFailed++;
                result.tenants->recordHedgeFailed(lg.tenant);
            }
        }
    });
}

// Echo RPCs (§5.1): each client sends `size` bytes to a random server,
// which returns them, at Poisson arrivals calibrated to `load`.
RpcExperimentResult runEcho(RpcRun& run) {
    const RpcExperimentConfig& cfg = run.cfg;
    const SizeDistribution& dist = run.dist;
    EventLoop& loop = run.net.loop();
    run.result.slowdown =
        std::make_unique<SlowdownTracker>(dist, run.oracle.echoRpcFn());

    // Each client's uplink carries `load` of its bandwidth in requests (and
    // symmetric responses on its downlink), matching §5.1's calibration.
    const double psPerByte = static_cast<double>(run.netCfg.hostLink.psPerByte);
    const Duration meanGap = static_cast<Duration>(
        std::llround(dist.meanWireBytes() * psPerByte / cfg.load));

    run.issue = [&](int c) {
        if (loop.now() >= cfg.stop) return;
        Rng& rng = run.rngs[c];
        const uint32_t size = dist.sample(rng);
        const HostId server =
            static_cast<HostId>(cfg.clients + rng.below(run.servers));
        const Time issuedAt = loop.now();
        const bool inWindow = issuedAt >= run.windowStart;
        if (inWindow) run.issuedInWindow++;
        run.endpoints[c]->call(
            server, size,
            [&, c, inWindow](RpcId, uint32_t reqSize, uint32_t respSize,
                             Duration elapsed) {
                run.result.perClient->record(c, reqSize + respSize, elapsed,
                                             loop.now());
                if (inWindow) {
                    run.completedInWindow++;
                    run.result.slowdown->record(reqSize, elapsed);
                }
            });
        run.scheduleArrival(c, meanGap);
    };
    for (int c = 0; c < cfg.clients; c++) run.scheduleArrival(c, meanGap);

    return run.finish();
}

}  // namespace

RpcExperimentResult runRpcExperiment(const RpcExperimentConfig& cfg) {
    // Checked before anything is built, in every build type.
    const std::string invalid = rpcExperimentConfigError(cfg);
    if (!invalid.empty()) {
        throw std::invalid_argument("runRpcExperiment: " + invalid);
    }
    RpcRun run(cfg);
    if (cfg.serving.enabled()) return runServing(run);
    return runEcho(run);
}

IncastResult runIncastExperiment(int concurrent, bool incastControl,
                                 uint32_t responseBytes, int totalRpcs,
                                 uint64_t seed) {
    NetworkConfig netCfg = NetworkConfig::singleRack16();
    ProtocolConfig proto;
    proto.homa.incastControl = incastControl;
    netCfg.switchQdisc = [] {
        // Finite switch buffers so that un-controlled incast actually drops
        // packets (the effect Figure 10 demonstrates). 2 MB per port is
        // representative of a shallow-buffered 10G TOR: it holds ~200
        // un-controlled 10KB responses, or several thousand incast-capped
        // (~320B unscheduled) ones.
        StrictPriorityOptions o;
        o.capBytes = 2 << 20;
        return std::make_unique<StrictPriorityQdisc>(o);
    };
    const SizeDistribution& dist = workload(WorkloadId::W3);  // unused sizes
    Network net(netCfg, makeTransportFactory(proto, netCfg, &dist));

    std::vector<std::unique_ptr<RpcEndpoint>> endpoints;
    for (HostId h = 0; h < net.hostCount(); h++) {
        endpoints.push_back(std::make_unique<RpcEndpoint>(net, h));
        endpoints.back()->setHandler(
            [responseBytes](const Message&) { return responseBytes; });
    }
    // The experiment *creates* the incast deliberately; let the mechanism,
    // not the client-side cap, decide (threshold stays at the default 25).

    if (totalRpcs <= 0) totalRpcs = std::max(4 * concurrent, 2000);

    Rng rng(seed);
    IncastResult result;
    int issued = 0;
    Time firstIssue = -1, lastResponse = 0;
    int64_t receivedBytes = 0;

    std::function<void()> issueOne = [&] {
        if (issued >= totalRpcs) return;
        issued++;
        const HostId server = static_cast<HostId>(1 + rng.below(15));
        if (firstIssue < 0) firstIssue = net.loop().now();
        endpoints[0]->call(server, 32,
                           [&](RpcId, uint32_t, uint32_t respSize, Duration) {
                               receivedBytes += respSize;
                               result.completed++;
                               lastResponse = net.loop().now();
                               issueOne();  // keep `concurrent` outstanding
                           });
    };
    for (int i = 0; i < concurrent; i++) issueOne();

    net.loop().run();

    result.retries = endpoints[0]->stats().retries;
    const Duration elapsed = lastResponse - firstIssue;
    if (elapsed > 0) {
        result.throughputGbps = static_cast<double>(receivedBytes) * 8.0 /
                                (toSeconds(elapsed) * 1e9);
    }
    return result;
}

}  // namespace homa
