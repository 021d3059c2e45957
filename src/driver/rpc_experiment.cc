#include "driver/rpc_experiment.h"

#include <cassert>
#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <unordered_map>

namespace homa {

namespace {

// Multi-tenant serving: tenants issue logical RPCs against replica groups
// through a ReplicaSelector; groups may hedge (re-issue to a second
// replica once an RPC outlives the tenant's observed latency percentile,
// first response wins, loser cancelled). The harness tracks every call's
// lifecycle in the ServingStats ledgers so the invariant tests can prove
// conservation: exactly one response consumed per logical RPC, every
// issued byte consumed, refunded, or declared unresolved at run end.
RpcExperimentResult runRpcServingExperiment(const RpcExperimentConfig& cfg) {
    const ServingConfig& sv = cfg.serving;
    // Checked before anything is built, in every build type. A valid
    // config leaves >= 1 server host and resolves its replica groups.
    const std::string invalid = validateServingConfig(sv, cfg.net.hostCount());
    if (!invalid.empty()) {
        throw std::invalid_argument("runRpcExperiment: " + invalid);
    }
    NetworkConfig netCfg = cfg.net;
    if (!netCfg.switchQdisc) netCfg.switchQdisc = switchQdiscFor(cfg.proto);
    // Transport factories key unscheduled-priority cutoffs off one size
    // distribution; use the first tenant's (cutoff tuning, not
    // correctness — every tenant's traffic still flows).
    const SizeDistribution& primaryDist = workload(sv.tenants[0].workload);
    Network net(netCfg, makeTransportFactory(cfg.proto, netCfg, &primaryDist));
    Oracle oracle(netCfg);
    const OracleFn echo = oracle.echoRpcFn();

    const int nTenants = static_cast<int>(sv.tenants.size());
    const int nClients = sv.totalClients();
    const int servers = net.hostCount() - nClients;

    const std::vector<ReplicaGroupConfig> groups = sv.effectiveGroups();
    std::vector<ResolvedGroup> resolved;
    resolveReplicaGroups(sv, servers, resolved, nullptr);

    std::vector<std::unique_ptr<RpcEndpoint>> endpoints;
    for (HostId h = 0; h < net.hostCount(); h++) {
        endpoints.push_back(std::make_unique<RpcEndpoint>(net, h));
    }

    RpcExperimentResult result;
    const Time windowStart = static_cast<Time>(
        cfg.warmupFraction * static_cast<double>(cfg.stop));
    result.perClient = std::make_unique<ClosedLoopTracker>(
        nClients, windowStart, cfg.stop);
    result.tenants = std::make_unique<TenantTracker>(nTenants, windowStart,
                                                     cfg.stop);
    ServingStats& led = result.serving;

    // Per-tenant shape: owned client range, group, selector, arrival rate.
    struct TenantState {
        const SizeDistribution* dist = nullptr;
        int firstClient = 0;
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
    const double psPerByte = static_cast<double>(netCfg.hostLink.psPerByte);
    {
        int nextClient = 0;
        for (int t = 0; t < nTenants; t++) {
            const TenantConfig& tc = sv.tenants[t];
            ts[t].dist = &workload(tc.workload);
            ts[t].firstClient = nextClient;
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
    std::vector<int> depth(static_cast<size_t>(net.hostCount()), 0);

    Rng master(cfg.seed);
    std::vector<Rng> rngs;
    for (int c = 0; c < nClients; c++) rngs.push_back(master.fork());

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
    uint64_t issuedInWindow = 0;
    uint64_t completedInWindow = 0;

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

    std::function<void(int)> issueNext;
    std::function<void(RpcId, uint64_t, int, uint32_t, Duration)> onResponse;

    auto issueCall = [&](uint64_t logicalId, int slot, HostId server) {
        Logical& lg = active[logicalId];
        const RpcId id = endpoints[lg.client]->call(
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
        if (net.loop().now() >= cfg.stop) return;  // no new work in drain
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
        const Time now = net.loop().now();
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
            if (endpoints[lg.client]->cancel(lg.calls[other].id)) {
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
        if (lg.inWindow) completedInWindow++;
        const int client = lg.client;
        const bool closed = sv.tenants[t].mode == ArrivalMode::Closed;
        active.erase(it);
        if (closed) {
            const TenantConfig& tc = sv.tenants[t];
            const Duration gap =
                tc.think <= 0
                    ? 1
                    : exponentialDuration(rngs[client], toSeconds(tc.think));
            net.loop().after(gap, [&, client] { issueNext(client); });
        }
    };

    issueNext = [&](int c) {
        if (net.loop().now() >= cfg.stop) return;
        const int t = clientTenant[c];
        TenantState& s = ts[t];
        const ResolvedGroup& rg = resolved[s.groupIdx];
        const uint64_t seq = s.seq++;
        const uint32_t size = s.dist->sample(rngs[c]);
        const int replica = selectors[t].pick(seq, [&](int r) {
            return depth[static_cast<size_t>(nClients + rg.first + r)];
        });
        const HostId server = static_cast<HostId>(nClients + rg.first + replica);

        const uint64_t logicalId = nextLogical++;
        Logical lg;
        lg.tenant = t;
        lg.client = c;
        lg.size = size;
        lg.issuedAt = net.loop().now();
        lg.inWindow = lg.issuedAt >= windowStart;
        if (lg.inWindow) issuedInWindow++;
        active.emplace(logicalId, lg);
        led.logicalIssued++;
        issueCall(logicalId, 0, server);
        if (hedgeArmed(t)) {
            net.loop().after(hedgeDelayFor(t),
                             [&, logicalId, seq] { issueHedge(logicalId, seq); });
        }

        if (sv.tenants[t].mode == ArrivalMode::Open) {
            const Duration gap =
                exponentialDuration(rngs[c], toSeconds(s.meanGap));
            net.loop().after(gap, [&, c] { issueNext(c); });
        }
        // Closed mode: onResponse refills the slot.
    };

    for (int c = 0; c < nClients; c++) {
        const TenantConfig& tc = sv.tenants[clientTenant[c]];
        if (tc.mode == ArrivalMode::Closed) {
            // Prime the window; jitter keeps clients * W calls from firing
            // in lockstep at t=0.
            for (int w = 0; w < tc.window; w++) {
                const Duration jitter = static_cast<Duration>(
                    rngs[c].uniform() * static_cast<double>(microseconds(5)));
                net.loop().at(jitter, [&, c] { issueNext(c); });
            }
        } else {
            const Duration phase = exponentialDuration(
                rngs[c], toSeconds(ts[clientTenant[c]].meanGap));
            net.loop().at(phase, [&, c] { issueNext(c); });
        }
    }

    // Single-shard (see RpcExperimentConfig::parallel); equivalent to
    // net.loop().runUntil, routed through the engine entry for uniformity.
    runNetworkUntil(net, cfg.stop + cfg.drainGrace);

    // Close the ledgers: whatever is still active never resolved. Each of
    // its open calls parks its bytes in `unresolvedBytes`; an issued,
    // still-open hedge is a failed hedge (neither won nor cancelled).
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

    result.issued = issuedInWindow;
    result.completed = completedInWindow;
    for (const auto& ep : endpoints) {
        result.retries += ep->stats().retries;
        result.reexecutions += ep->stats().reexecutions;
    }
    result.keptUp = issuedInWindow > 0 &&
                    static_cast<double>(completedInWindow) >=
                        0.99 * static_cast<double>(issuedInWindow);
    return result;
}

// Fan-out/fan-in trees as real RPCs: the coordinator (client) calls its
// stage-1 workers; each worker's *deferred* response fires only after its
// own child RPCs complete (RpcEndpoint::setAsyncHandler), so retries,
// incast marks, and at-least-once re-execution all apply per edge. The
// harness orchestrates centrally: it samples each tree up front, issues
// every call itself, and maps request RpcIds back to tree nodes.
RpcExperimentResult runRpcDagExperiment(const RpcExperimentConfig& cfg) {
    assert(validateDagConfig(cfg.dag) == nullptr);
    const SizeDistribution& dist = workload(cfg.workload);

    NetworkConfig netCfg = cfg.net;
    if (!netCfg.switchQdisc) netCfg.switchQdisc = switchQdiscFor(cfg.proto);
    Network net(netCfg, makeTransportFactory(cfg.proto, netCfg, &dist));
    Oracle oracle(netCfg);

    const int servers = net.hostCount() - cfg.clients;
    assert(servers >= (cfg.dag.depth >= 2 ? 2 : 1));

    std::vector<std::unique_ptr<RpcEndpoint>> endpoints;
    for (HostId h = 0; h < net.hostCount(); h++) {
        endpoints.push_back(std::make_unique<RpcEndpoint>(net, h));
    }

    RpcExperimentResult result;
    // No slowdown tracker: per-edge RPCs are not echoes, so the echo
    // oracle has no meaningful denominator — `dag` carries the metrics.
    const Time windowStart = static_cast<Time>(
        cfg.warmupFraction * static_cast<double>(cfg.stop));
    result.perClient = std::make_unique<ClosedLoopTracker>(
        cfg.clients, windowStart, cfg.stop);
    result.dag = std::make_unique<DagTracker>(cfg.clients, windowStart,
                                              cfg.stop);

    Rng master(cfg.seed);
    std::vector<Rng> rngs;
    for (int c = 0; c < cfg.clients; c++) rngs.push_back(master.fork());
    std::vector<OnOffModulator> mods;
    if (cfg.onOff.enabled) {
        mods.reserve(cfg.clients);
        for (int c = 0; c < cfg.clients; c++) {
            mods.emplace_back(cfg.onOff, /*start=*/0, master.next());
        }
    }

    struct NodeState {
        // Deferred answers, one per parent whose request arrived before
        // the node's subtree completed (join children have two parents).
        std::vector<RpcEndpoint::Responder> responders;
        int pending = 0;     // unanswered children + join children
        bool issued = false;  // child RPCs already sent
    };
    struct TreeRun {
        DagTreeSpec spec;
        std::vector<NodeState> state;
        std::vector<std::vector<int>> joinKids;  // dagJoinChildren(spec)
        std::vector<RpcId> rpcIds;
        int client = 0;
        Time issued = 0;
        bool inWindow = false;
        int64_t bytes = 0;
    };
    std::unordered_map<uint64_t, TreeRun> trees;
    std::unordered_map<RpcId, std::pair<uint64_t, int>> byRpc;
    uint64_t nextTree = 1;
    uint64_t issuedInWindow = 0;
    uint64_t completedInWindow = 0;

    const DagCostFn cost = dagOracleCost(net, oracle);
    // Node hosts come from the server pool, never the parent's own host
    // (siblings may repeat — that repetition *is* the incast).
    auto pickChild = [&](HostId parent, Rng& rng) -> HostId {
        if (parent < cfg.clients) {
            return static_cast<HostId>(cfg.clients + rng.below(servers));
        }
        return static_cast<HostId>(
            cfg.clients + uniformHostExcept(servers, parent - cfg.clients, rng));
    };

    // Issue the request RPC for `node` on behalf of `parent` (its primary
    // parent, or a join edge's extra parent).
    std::function<void(uint64_t, int, int)> callNode;
    std::function<void(int)> issueGated;

    auto completeTree = [&](uint64_t treeId, TreeRun& t) {
        const Time now = net.loop().now();
        const Duration elapsed = now - t.issued;
        result.dag->record(t.client, static_cast<int>(t.spec.nodes.size()) - 1,
                           t.bytes, elapsed,
                           dagTreeIdeal(t.spec, cfg.dag.requestBytes, cost),
                           now);
        result.perClient->record(t.client, t.bytes, elapsed, now);
        if (t.inWindow) completedInWindow++;
        const int c = t.client;
        for (RpcId id : t.rpcIds) byRpc.erase(id);
        trees.erase(treeId);
        if (net.loop().now() < cfg.stop) {
            net.loop().after(1, [&, c] { issueGated(c); });
        }
    };

    // A child's response came back to `parent`: fan-in accounting there.
    auto onChildDone = [&](uint64_t treeId, int parent) {
        const auto it = trees.find(treeId);
        assert(it != trees.end());
        TreeRun& t = it->second;
        NodeState& ps = t.state[parent];
        assert(ps.pending > 0);
        if (--ps.pending > 0) return;
        if (parent == 0) {
            completeTree(treeId, t);
            return;
        }
        // Answer every parent whose request arrived so far (a join
        // child's late second parent is answered straight from the
        // handler's completed-subtree branch).
        for (RpcEndpoint::Responder& r : ps.responders) {
            r(t.spec.nodes[parent].respBytes);
        }
        ps.responders.clear();
    };

    callNode = [&](uint64_t treeId, int node, int parent) {
        TreeRun& t = trees[treeId];
        const DagNodeSpec& n = t.spec.nodes[node];
        const HostId parentHost = t.spec.nodes[parent].host;
        const RpcId id = endpoints[parentHost]->call(
            n.host, cfg.dag.requestBytes,
            [&, treeId, parent](RpcId, uint32_t, uint32_t, Duration) {
                onChildDone(treeId, parent);
            });
        t.rpcIds.push_back(id);
        byRpc.emplace(id, std::make_pair(treeId, node));
    };

    // Every server runs the same deferred handler: leaves answer at once;
    // internal nodes fan out and answer when their last child returns.
    for (HostId h = cfg.clients; h < net.hostCount(); h++) {
        endpoints[h]->setAsyncHandler(
            [&](const Message& req, RpcEndpoint::Responder respond) {
                const auto it = byRpc.find(req.id);
                if (it == byRpc.end()) {
                    respond(1);  // stale retry of an already-completed tree
                    return;
                }
                const auto [treeId, node] = it->second;
                TreeRun& t = trees[treeId];
                const DagNodeSpec& n = t.spec.nodes[node];
                if (n.childCount == 0) {
                    respond(n.respBytes);
                    return;
                }
                NodeState& ns = t.state[node];
                if (!ns.issued) {
                    // First request triggers the single fan-out: own
                    // children plus join children this node is the extra
                    // parent of.
                    ns.issued = true;
                    ns.pending = n.childCount +
                                 static_cast<int>(t.joinKids[node].size());
                    ns.responders.push_back(std::move(respond));
                    for (int c = 0; c < n.childCount; c++) {
                        callNode(treeId, n.firstChild + c, node);
                    }
                    for (int jc : t.joinKids[node]) {
                        callNode(treeId, jc, node);
                    }
                } else if (ns.pending == 0) {
                    // Subtree already complete (a join child's second
                    // parent, or a re-executed retry): answer now.
                    respond(n.respBytes);
                } else {
                    ns.responders.push_back(std::move(respond));
                }
            });
    }

    auto issueTree = [&](int c) {
        const uint64_t treeId = nextTree++;
        TreeRun t;
        t.client = c;
        t.issued = net.loop().now();
        t.inWindow = t.issued >= windowStart;
        if (t.inWindow) issuedInWindow++;
        t.spec = sampleDagTree(cfg.dag, &dist, rngs[c],
                               static_cast<HostId>(c), pickChild);
        t.bytes = dagTreeBytes(cfg.dag, t.spec);
        t.state.resize(t.spec.nodes.size());
        t.joinKids = dagJoinChildren(t.spec);
        // The root never has join children (extra parents sit at stage
        // >= 1), so its pending is its own fan-out alone.
        t.state[0].pending = t.spec.nodes[0].childCount;
        TreeRun& placed = trees.emplace(treeId, std::move(t)).first->second;
        const DagNodeSpec& root = placed.spec.nodes[0];
        for (int i = 0; i < root.childCount; i++) {
            callNode(treeId, root.firstChild + i, 0);
        }
    };
    issueGated = [&](int c) {
        if (net.loop().now() >= cfg.stop) return;
        if (!mods.empty()) {
            const Time go = mods[c].gate(net.loop().now());
            if (go > net.loop().now()) {
                net.loop().at(go, [&, c] { issueGated(c); });
                return;
            }
        }
        issueTree(c);
    };
    for (int c = 0; c < cfg.clients; c++) {
        for (int w = 0; w < cfg.dag.window; w++) {
            const Duration jitter = static_cast<Duration>(
                rngs[c].uniform() * static_cast<double>(microseconds(5)));
            net.loop().at(jitter, [&, c] { issueGated(c); });
        }
    }

    // Single-shard (see RpcExperimentConfig::parallel); equivalent to
    // net.loop().runUntil, routed through the engine entry for uniformity.
    runNetworkUntil(net, cfg.stop + cfg.drainGrace);

    result.issued = issuedInWindow;
    result.completed = completedInWindow;
    for (const auto& ep : endpoints) {
        result.retries += ep->stats().retries;
        result.reexecutions += ep->stats().reexecutions;
    }
    result.keptUp = issuedInWindow > 0 &&
                    static_cast<double>(completedInWindow) >=
                        0.99 * static_cast<double>(issuedInWindow);
    return result;
}

}  // namespace

RpcExperimentResult runRpcExperiment(const RpcExperimentConfig& cfg) {
    if (cfg.serving.enabled()) return runRpcServingExperiment(cfg);
    if (cfg.dagMode) return runRpcDagExperiment(cfg);
    const SizeDistribution& dist = workload(cfg.workload);

    NetworkConfig netCfg = cfg.net;
    if (!netCfg.switchQdisc) netCfg.switchQdisc = switchQdiscFor(cfg.proto);
    Network net(netCfg, makeTransportFactory(cfg.proto, netCfg, &dist));
    Oracle oracle(netCfg);

    std::vector<std::unique_ptr<RpcEndpoint>> endpoints;
    for (HostId h = 0; h < net.hostCount(); h++) {
        endpoints.push_back(std::make_unique<RpcEndpoint>(net, h));
    }

    RpcExperimentResult result;
    result.slowdown = std::make_unique<SlowdownTracker>(dist, oracle.echoRpcFn());

    const Time windowStart = static_cast<Time>(
        cfg.warmupFraction * static_cast<double>(cfg.stop));

    // Each client's uplink carries `load` of its bandwidth in requests (and
    // symmetric responses on its downlink), matching §5.1's calibration.
    const double psPerByte = static_cast<double>(netCfg.hostLink.psPerByte);
    const Duration meanGap = static_cast<Duration>(
        std::llround(dist.meanWireBytes() * psPerByte / cfg.load));

    const int servers = net.hostCount() - cfg.clients;
    assert(servers > 0);
    const bool closedLoop = cfg.closedLoopWindow > 0;
    Rng master(cfg.seed);
    uint64_t issuedInWindow = 0;
    uint64_t completedInWindow = 0;

    struct ClientState {
        Rng rng;
        explicit ClientState(Rng r) : rng(r) {}
    };
    std::vector<ClientState> clients;
    for (int c = 0; c < cfg.clients; c++) clients.emplace_back(master.fork());
    // Modulator seeds draw from the master stream after the client forks,
    // so enabling ON-OFF never perturbs the per-client RPC streams.
    std::vector<OnOffModulator> mods;
    if (cfg.onOff.enabled) {
        mods.reserve(cfg.clients);
        for (int c = 0; c < cfg.clients; c++) {
            mods.emplace_back(cfg.onOff, /*start=*/0, master.next());
        }
    }
    result.perClient = std::make_unique<ClosedLoopTracker>(
        cfg.clients, windowStart, cfg.stop);

    auto thinkGap = [&](ClientState& st) -> Duration {
        if (cfg.thinkTime <= 0) return 1;
        return exponentialDuration(st.rng, toSeconds(cfg.thinkTime));
    };
    // Open loop + ON-OFF: Poisson on the client's ON-time clock at rate
    // base/duty, mapped to wall clock by the modulator.
    auto onClockDelay = [&](ClientState& st) {
        return exponentialDuration(
            st.rng, toSeconds(meanGap) * cfg.onOff.dutyCycle());
    };

    std::function<void(int)> issueNext;  // issue one RPC now (past gating)
    // Closed-loop issue point: waits out an OFF period before issuing.
    std::function<void(int)> issueGated = [&](int c) {
        if (net.loop().now() >= cfg.stop) return;
        if (!mods.empty()) {
            const Time go = mods[c].gate(net.loop().now());
            if (go > net.loop().now()) {
                net.loop().at(go, [&, c] { issueGated(c); });
                return;
            }
        }
        issueNext(c);
    };
    issueNext = [&](int c) {
        if (net.loop().now() >= cfg.stop) return;
        ClientState& st = clients[c];
        const uint32_t size = dist.sample(st.rng);
        const HostId server =
            static_cast<HostId>(cfg.clients + st.rng.below(servers));
        const Time issuedAt = net.loop().now();
        const bool inWindow = issuedAt >= windowStart;
        if (inWindow) issuedInWindow++;
        endpoints[c]->call(
            server, size,
            [&, c, inWindow](RpcId, uint32_t reqSize, uint32_t respSize,
                             Duration elapsed) {
                result.perClient->record(c, reqSize + respSize, elapsed,
                                         net.loop().now());
                if (inWindow) {
                    completedInWindow++;
                    result.slowdown->record(reqSize, elapsed);
                }
                if (closedLoop) {
                    // Refill the freed slot after the think time. (An RPC
                    // abort would leak a slot, but an abort takes ~500 ms
                    // of backed-off retries — beyond these runs.)
                    net.loop().after(thinkGap(clients[c]),
                                     [&, c] { issueGated(c); });
                }
            });
        if (closedLoop) return;  // the response callback drives the loop
        if (!mods.empty()) {
            net.loop().at(mods[c].advance(onClockDelay(st)),
                          [&, c] { issueNext(c); });
            return;
        }
        const Duration gap = exponentialDuration(st.rng, toSeconds(meanGap));
        net.loop().after(gap, [&, c] { issueNext(c); });
    };
    for (int c = 0; c < cfg.clients; c++) {
        if (closedLoop) {
            // Prime the window; a small stagger keeps clients * W calls
            // from firing in lockstep at t=0 (ON-OFF gating then pushes
            // gated slots to each client's first burst).
            for (int w = 0; w < cfg.closedLoopWindow; w++) {
                const Duration jitter = static_cast<Duration>(
                    clients[c].rng.uniform() *
                    static_cast<double>(microseconds(5)));
                net.loop().at(jitter, [&, c] { issueGated(c); });
            }
        } else if (!mods.empty()) {
            net.loop().at(mods[c].advance(onClockDelay(clients[c])),
                          [&, c] { issueNext(c); });
        } else {
            const Duration phase =
                exponentialDuration(clients[c].rng, toSeconds(meanGap));
            net.loop().at(phase, [&, c] { issueNext(c); });
        }
    }

    // Single-shard (see RpcExperimentConfig::parallel); equivalent to
    // net.loop().runUntil, routed through the engine entry for uniformity.
    runNetworkUntil(net, cfg.stop + cfg.drainGrace);

    result.issued = issuedInWindow;
    result.completed = completedInWindow;
    for (const auto& ep : endpoints) {
        result.retries += ep->stats().retries;
        result.reexecutions += ep->stats().reexecutions;
    }
    result.keptUp = issuedInWindow > 0 &&
                    static_cast<double>(completedInWindow) >=
                        0.99 * static_cast<double>(issuedInWindow);
    return result;
}

namespace {

void appendNum(std::string& s, const char* key, double v) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%s=%a;", key, v);
    s += buf;
}

void appendInt(std::string& s, const char* key, uint64_t v) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%s=%llu;",
                  key, static_cast<unsigned long long>(v));
    s += buf;
}

}  // namespace

std::string resultFingerprint(const RpcExperimentResult& r) {
    std::string s;
    appendInt(s, "issued", r.issued);
    appendInt(s, "completed", r.completed);
    appendInt(s, "retries", r.retries);
    appendInt(s, "reexecutions", r.reexecutions);
    appendInt(s, "keptUp", r.keptUp ? 1 : 0);
    if (r.slowdown) {
        appendNum(s, "p50", r.slowdown->overallPercentile(0.50));
        appendNum(s, "p99", r.slowdown->overallPercentile(0.99));
        for (const SlowdownRow& row : r.slowdown->rows()) {
            appendInt(s, "bucketCount", row.count);
            appendNum(s, "bucketMedian", row.median);
            appendNum(s, "bucketP99", row.p99);
            appendNum(s, "bucketMean", row.mean);
        }
    }
    if (r.perClient) {
        appendInt(s, "clCompleted", r.perClient->totalCompleted());
        appendInt(s, "clMaxClient", r.perClient->maxClientCompleted());
        appendInt(s, "clMinClient", r.perClient->minClientCompleted());
        appendNum(s, "clOpsPerSec", r.perClient->aggregateOpsPerSec());
        appendNum(s, "clGbps", r.perClient->aggregateGbps());
        appendNum(s, "clLatP50", r.perClient->latencyPercentileUs(0.50));
        appendNum(s, "clLatP99", r.perClient->latencyPercentileUs(0.99));
    }
    if (r.dag) {
        appendInt(s, "dagTrees", r.dag->trees());
        appendInt(s, "dagNodes", r.dag->totalNodes());
        appendInt(s, "dagBytes", static_cast<uint64_t>(r.dag->totalBytes()));
        appendInt(s, "dagMaxRoot", r.dag->maxRootTrees());
        appendInt(s, "dagMinRoot", r.dag->minRootTrees());
        appendNum(s, "dagTreesPerSec", r.dag->treesPerSec());
        appendNum(s, "dagCompP50", r.dag->completionPercentileUs(0.50));
        appendNum(s, "dagCompP99", r.dag->completionPercentileUs(0.99));
        appendNum(s, "dagSlowP50", r.dag->slowdownPercentile(0.50));
        appendNum(s, "dagSlowP99", r.dag->slowdownPercentile(0.99));
    }
    if (r.tenants) {
        // Serving block only: non-serving fingerprints are byte-identical
        // to the pre-serving format (the no-tenants golden relies on it).
        appendInt(s, "tnTenants", static_cast<uint64_t>(r.tenants->tenants()));
        for (int t = 0; t < r.tenants->tenants(); t++) {
            appendInt(s, "tnCompleted", r.tenants->completed(t));
            appendNum(s, "tnOpsPerSec", r.tenants->opsPerSec(t));
            appendNum(s, "tnGbps", r.tenants->gbps(t));
            appendNum(s, "tnLatP50", r.tenants->latencyPercentileUs(t, 0.50));
            appendNum(s, "tnLatP99", r.tenants->latencyPercentileUs(t, 0.99));
            appendNum(s, "tnLatMean", r.tenants->latencyMeanUs(t));
            appendNum(s, "tnSlowP50", r.tenants->slowdownPercentile(t, 0.50));
            appendNum(s, "tnSlowP99", r.tenants->slowdownPercentile(t, 0.99));
            const TenantHedgeStats& h = r.tenants->hedges(t);
            appendInt(s, "tnHedgeIssued", h.issued);
            appendInt(s, "tnHedgeWon", h.won);
            appendInt(s, "tnHedgeCancelled", h.cancelled);
            appendInt(s, "tnHedgeFailed", h.failed);
        }
        appendInt(s, "svLogicalIssued", r.serving.logicalIssued);
        appendInt(s, "svLogicalCompleted", r.serving.logicalCompleted);
        appendInt(s, "svCallsIssued", r.serving.callsIssued);
        appendInt(s, "svResponsesConsumed", r.serving.responsesConsumed);
        appendInt(s, "svHedgesIssued", r.serving.hedgesIssued);
        appendInt(s, "svHedgesWon", r.serving.hedgesWon);
        appendInt(s, "svHedgesCancelled", r.serving.hedgesCancelled);
        appendInt(s, "svHedgesFailed", r.serving.hedgesFailed);
        appendInt(s, "svPrimariesCancelled", r.serving.primariesCancelled);
        appendInt(s, "svIssuedBytes",
                  static_cast<uint64_t>(r.serving.issuedBytes));
        appendInt(s, "svConsumedBytes",
                  static_cast<uint64_t>(r.serving.consumedBytes));
        appendInt(s, "svRefundedBytes",
                  static_cast<uint64_t>(r.serving.refundedBytes));
        appendInt(s, "svUnresolvedBytes",
                  static_cast<uint64_t>(r.serving.unresolvedBytes));
    }
    return s;
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
