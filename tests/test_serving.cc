// Serving-invariant suite: the multi-tenant RPC harness's contracts.
//
// Three layers, matching workload/serving.h -> driver/rpc_experiment.cc:
//
//  1. ReplicaSelector properties: power-of-two-choices never picks a
//     replica strictly deeper than both sampled candidates, round-robin
//     is a fair permutation, and every pick is a pure function of
//     (seed, tenant, rpc sequence) — replay-identical by construction.
//  2. The spec grammar: parse/print round-trips, targeted parse errors,
//     and validateServingConfig's coherence checks (the same checks the
//     CLI and scenario specs route through).
//  3. Hedging ledgers: external conservation invariants over whole runs
//     — exactly one response consumed per logical RPC, cancelled hedges
//     refund server work, hedge counts conserved — across all six
//     protocols.
//
// The #ifdef'd tail drives the example_run_experiment binary to pin the
// CLI's serving-mode rejections (contradictory flags exit 2 with a
// targeted message, never a silently ignored knob).
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <map>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "driver/rpc_experiment.h"
#include "driver/sweep.h"

namespace homa {
namespace {

// ------------------------------------------- ReplicaSelector properties

TEST(ReplicaSelector, P2cNeverPicksDeeperThanBothCandidates) {
    // The defining property of power-of-two-choices: whatever the depth
    // profile, the pick is never strictly deeper than both sampled
    // candidates. Exercised over adversarial depth functions — uniform,
    // monotone, spiky, and one that always penalizes the picked index.
    for (int replicas : {2, 3, 7}) {
        for (uint64_t seed : {1ull, 99ull}) {
            const ReplicaSelector sel(LbPolicy::PowerOfTwo, replicas, seed,
                                      /*tenant=*/0);
            const std::vector<ReplicaSelector::DepthFn> profiles = {
                [](int) { return 5; },
                [](int r) { return r; },
                [](int r) { return r % 2 == 0 ? 100 : 0; },
                [replicas](int r) { return (r * 37) % replicas; },
            };
            for (const auto& depth : profiles) {
                for (uint64_t seq = 0; seq < 500; seq++) {
                    const auto [c1, c2] = sel.candidates(seq);
                    ASSERT_GE(c1, 0);
                    ASSERT_LT(c1, replicas);
                    ASSERT_GE(c2, 0);
                    ASSERT_LT(c2, replicas);
                    if (replicas >= 2) {
                        ASSERT_NE(c1, c2);
                    }
                    const int picked = sel.pick(seq, depth);
                    ASSERT_TRUE(picked == c1 || picked == c2);
                    EXPECT_LE(depth(picked),
                              std::max(depth(c1), depth(c2)))
                        << "replicas=" << replicas << " seq=" << seq;
                    // Strictly-less depth must win; ties go to c1.
                    if (depth(c1) != depth(c2)) {
                        EXPECT_EQ(depth(picked),
                                  std::min(depth(c1), depth(c2)));
                    } else {
                        EXPECT_EQ(picked, c1);
                    }
                }
            }
        }
    }
}

TEST(ReplicaSelector, RoundRobinIsAFairPermutation) {
    // Each cycle of n picks visits every replica exactly once, and the
    // cycle order repeats — a seeded fair permutation, not "i mod n"
    // (different tenants must not march in phase).
    for (int replicas : {2, 4, 9}) {
        const ReplicaSelector sel(LbPolicy::RoundRobin, replicas, /*seed=*/7,
                                  /*tenant=*/2);
        std::vector<int> firstCycle;
        for (int i = 0; i < replicas; i++) {
            firstCycle.push_back(sel.pick(static_cast<uint64_t>(i), {}));
        }
        EXPECT_EQ(std::set<int>(firstCycle.begin(), firstCycle.end()).size(),
                  static_cast<size_t>(replicas))
            << "cycle is not a permutation, replicas=" << replicas;
        for (int cycle = 1; cycle < 4; cycle++) {
            for (int i = 0; i < replicas; i++) {
                EXPECT_EQ(sel.pick(static_cast<uint64_t>(cycle * replicas + i),
                                   {}),
                          firstCycle[static_cast<size_t>(i)]);
            }
        }
    }
    // Over many picks the counts are exactly balanced.
    const int n = 5;
    const ReplicaSelector sel(LbPolicy::RoundRobin, n, 7, 0);
    std::map<int, int> counts;
    for (uint64_t seq = 0; seq < 20 * n; seq++) counts[sel.pick(seq, {})]++;
    for (const auto& [replica, count] : counts) {
        (void)replica;
        EXPECT_EQ(count, 20);
    }
}

TEST(ReplicaSelector, RoundRobinPermutationsDifferAcrossTenants) {
    // The permutation is seeded per (seed, tenant): co-located tenants
    // must not all hit replica k at the same phase. With 8 replicas
    // (8! orders) and 6 tenants, at least two distinct orders is a
    // deterministic certainty for this seed — pinned, not probabilistic.
    const int replicas = 8;
    std::set<std::vector<int>> orders;
    for (int tenant = 0; tenant < 6; tenant++) {
        const ReplicaSelector sel(LbPolicy::RoundRobin, replicas, 17, tenant);
        std::vector<int> order;
        for (int i = 0; i < replicas; i++) {
            order.push_back(sel.pick(static_cast<uint64_t>(i), {}));
        }
        orders.insert(order);
    }
    EXPECT_GT(orders.size(), 1u);
}

TEST(ReplicaSelector, SelectionIsAPureFunctionOfSeedTenantAndSeq) {
    // Replay-identical: re-constructing the selector with the same
    // (policy, replicas, seed, tenant) reproduces every pick, candidate
    // pair, and hedge choice — no hidden mutable state. Changing seed or
    // tenant moves the stream.
    for (LbPolicy policy : {LbPolicy::RoundRobin, LbPolicy::Random,
                            LbPolicy::PowerOfTwo}) {
        const ReplicaSelector a(policy, 6, /*seed=*/42, /*tenant=*/3);
        const ReplicaSelector b(policy, 6, /*seed=*/42, /*tenant=*/3);
        const auto depth = [](int r) { return (r * 13) % 6; };
        for (uint64_t seq = 0; seq < 300; seq++) {
            EXPECT_EQ(a.pick(seq, depth), b.pick(seq, depth));
            EXPECT_EQ(a.candidates(seq), b.candidates(seq));
            const int primary = a.pick(seq, depth);
            EXPECT_EQ(a.pickHedge(seq, primary), b.pickHedge(seq, primary));
        }
    }
    // Different seed or different tenant => a different pick stream
    // (somewhere in the first few hundred draws).
    const ReplicaSelector base(LbPolicy::Random, 6, 42, 3);
    const ReplicaSelector reseeded(LbPolicy::Random, 6, 43, 3);
    const ReplicaSelector retenanted(LbPolicy::Random, 6, 42, 4);
    bool seedDiffers = false, tenantDiffers = false;
    for (uint64_t seq = 0; seq < 300; seq++) {
        seedDiffers |= base.pick(seq, {}) != reseeded.pick(seq, {});
        tenantDiffers |= base.pick(seq, {}) != retenanted.pick(seq, {});
    }
    EXPECT_TRUE(seedDiffers);
    EXPECT_TRUE(tenantDiffers);
}

TEST(ReplicaSelector, HedgeTargetExcludesThePrimaryAndCoversTheRest) {
    const int replicas = 5;
    const ReplicaSelector sel(LbPolicy::Random, replicas, 11, 0);
    for (int primary = 0; primary < replicas; primary++) {
        std::set<int> seen;
        for (uint64_t seq = 0; seq < 200; seq++) {
            const int h = sel.pickHedge(seq, primary);
            ASSERT_GE(h, 0);
            ASSERT_LT(h, replicas);
            ASSERT_NE(h, primary);
            seen.insert(h);
        }
        // Uniform over the other replicas: 200 draws over 4 targets
        // reach all of them.
        EXPECT_EQ(seen.size(), static_cast<size_t>(replicas - 1));
    }
}

TEST(ReplicaSelector, RandomPolicyCoversAllReplicas) {
    const int replicas = 6;
    const ReplicaSelector sel(LbPolicy::Random, replicas, 5, 1);
    std::set<int> seen;
    for (uint64_t seq = 0; seq < 300; seq++) {
        const int r = sel.pick(seq, {});
        ASSERT_GE(r, 0);
        ASSERT_LT(r, replicas);
        seen.insert(r);
    }
    EXPECT_EQ(seen.size(), static_cast<size_t>(replicas));
}

// ------------------------------------------------ spec grammar + validate

TEST(ServingSpec, TenantsRoundTripThroughTheCanonicalString) {
    std::vector<TenantConfig> tenants;
    std::string err;
    ASSERT_TRUE(parseTenantsSpec(
        "name=web,wl=W1,load=0.6,clients=4;"
        "name=batch,wl=W5,mode=closed,window=8,think_us=12.5,clients=2,"
        "group=bulk",
        tenants, &err))
        << err;
    ASSERT_EQ(tenants.size(), 2u);
    EXPECT_EQ(tenants[0].name, "web");
    EXPECT_EQ(tenants[0].workload, WorkloadId::W1);
    EXPECT_EQ(tenants[0].mode, ArrivalMode::Open);
    EXPECT_DOUBLE_EQ(tenants[0].load, 0.6);
    EXPECT_EQ(tenants[0].clients, 4);
    EXPECT_EQ(tenants[1].mode, ArrivalMode::Closed);
    EXPECT_EQ(tenants[1].window, 8);
    EXPECT_EQ(tenants[1].think, microseconds(12) + nanoseconds(500));
    EXPECT_EQ(tenants[1].group, "bulk");

    // parse(print(x)) == x: the canonical string re-parses to the same
    // configs, and printing again is a fixed point.
    const std::string canonical = tenantsSpecToString(tenants);
    std::vector<TenantConfig> again;
    ASSERT_TRUE(parseTenantsSpec(canonical, again, &err)) << canonical;
    EXPECT_EQ(tenantsSpecToString(again), canonical);
    ASSERT_EQ(again.size(), tenants.size());
    for (size_t i = 0; i < tenants.size(); i++) {
        EXPECT_EQ(again[i].name, tenants[i].name);
        EXPECT_EQ(again[i].workload, tenants[i].workload);
        EXPECT_EQ(again[i].mode, tenants[i].mode);
        EXPECT_DOUBLE_EQ(again[i].load, tenants[i].load);
        EXPECT_EQ(again[i].window, tenants[i].window);
        EXPECT_EQ(again[i].think, tenants[i].think);
        EXPECT_EQ(again[i].clients, tenants[i].clients);
        EXPECT_EQ(again[i].group, tenants[i].group);
    }
    // Short values keep their "%g" text; seven significant digits read
    // back to the same double and the same picosecond.
    EXPECT_EQ(canonical,
              "name=web,wl=W1,mode=open,load=0.6,clients=4;"
              "name=batch,wl=W5,mode=closed,window=8,think_us=12.5,"
              "clients=2,group=bulk");
    ASSERT_TRUE(parseTenantsSpec(
        "name=web,wl=W1,load=0.1234567,clients=4;"
        "name=batch,wl=W5,mode=closed,window=8,think_us=12.34567,clients=2",
        tenants, &err))
        << err;
    ASSERT_TRUE(parseTenantsSpec(tenantsSpecToString(tenants), again, &err))
        << tenantsSpecToString(tenants);
    ASSERT_EQ(again.size(), 2u);
    EXPECT_EQ(again[0].load, 0.1234567) << tenantsSpecToString(tenants);
    EXPECT_EQ(again[1].think, 12'345'670) << tenantsSpecToString(tenants);
}

TEST(ServingSpec, ReplicasRoundTripThroughTheCanonicalString) {
    std::vector<ReplicaGroupConfig> groups;
    std::string err;
    ASSERT_TRUE(parseReplicasSpec(
        "name=fast,n=2,lb=p2c,hedge=p95,hedge_floor_us=15,hedge_min=16;"
        "name=bulk,n=0,lb=rr",
        groups, &err))
        << err;
    ASSERT_EQ(groups.size(), 2u);
    EXPECT_EQ(groups[0].policy, LbPolicy::PowerOfTwo);
    EXPECT_DOUBLE_EQ(groups[0].hedgePercentile, 0.95);
    EXPECT_EQ(groups[0].hedgeFloor, microseconds(15));
    EXPECT_EQ(groups[0].hedgeMinSamples, 16);
    EXPECT_EQ(groups[1].replicas, 0);
    EXPECT_EQ(groups[1].policy, LbPolicy::RoundRobin);
    EXPECT_FALSE(groups[1].hedging());

    const std::string canonical = replicasSpecToString(groups);
    std::vector<ReplicaGroupConfig> again;
    ASSERT_TRUE(parseReplicasSpec(canonical, again, &err)) << canonical;
    EXPECT_EQ(replicasSpecToString(again), canonical);
    EXPECT_EQ(canonical,
              "name=fast,n=2,lb=p2c,hedge=p95,hedge_floor_us=15,hedge_min=16;"
              "name=bulk,n=0,lb=rr");
    // Seven significant digits read back to the same picosecond.
    ASSERT_TRUE(parseReplicasSpec(
        "name=fast,n=2,lb=p2c,hedge=p95,hedge_floor_us=15.123456", groups,
        &err))
        << err;
    ASSERT_TRUE(parseReplicasSpec(replicasSpecToString(groups), again, &err))
        << replicasSpecToString(groups);
    ASSERT_EQ(again.size(), 1u);
    EXPECT_EQ(again[0].hedgeFloor, 15'123'456) << replicasSpecToString(groups);
}

TEST(ServingSpec, ParseErrorsAreTargeted) {
    // Every rejection names the offending key or entry — the CLI
    // forwards these verbatim, so they must diagnose, not just fail.
    struct Case {
        const char* body;
        const char* expect;
        bool tenants;  // which parser
    };
    const Case cases[] = {
        {"", "empty tenant spec", true},
        {"bogus", "expected k=v", true},
        {"name=a;;name=b", "stray ';'", true},
        {"wl=W1,clients=2", "no name= key", true},
        {"name=a,wl=W9", "expected W1..W5", true},
        {"name=a,mode=sideways", "expected open or closed", true},
        {"name=a,load=fast", "expected a number", true},
        {"name=a,volume=11", "unknown tenant key 'volume'", true},
        {"name=a,window=4", "closed-mode knobs", true},
        {"name=a,mode=closed,load=0.5", "open-mode knob", true},
        {"", "empty replica spec", false},
        {"n=2", "no name= key", false},
        {"name=g,lb=least-loaded", "expected rr, random, or p2c", false},
        {"name=g,hedge=95", "expected off or p1..p99", false},
        {"name=g,hedge=p0", "expected off or p1..p99", false},
        {"name=g,spin=1", "unknown replica key 'spin'", false},
    };
    for (const Case& c : cases) {
        std::string err;
        if (c.tenants) {
            std::vector<TenantConfig> out;
            EXPECT_FALSE(parseTenantsSpec(c.body, out, &err)) << c.body;
        } else {
            std::vector<ReplicaGroupConfig> out;
            EXPECT_FALSE(parseReplicasSpec(c.body, out, &err)) << c.body;
        }
        EXPECT_NE(err.find(c.expect), std::string::npos)
            << "'" << c.body << "' gave: " << err;
    }
}

TEST(ServingSpec, MicrosecondKnobsAreReadInRange) {
    // A think time or hedge floor past a Duration's range is a parse
    // error, not a value cast out of range (and then rejected for its
    // sign, or not at all).
    std::string err;
    std::vector<TenantConfig> tenants;
    EXPECT_FALSE(parseTenantsSpec("name=a,mode=closed,think_us=1e300",
                                  tenants, &err));
    EXPECT_EQ(err, "tenant key think_us: duration out of range, got '1e300'");
    std::vector<ReplicaGroupConfig> groups;
    EXPECT_FALSE(parseReplicasSpec("name=g,hedge_floor_us=1e300", groups,
                                   &err));
    EXPECT_EQ(err,
              "replica key hedge_floor_us: duration out of range, got "
              "'1e300'");
}

TEST(ServingSpec, ParseFailureLeavesTheOutputUntouched) {
    std::vector<TenantConfig> tenants;
    ASSERT_TRUE(parseTenantsSpec("name=keep,clients=3", tenants));
    ASSERT_EQ(tenants.size(), 1u);
    EXPECT_FALSE(parseTenantsSpec("name=a,wl=W9", tenants));
    ASSERT_EQ(tenants.size(), 1u);
    EXPECT_EQ(tenants[0].name, "keep");
}

ServingConfig twoTenantConfig() {
    TenantConfig a;
    a.name = "a";
    a.clients = 4;
    TenantConfig b;
    b.name = "b";
    b.clients = 4;
    ServingConfig cfg;
    cfg.tenants = {a, b};
    return cfg;
}

TEST(ServingValidate, CatchesIncoherentConfigs) {
    struct Case {
        const char* expect;
        std::function<void(ServingConfig&)> mutate;
    };
    const Case cases[] = {
        {"duplicate tenant name",
         [](ServingConfig& c) { c.tenants[1].name = "a"; }},
        {"clients must be >= 1",
         [](ServingConfig& c) { c.tenants[0].clients = 0; }},
        {"load must be in (0, 1.5]",
         [](ServingConfig& c) { c.tenants[0].load = 2.0; }},
        {"window must be >= 1",
         [](ServingConfig& c) {
             c.tenants[0].mode = ArrivalMode::Closed;
             c.tenants[0].window = 0;
         }},
        {"targets unknown replica group",
         [](ServingConfig& c) { c.tenants[0].group = "nowhere"; }},
        {"at least one server host",
         [](ServingConfig& c) { c.tenants[0].clients = 12; }},
        {"hedge percentile must be in [0, 1)",
         [](ServingConfig& c) {
             c.groups.push_back(ReplicaGroupConfig{});
             c.groups[0].hedgePercentile = 1.0;
         }},
        {"only legal for the last group",
         [](ServingConfig& c) {
             ReplicaGroupConfig rest;
             rest.name = "rest";
             rest.replicas = 0;
             ReplicaGroupConfig tail;
             tail.name = "tail";
             tail.replicas = 2;
             c.groups = {rest, tail};
         }},
        {"server hosts remain",
         [](ServingConfig& c) {
             c.groups.push_back(ReplicaGroupConfig{});
             c.groups[0].replicas = 99;
         }},
        {"p2c needs >= 2 replicas",
         [](ServingConfig& c) {
             c.groups.push_back(ReplicaGroupConfig{});
             c.groups[0].replicas = 1;
             c.groups[0].policy = LbPolicy::PowerOfTwo;
         }},
        {"hedging needs >= 2 replicas",
         [](ServingConfig& c) {
             c.groups.push_back(ReplicaGroupConfig{});
             c.groups[0].replicas = 1;
             c.groups[0].hedgePercentile = 0.9;
         }},
    };
    ASSERT_EQ(validateServingConfig(twoTenantConfig(), 16), "");
    for (const Case& c : cases) {
        ServingConfig cfg = twoTenantConfig();
        c.mutate(cfg);
        const std::string why = validateServingConfig(cfg, 16);
        EXPECT_NE(why.find(c.expect), std::string::npos)
            << "expected '" << c.expect << "', got: '" << why << "'";
    }
}

TEST(ServingValidate, RunRejectsIncoherentConfigsWithTheReason) {
    // The library entry point checks the config in every build type,
    // before building anything, and says why: a bad field, no server
    // host left, and replica groups that do not fit the server pool.
    struct Case {
        const char* expect;
        std::function<void(ServingConfig&)> mutate;
    };
    const Case cases[] = {
        {"load must be in (0, 1.5]",
         [](ServingConfig& c) { c.tenants[0].load = 2.0; }},
        {"at least one server host",
         [](ServingConfig& c) { c.tenants[0].clients = 12; }},
        {"server hosts remain",
         [](ServingConfig& c) {
             c.groups.push_back(ReplicaGroupConfig{});
             c.groups[0].replicas = 99;
         }},
    };
    for (const Case& c : cases) {
        RpcExperimentConfig cfg;
        cfg.net = NetworkConfig::singleRack16();
        cfg.serving = twoTenantConfig();
        c.mutate(cfg.serving);
        const std::string why = validateServingConfig(cfg.serving, 16);
        ASSERT_NE(why.find(c.expect), std::string::npos) << why;
        EXPECT_THROW(runRpcExperiment(cfg), std::invalid_argument) << c.expect;
        try {
            runRpcExperiment(cfg);
        } catch (const std::invalid_argument& e) {
            EXPECT_EQ(std::string(e.what()), "runRpcExperiment: " + why);
        }
    }
}

TEST(ServingValidate, ResolvesGroupsInDeclarationOrder) {
    ServingConfig cfg = twoTenantConfig();
    ReplicaGroupConfig fast;
    fast.name = "fast";
    fast.replicas = 3;
    ReplicaGroupConfig bulk;
    bulk.name = "bulk";
    bulk.replicas = 0;  // the rest
    cfg.groups = {fast, bulk};
    cfg.tenants[1].group = "bulk";

    std::vector<ResolvedGroup> resolved;
    std::string err;
    ASSERT_TRUE(resolveReplicaGroups(cfg, /*servers=*/8, resolved, &err))
        << err;
    ASSERT_EQ(resolved.size(), 2u);
    EXPECT_EQ(resolved[0].first, 0);
    EXPECT_EQ(resolved[0].count, 3);
    EXPECT_EQ(resolved[1].first, 3);
    EXPECT_EQ(resolved[1].count, 5);
    EXPECT_EQ(tenantGroupIndex(cfg, cfg.tenants[0]), 0);  // empty = first
    EXPECT_EQ(tenantGroupIndex(cfg, cfg.tenants[1]), 1);
}

TEST(ServingValidate, EmptyGroupListGetsTheImplicitPool) {
    const ServingConfig cfg = twoTenantConfig();
    const std::vector<ReplicaGroupConfig> groups = cfg.effectiveGroups();
    ASSERT_EQ(groups.size(), 1u);
    EXPECT_EQ(groups[0].name, "pool");
    EXPECT_EQ(groups[0].replicas, 0);
    EXPECT_EQ(groups[0].policy, LbPolicy::Random);
    EXPECT_EQ(cfg.totalClients(), 8);
}

// ------------------------------------------------- hedging ledgers (runs)

// A small hedged serving mix that still arms hedges within the run:
// aggressive hedge percentile + low sample floor so every protocol
// issues a meaningful number of hedges in 4 simulated milliseconds.
RpcExperimentConfig hedgedServingConfig(Protocol kind) {
    RpcExperimentConfig cfg;
    cfg.net = NetworkConfig::singleRack16();
    cfg.proto.kind = kind;
    cfg.seed = 21;
    cfg.stop = milliseconds(4);

    TenantConfig open;
    open.name = "open";
    open.workload = WorkloadId::W1;
    open.mode = ArrivalMode::Open;
    open.load = 0.4;
    open.clients = 5;

    TenantConfig closed;
    closed.name = "closed";
    closed.workload = WorkloadId::W2;
    closed.mode = ArrivalMode::Closed;
    closed.window = 4;
    closed.clients = 3;

    ReplicaGroupConfig pool;
    pool.name = "pool";
    pool.replicas = 0;  // all 8 remaining hosts
    pool.policy = LbPolicy::PowerOfTwo;
    pool.hedgePercentile = 0.90;
    pool.hedgeMinSamples = 8;

    cfg.serving.tenants = {open, closed};
    cfg.serving.groups = {pool};
    return cfg;
}

void expectLedgersBalance(const RpcExperimentResult& r, const char* what) {
    const ServingStats& s = r.serving;
    // Exactly one response consumed per completed logical RPC — the
    // winner; the loser's response is dropped by the cancel path.
    EXPECT_EQ(s.responsesConsumed, s.logicalCompleted) << what;
    // Call conservation: every endpoint call is a primary or a hedge.
    EXPECT_EQ(s.callsIssued, s.logicalIssued + s.hedgesIssued) << what;
    // Hedge lifecycle: issued hedges all end up won, cancelled, or
    // failed (unresolved at run end) — none vanish.
    EXPECT_EQ(s.hedgesIssued, s.hedgesWon + s.hedgesCancelled + s.hedgesFailed)
        << what;
    // Every hedge win cancelled exactly one primary.
    EXPECT_EQ(s.primariesCancelled, s.hedgesWon) << what;
    // Byte ledger: cancelled calls refund their server work, so issued
    // bytes are fully accounted as consumed + refunded + unresolved.
    EXPECT_EQ(s.issuedBytes,
              s.consumedBytes + s.refundedBytes + s.unresolvedBytes)
        << what;
    EXPECT_GE(s.refundedBytes, 0) << what;
    // The per-tenant tracker's hedge rows sum to the global ledgers.
    ASSERT_TRUE(r.tenants) << what;
    const TenantHedgeStats totals = r.tenants->totalHedges();
    EXPECT_EQ(totals.issued, s.hedgesIssued) << what;
    EXPECT_EQ(totals.won, s.hedgesWon) << what;
    EXPECT_EQ(totals.cancelled, s.hedgesCancelled) << what;
    EXPECT_EQ(totals.failed, s.hedgesFailed) << what;
}

TEST(ServingLedgers, HedgeConservationHoldsAcrossAllProtocols) {
    // The invariants are external ledgers — they do not care which
    // transport carried the calls, so they must hold for every protocol
    // the simulator speaks.
    for (Protocol kind : {Protocol::Homa, Protocol::Basic, Protocol::PHost,
                          Protocol::Pias, Protocol::PFabric, Protocol::Ndp}) {
        const RpcExperimentConfig cfg = hedgedServingConfig(kind);
        const RpcExperimentResult r = runRpcExperiment(cfg);
        EXPECT_GT(r.serving.logicalCompleted, 0u) << protocolName(kind);
        EXPECT_GT(r.serving.hedgesIssued, 0u)
            << protocolName(kind) << ": hedges never armed — the ledger "
            << "tests would be vacuous";
        expectLedgersBalance(r, protocolName(kind));
    }
}

TEST(ServingLedgers, UnhedgedRunsKeepTheDegenerateLedgers) {
    // hedge=off: the ledgers collapse — no hedges, no cancellations, no
    // refunds; every issued call is a logical RPC.
    RpcExperimentConfig cfg = hedgedServingConfig(Protocol::Homa);
    cfg.serving.groups[0].hedgePercentile = 0;
    const RpcExperimentResult r = runRpcExperiment(cfg);
    EXPECT_GT(r.serving.logicalCompleted, 0u);
    EXPECT_EQ(r.serving.hedgesIssued, 0u);
    EXPECT_EQ(r.serving.primariesCancelled, 0u);
    EXPECT_EQ(r.serving.refundedBytes, 0);
    EXPECT_EQ(r.serving.callsIssued, r.serving.logicalIssued);
    expectLedgersBalance(r, "unhedged");
}

TEST(ServingLedgers, LedgersBalancePerPolicyAndAcrossGroups) {
    // Two replica groups with different policies, hedging only on one:
    // conservation is global, whatever the group topology.
    for (LbPolicy policy : {LbPolicy::RoundRobin, LbPolicy::Random,
                            LbPolicy::PowerOfTwo}) {
        RpcExperimentConfig cfg = hedgedServingConfig(Protocol::Homa);
        ReplicaGroupConfig fast;
        fast.name = "fast";
        fast.replicas = 4;
        fast.policy = policy;
        fast.hedgePercentile = 0.90;
        fast.hedgeMinSamples = 8;
        ReplicaGroupConfig bulk;
        bulk.name = "bulk";
        bulk.replicas = 0;
        bulk.policy = LbPolicy::RoundRobin;
        cfg.serving.groups = {fast, bulk};
        cfg.serving.tenants[0].group = "fast";
        cfg.serving.tenants[1].group = "bulk";
        const RpcExperimentResult r = runRpcExperiment(cfg);
        EXPECT_GT(r.serving.logicalCompleted, 0u) << lbPolicyName(policy);
        expectLedgersBalance(r, lbPolicyName(policy));
        // Hedging is scoped to the fast group's tenant.
        ASSERT_TRUE(r.tenants);
        EXPECT_EQ(r.tenants->hedges(1).issued, 0u) << lbPolicyName(policy);
    }
}

TEST(ServingHarness, TenantRowsCoverTheMixAndFeedTheFingerprint) {
    const RpcExperimentConfig cfg = hedgedServingConfig(Protocol::Homa);
    const RpcExperimentResult r = runRpcExperiment(cfg);
    ASSERT_TRUE(r.tenants);
    ASSERT_EQ(r.tenants->tenants(), 2);
    for (int t = 0; t < r.tenants->tenants(); t++) {
        EXPECT_GT(r.tenants->completed(t), 0u) << "tenant " << t;
        EXPECT_GT(r.tenants->opsPerSec(t), 0.0) << "tenant " << t;
        EXPECT_GT(r.tenants->latencyPercentileUs(t, 0.99), 0.0)
            << "tenant " << t;
        EXPECT_GE(r.tenants->latencyPercentileUs(t, 0.99),
                  r.tenants->latencyPercentileUs(t, 0.50))
            << "tenant " << t;
        EXPECT_GE(r.tenants->slowdownPercentile(t, 0.5), 1.0)
            << "tenant " << t;
    }
    // The serving block shows up in the fingerprint (keyed rows), so the
    // determinism goldens actually cover the per-tenant percentiles.
    const std::string fp = resultFingerprint(r);
    EXPECT_NE(fp.find("tn"), std::string::npos);
    EXPECT_NE(fp.find("sv"), std::string::npos);
}

// ------------------------------------------------- CLI serving rejections

#ifdef HOMA_RUN_EXPERIMENT_BIN

int runCli(const std::string& args) {
    const std::string cmd = std::string(HOMA_RUN_EXPERIMENT_BIN) + " " +
                            args + " > /dev/null 2>&1";
    const int status = std::system(cmd.c_str());
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

std::string runCliOutput(const std::string& args) {
    const std::string cmd =
        std::string(HOMA_RUN_EXPERIMENT_BIN) + " " + args + " 2>&1";
    FILE* pipe = popen(cmd.c_str(), "r");
    EXPECT_NE(pipe, nullptr);
    if (pipe == nullptr) return "";
    std::string out;
    char buf[512];
    while (fgets(buf, sizeof buf, pipe) != nullptr) out += buf;
    pclose(pipe);
    return out;
}

// A valid minimal tenant spec the contradiction tests bolt flags onto.
const char* kTenants = "--tenants name=a,wl=W1,load=0.4,clients=4";

TEST(ServingCli, RejectsContradictoryFlagsWithTargetedErrors) {
    // Serving mode runs the RPC harness; every message-level shaping
    // flag would be silently ignored — each one must be rejected with a
    // message that names the contradiction. Usage errors exit 2.
    struct Case {
        std::string args;
        const char* expect;
    };
    const Case cases[] = {
        {"--replicas name=pool",
         "replica groups without tenants serve nobody"},
        {std::string(kTenants) + " --trace /dev/null",
         "--tenants contradicts --trace"},
        {std::string(kTenants) + " --dag-depth 3",
         "serving mode and dag mode are separate"},
        {std::string(kTenants) + " --pattern incast",
         "--tenants contradicts --pattern incast"},
        {std::string(kTenants) + " --window 4",
         "--window/--think-us do not apply to --tenants"},
        {std::string(kTenants) + " --on-off",
         "--on-off does not compose with --tenants"},
        {std::string(kTenants) + " --fault flap=tor0,at=1ms,for=1ms",
         "--tenants does not compose with --fault"},
        {std::string(kTenants) + " --fluid 0",
         "--tenants does not compose with --fluid"},
        {std::string(kTenants) + " --ecmp",
         "--ecmp does not apply to --tenants"},
        {std::string(kTenants) + " --wasted-bw",
         "--wasted-bw does not apply to --tenants"},
        {std::string(kTenants) + " --workload W2",
         "--workload does not apply to --tenants"},
        {std::string(kTenants) + " --load 0.5",
         "--load does not apply to --tenants"},
        {std::string(kTenants) + " --sim-threads 4",
         "--sim-threads does not apply to --tenants"},
    };
    for (const Case& c : cases) {
        EXPECT_EQ(runCli(c.args), 2) << c.args;
        const std::string out = runCliOutput(c.args);
        EXPECT_NE(out.find(c.expect), std::string::npos)
            << c.args << " gave:\n" << out;
    }
}

TEST(ServingCli, RejectsMalformedSpecsWithTheParserMessage) {
    EXPECT_EQ(runCli("--tenants bogus"), 2);
    std::string out = runCliOutput("--tenants bogus");
    EXPECT_NE(out.find("expected k=v"), std::string::npos) << out;

    out = runCliOutput("--tenants name=a,wl=W9,clients=4");
    EXPECT_NE(out.find("expected W1..W5"), std::string::npos) << out;

    out = runCliOutput(std::string(kTenants) +
                       " --replicas name=g,lb=least-loaded");
    EXPECT_NE(out.find("expected rr, random, or p2c"), std::string::npos)
        << out;

    // Well-formed but incoherent specs hit validateServingConfig after
    // the topology is final: 15 clients leave one server on the default
    // 16-host serving cluster, and p2c needs two.
    out = runCliOutput("--tenants name=a,wl=W1,load=0.4,clients=15"
                       " --replicas name=pool,n=0,lb=p2c");
    EXPECT_NE(out.find("bad serving config"), std::string::npos) << out;
    EXPECT_NE(out.find("p2c needs >= 2 replicas"), std::string::npos) << out;

    out = runCliOutput("--tenants name=a,wl=W1,load=0.4,clients=20");
    EXPECT_NE(out.find("bad serving config"), std::string::npos) << out;
}

#endif  // HOMA_RUN_EXPERIMENT_BIN

}  // namespace
}  // namespace homa
