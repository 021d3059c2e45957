// Scenario engine tests: per-pattern load calibration (generated wire
// bytes track the requested load fraction) and destination-histogram
// sanity checks against each pattern's declared traffic matrix.
#include <gtest/gtest.h>

#include <map>
#include <stdexcept>

#include "sim/network.h"
#include "workload/generator.h"

namespace homa {
namespace {

// Swallows every message: pattern tests only need the generation side, so
// runs cost one event per message instead of a full protocol simulation.
class SinkTransport final : public Transport {
public:
    void sendMessage(const Message&) override {}
    void handlePacket(const Packet&) override {}
};

struct GenRun {
    std::vector<Message> msgs;
    int hostCount = 0;
    int perRack = 0;
    int64_t wireBytes = 0;
    double offeredFraction = 0;  // wire bytes / aggregate link capacity
    double lineBytes = 0;        // one host link's capacity over the window
};

GenRun generate(const ScenarioConfig& scenario, double load = 0.6,
                Duration window = milliseconds(1),
                WorkloadId wl = WorkloadId::W1, uint64_t seed = 99) {
    NetworkConfig netCfg = NetworkConfig::fatTree144();
    Network net(netCfg,
                [](HostServices&) { return std::make_unique<SinkTransport>(); });
    TrafficConfig cfg;
    cfg.workload = wl;
    cfg.load = load;
    cfg.stop = window;
    cfg.seed = seed;
    cfg.scenario = scenario;
    GenRun run;
    run.hostCount = net.hostCount();
    run.perRack = netCfg.hostsPerRack;
    TrafficGenerator gen(net, cfg, [&](const Message& m) {
        run.msgs.push_back(m);
        run.wireBytes += messageWireBytes(m.length);
    });
    gen.start();
    net.loop().runUntil(window);
    run.lineBytes = toSeconds(window) * 1e12 /
                    static_cast<double>(netCfg.hostLink.psPerByte);
    run.offeredFraction = static_cast<double>(run.wireBytes) /
                          (run.lineBytes * static_cast<double>(run.hostCount));
    return run;
}

ScenarioConfig scenarioOf(TrafficPatternKind kind) {
    ScenarioConfig s;
    s.kind = kind;
    return s;
}

// --- Load calibration: every Poisson pattern must offer the requested ---
// --- fraction of aggregate host-link bandwidth, within 2%.            ---

class PatternCalibration
    : public ::testing::TestWithParam<TrafficPatternKind> {};

TEST_P(PatternCalibration, WireBytesMatchRequestedLoad) {
    const double load = 0.6;
    GenRun run = generate(scenarioOf(GetParam()), load);
    ASSERT_GT(run.msgs.size(), 10000u);
    EXPECT_NEAR(run.offeredFraction, load, 0.02 * load)
        << patternName(GetParam());
}

INSTANTIATE_TEST_SUITE_P(
    AllPoisson, PatternCalibration,
    ::testing::Values(TrafficPatternKind::Uniform,
                      TrafficPatternKind::Permutation,
                      TrafficPatternKind::RackSkew, TrafficPatternKind::Incast,
                      TrafficPatternKind::ParetoSenders),
    [](const auto& info) {
        std::string n = patternName(info.param);
        std::replace(n.begin(), n.end(), '-', '_');
        return n;
    });

// --- Destination histograms: each pattern's declared matrix. ---

TEST(TrafficPatterns, UniformDestinationsAreBalanced) {
    GenRun run = generate(scenarioOf(TrafficPatternKind::Uniform));
    std::vector<int64_t> perDst(run.hostCount, 0);
    for (const Message& m : run.msgs) {
        ASSERT_NE(m.src, m.dst);
        perDst[m.dst]++;
    }
    // Chi-square-style sanity: every destination within 20% of the mean
    // (expected count per dst is ~2.5k; 20% is many standard deviations).
    const double mean = static_cast<double>(run.msgs.size()) /
                        static_cast<double>(run.hostCount);
    for (int h = 0; h < run.hostCount; h++) {
        EXPECT_GT(static_cast<double>(perDst[h]), 0.8 * mean) << "host " << h;
        EXPECT_LT(static_cast<double>(perDst[h]), 1.2 * mean) << "host " << h;
    }
}

TEST(TrafficPatterns, PermutationIsAFixedDerangement) {
    GenRun run = generate(scenarioOf(TrafficPatternKind::Permutation));
    std::map<HostId, HostId> dstOf;
    for (const Message& m : run.msgs) {
        ASSERT_NE(m.src, m.dst);
        auto [it, inserted] = dstOf.emplace(m.src, m.dst);
        EXPECT_EQ(it->second, m.dst) << "src " << m.src << " changed target";
    }
    // Every host sends, and every host receives from exactly one sender.
    EXPECT_EQ(dstOf.size(), static_cast<size_t>(run.hostCount));
    std::vector<int> inDegree(run.hostCount, 0);
    for (const auto& [src, dst] : dstOf) inDegree[dst]++;
    for (int h = 0; h < run.hostCount; h++) EXPECT_EQ(inDegree[h], 1);
}

TEST(TrafficPatterns, RackSkewKeepsTheDeclaredLocalFraction) {
    ScenarioConfig s = scenarioOf(TrafficPatternKind::RackSkew);
    s.rackLocalFraction = 0.8;
    GenRun run = generate(s);
    int64_t local = 0;
    for (const Message& m : run.msgs) {
        if (m.src / run.perRack == m.dst / run.perRack) local++;
    }
    // The uniform remainder also lands intra-rack occasionally.
    const double expected =
        s.rackLocalFraction +
        (1 - s.rackLocalFraction) * static_cast<double>(run.perRack - 1) /
            static_cast<double>(run.hostCount - 1);
    EXPECT_NEAR(static_cast<double>(local) /
                    static_cast<double>(run.msgs.size()),
                expected, 0.01);
}

TEST(TrafficPatterns, IncastConcentratesOnHotReceivers) {
    ScenarioConfig s = scenarioOf(TrafficPatternKind::Incast);
    s.hotspots = 2;
    s.hotspotDegree = 16;
    s.hotspotFraction = 1.0;
    GenRun run = generate(s);
    // Hot receivers are hosts [0, hotspots); their fan-in senders are the
    // next hotspots*degree hosts, round-robin. With fraction 1, every
    // group sender aims only at its own hotspot.
    std::vector<int64_t> perDst(run.hostCount, 0);
    int64_t fromGroupSenders = 0, groupToOwnHotspot = 0;
    for (const Message& m : run.msgs) {
        perDst[m.dst]++;
        const int i = m.src - s.hotspots;
        if (m.src >= s.hotspots && i < s.hotspots * s.hotspotDegree) {
            fromGroupSenders++;
            if (m.dst == i % s.hotspots) groupToOwnHotspot++;
        }
    }
    EXPECT_GT(fromGroupSenders, 0);
    EXPECT_EQ(groupToOwnHotspot, fromGroupSenders);
    // Each hotspot draws ~degree/hostCount of all traffic vs ~1/hostCount
    // for a background host: a huge concentration factor.
    const double mean = static_cast<double>(run.msgs.size()) /
                        static_cast<double>(run.hostCount);
    for (int h = 0; h < s.hotspots; h++) {
        EXPECT_GT(static_cast<double>(perDst[h]), 8 * mean) << "hotspot " << h;
    }
}

TEST(TrafficPatterns, ParetoSkewsSenderPopularity) {
    ScenarioConfig s = scenarioOf(TrafficPatternKind::ParetoSenders);
    s.paretoAlpha = 1.2;
    // Low load: the line-rate water-filling cap (1/load = 10x the mean
    // sender) barely binds, so the raw rank^-1.2 skew is visible.
    GenRun run = generate(s, /*load=*/0.1, milliseconds(3));
    std::vector<int64_t> perSrc(run.hostCount, 0);
    for (const Message& m : run.msgs) perSrc[m.src]++;
    std::sort(perSrc.begin(), perSrc.end(), std::greater<>());
    // rank^-1.2 weights: the most popular sender should carry many times
    // the median sender's traffic, and the top decile a large share.
    ASSERT_GT(perSrc[run.hostCount / 2], 0);
    EXPECT_GT(perSrc[0], 10 * perSrc[run.hostCount / 2]);
    int64_t top = 0, total = 0;
    for (int i = 0; i < run.hostCount; i++) {
        if (i < run.hostCount / 10) top += perSrc[i];
        total += perSrc[i];
    }
    EXPECT_GT(static_cast<double>(top), 0.5 * static_cast<double>(total));
}

TEST(TrafficPatterns, ParetoWaterFillingCapsTopSendersAtLineRate) {
    ScenarioConfig s = scenarioOf(TrafficPatternKind::ParetoSenders);
    s.paretoAlpha = 1.2;
    const double load = 0.6;
    GenRun run = generate(s, load, milliseconds(2));
    // Raw rank^-1.2 weights would give the top sender ~38x the mean rate
    // (~19x its line rate at 60% load). Water-filling must cap every
    // sender's offered wire bytes at ~its line-rate share of the window,
    // while keeping the aggregate calibrated (checked by calibration
    // tests). Poisson arrivals + the size tail put ~±20% noise on one
    // sender's short-window bytes; 1.3x still decisively rejects the
    // uncapped ~19x demand.
    std::vector<int64_t> bytesBySrc(run.hostCount, 0);
    for (const Message& m : run.msgs) {
        bytesBySrc[m.src] += messageWireBytes(m.length);
    }
    for (int h = 0; h < run.hostCount; h++) {
        EXPECT_LT(static_cast<double>(bytesBySrc[h]), 1.3 * run.lineBytes)
            << "sender " << h;
    }
    // And the cap must actually bind: some senders sit at ~line rate.
    std::sort(bytesBySrc.begin(), bytesBySrc.end(), std::greater<>());
    EXPECT_GT(static_cast<double>(bytesBySrc[0]), 0.8 * run.lineBytes);
}

// --- ON-OFF modulation: bursts, idle periods, calibrated average. ---

TEST(OnOffArrivals, AggregateLoadStaysCalibrated) {
    // ON at 4x the average rate for ~a quarter of the time: the long-run
    // offered load must still track the request. Short periods give each
    // host ~20 cycles in the window, so the duty-cycle estimate averages
    // out across 144 hosts; the tolerance is looser than the Poisson
    // patterns' ±2% because period randomness adds variance.
    ScenarioConfig s = scenarioOf(TrafficPatternKind::Uniform);
    s.onOff.enabled = true;
    s.onOff.onMean = microseconds(50);
    s.onOff.offMean = microseconds(150);
    const double load = 0.6;
    GenRun run = generate(s, load, milliseconds(4));
    ASSERT_GT(run.msgs.size(), 10000u);
    EXPECT_NEAR(run.offeredFraction, load, 0.05 * load);
}

TEST(OnOffArrivals, ParetoPeriodsStayRoughlyCalibrated) {
    ScenarioConfig s = scenarioOf(TrafficPatternKind::Uniform);
    s.onOff.enabled = true;
    s.onOff.onMean = microseconds(50);
    s.onOff.offMean = microseconds(150);
    s.onOff.dist = OnOffDist::Pareto;
    s.onOff.paretoShape = 2.5;
    const double load = 0.6;
    GenRun run = generate(s, load, milliseconds(4));
    ASSERT_GT(run.msgs.size(), 10000u);
    // Heavy-tailed periods converge slower; a 10% band still rejects a
    // mis-scaled burst rate (which would miss by 4x).
    EXPECT_NEAR(run.offeredFraction, load, 0.10 * load);
}

TEST(OnOffArrivals, ComposesWithSkewedPatterns) {
    // The modulator must not disturb the pattern's traffic matrix: incast
    // group senders still aim at their hotspot.
    ScenarioConfig s = scenarioOf(TrafficPatternKind::Incast);
    s.hotspots = 2;
    s.hotspotDegree = 16;
    s.hotspotFraction = 1.0;
    s.onOff.enabled = true;
    GenRun run = generate(s, 0.6, milliseconds(2));
    ASSERT_GT(run.msgs.size(), 1000u);
    for (const Message& m : run.msgs) {
        const int i = m.src - s.hotspots;
        if (m.src >= s.hotspots && i < s.hotspots * s.hotspotDegree) {
            EXPECT_EQ(m.dst, i % s.hotspots);
        }
    }
}

TEST(OnOffArrivals, ArrivalsAreActuallyBursty) {
    // A single host's arrival sequence must alternate dense bursts and
    // long silences: its largest inter-arrival gap dwarfs its mean gap,
    // unlike the unmodulated Poisson process at the same average rate.
    ScenarioConfig plain = scenarioOf(TrafficPatternKind::Uniform);
    ScenarioConfig bursty = plain;
    bursty.onOff.enabled = true;
    bursty.onOff.onMean = microseconds(50);
    bursty.onOff.offMean = microseconds(300);
    auto maxToMeanGap = [](const GenRun& run) {
        std::vector<Time> at;
        for (const Message& m : run.msgs) {
            if (m.src == 0) at.push_back(m.created);
        }
        EXPECT_GT(at.size(), 50u);
        Duration maxGap = 0;
        for (size_t i = 1; i < at.size(); i++) {
            maxGap = std::max(maxGap, at[i] - at[i - 1]);
        }
        const double meanGap = toSeconds(at.back() - at.front()) /
                               static_cast<double>(at.size() - 1);
        return toSeconds(maxGap) / meanGap;
    };
    const double plainRatio = maxToMeanGap(generate(plain, 0.6, milliseconds(4)));
    const double burstyRatio =
        maxToMeanGap(generate(bursty, 0.6, milliseconds(4)));
    EXPECT_GT(burstyRatio, 3.0 * plainRatio);
}

TEST(OnOffArrivals, SpecParsing) {
    ScenarioConfig s;
    ASSERT_TRUE(scenarioFromSpec("incast+on-off", s));
    EXPECT_EQ(s.kind, TrafficPatternKind::Incast);
    EXPECT_TRUE(s.onOff.enabled);
    ASSERT_TRUE(scenarioFromSpec("closed-loop", s));
    EXPECT_EQ(s.kind, TrafficPatternKind::ClosedLoop);
    EXPECT_FALSE(s.onOff.enabled);
    // DAG specs carry parameters — the only pattern that takes them.
    ASSERT_TRUE(scenarioFromSpec("dag:fanout=40,depth=2+on-off", s));
    EXPECT_EQ(s.kind, TrafficPatternKind::Dag);
    EXPECT_TRUE(s.onOff.enabled);
    EXPECT_EQ(s.dag.fanout, 40);
    EXPECT_EQ(s.dag.depth, 2);
    ASSERT_TRUE(scenarioFromSpec("dag", s));
    EXPECT_EQ(s.kind, TrafficPatternKind::Dag);
    EXPECT_FALSE(s.onOff.enabled);
    ScenarioConfig untouched;
    untouched.kind = TrafficPatternKind::RackSkew;
    EXPECT_FALSE(scenarioFromSpec("bogus+on-off", untouched));
    EXPECT_FALSE(scenarioFromSpec("uniform+onoff", untouched));
    EXPECT_FALSE(scenarioFromSpec("", untouched));
    EXPECT_FALSE(scenarioFromSpec("dag:fanout=0", untouched));
    EXPECT_FALSE(scenarioFromSpec("uniform:fanout=2", untouched));
    // A spec cannot carry a trace schedule, so scenarioError rejects it.
    std::string err;
    EXPECT_FALSE(scenarioFromSpec("trace", untouched, &err));
    EXPECT_NE(err.find("needs a schedule"), std::string::npos) << err;
    EXPECT_EQ(untouched.kind, TrafficPatternKind::RackSkew);
}

TEST(ServingSpecSegments, TenantsAndReplicasParseAndRoundTrip) {
    // The '+tenants:'/'+replicas:' scenario modifiers route through the
    // same parsers as the --tenants/--replicas flags; the parsed configs
    // must survive the canonical-string round trip.
    ScenarioConfig s;
    ASSERT_TRUE(scenarioFromSpec(
        "uniform+tenants:name=web,wl=W1,load=0.6,clients=4;"
        "name=batch,wl=W5,mode=closed,window=8,clients=2,group=bulk"
        "+replicas:name=fast,n=2,lb=p2c,hedge=p95,hedge_floor_us=20,"
        "hedge_min=32;name=bulk,n=0,lb=rr", s));
    ASSERT_TRUE(s.serving.enabled());
    ASSERT_EQ(s.serving.tenants.size(), 2u);
    ASSERT_EQ(s.serving.groups.size(), 2u);
    EXPECT_EQ(s.serving.tenants[0].name, "web");
    EXPECT_EQ(s.serving.tenants[1].group, "bulk");
    EXPECT_EQ(s.serving.groups[0].policy, LbPolicy::PowerOfTwo);
    EXPECT_DOUBLE_EQ(s.serving.groups[0].hedgePercentile, 0.95);

    ScenarioConfig again;
    ASSERT_TRUE(scenarioFromSpec(
        "uniform+tenants:" + tenantsSpecToString(s.serving.tenants) +
        "+replicas:" + replicasSpecToString(s.serving.groups), again));
    EXPECT_EQ(tenantsSpecToString(again.serving.tenants),
              tenantsSpecToString(s.serving.tenants));
    EXPECT_EQ(replicasSpecToString(again.serving.groups),
              replicasSpecToString(s.serving.groups));

    // Serving composes with topology segments — the spec carries both.
    ASSERT_TRUE(scenarioFromSpec(
        "uniform+tenants:name=a,wl=W1,load=0.5,clients=4+topo:racks=2,"
        "hosts=8", s));
    ASSERT_TRUE(s.serving.enabled());
}

TEST(ServingSpecSegments, RejectionsNameTheConflict) {
    struct Case {
        const char* spec;
        const char* expect;
    };
    const Case cases[] = {
        {"tenants:name=a,clients=4", "cannot come first"},
        {"replicas:name=pool", "cannot come first"},
        {"uniform+replicas:name=pool",
         "requires a tenants: segment"},
        {"incast+tenants:name=a,clients=4",
         "require the 'uniform' pattern placeholder"},
        {"uniform+tenants:name=a,clients=4+tenants:name=b,clients=2",
         "at most one tenants: segment"},
        {"uniform+tenants:bogus", "bad tenants spec"},
        {"uniform+tenants:name=a,clients=4+replicas:lb=p2c",
         "bad replicas spec"},
        {"uniform+on-off+tenants:name=a,clients=4",
         "do not compose with on-off"},
        {"uniform+fault:flap=aggr0,at=1ms,for=1ms+tenants:name=a,clients=4",
         "do not compose with fault injection"},
        {"uniform+fluid:20000+tenants:name=a,clients=4",
         "do not compose with fluid"},
        {"uniform+tenants:name=a,clients=4,group=nowhere",
         "references unknown replica group"},
    };
    for (const Case& c : cases) {
        ScenarioConfig untouched;
        untouched.kind = TrafficPatternKind::RackSkew;
        std::string err;
        EXPECT_FALSE(scenarioFromSpec(c.spec, untouched, &err)) << c.spec;
        EXPECT_NE(err.find(c.expect), std::string::npos)
            << c.spec << " gave: " << err;
        EXPECT_EQ(untouched.kind, TrafficPatternKind::RackSkew);
        EXPECT_FALSE(untouched.serving.enabled());
    }
}

TEST(OnOffArrivals, DistNamesRoundTrip) {
    for (OnOffDist d : {OnOffDist::Exponential, OnOffDist::Pareto}) {
        OnOffDist parsed;
        ASSERT_TRUE(onOffDistFromName(onOffDistName(d), parsed));
        EXPECT_EQ(parsed, d);
    }
    OnOffDist unchanged = OnOffDist::Exponential;
    EXPECT_FALSE(onOffDistFromName("weibull", unchanged));
    EXPECT_EQ(unchanged, OnOffDist::Exponential);
}

// --- Trace replay: exact schedule, exact bytes. ---

TEST(TrafficPatterns, TraceReplayFollowsTheSchedule) {
    ScenarioConfig s;
    s.kind = TrafficPatternKind::TraceReplay;
    s.traceText =
        "# time_us src dst size\n"
        "10 3 7 1000\n"
        "5 1 2 500\n"       // out of order in the text: sorted by time
        "200 0 143 99999\n"
        "\n"
        "5000 2 1 400\n";   // beyond the 1 ms window: not replayed
    GenRun run = generate(s, /*load=*/0.6, milliseconds(1));
    ASSERT_EQ(run.msgs.size(), 3u);
    EXPECT_EQ(run.msgs[0].src, 1);
    EXPECT_EQ(run.msgs[0].dst, 2);
    EXPECT_EQ(run.msgs[0].length, 500u);
    EXPECT_EQ(run.msgs[0].created, microseconds(5));
    EXPECT_EQ(run.msgs[1].length, 1000u);
    EXPECT_EQ(run.msgs[1].created, microseconds(10));
    EXPECT_EQ(run.msgs[2].dst, 143);
    EXPECT_EQ(run.wireBytes, messageWireBytes(500) + messageWireBytes(1000) +
                                 messageWireBytes(99999));
}

TEST(TrafficPatterns, TraceParserHandlesCommentsAndSorting) {
    const std::vector<TraceRecord> recs = parseTrace(
        "# header comment\n"
        "2.5 0 1 100   # trailing comment\n"
        "1 1 0 200\n",
        /*hostCount=*/16);
    ASSERT_EQ(recs.size(), 2u);
    EXPECT_EQ(recs[0].at, microseconds(1));
    EXPECT_EQ(recs[0].size, 200u);
    EXPECT_EQ(recs[1].at, nanoseconds(2500));
    EXPECT_EQ(recs[1].src, 0);
}

TEST(TrafficPatterns, IncastClampsInfeasibleHotspotConfigs) {
    // 9 hotspots on a 16-host rack leaves fewer senders than hotspots:
    // the pattern must clamp to 8 hotspots with a 1-sender fan-in each
    // (not hit UB or degenerate to uniform).
    ScenarioConfig s = scenarioOf(TrafficPatternKind::Incast);
    s.hotspots = 9;
    s.hotspotDegree = 16;
    auto pattern = makeTrafficPattern(s, /*hostCount=*/16,
                                      /*hostsPerRack=*/16, /*seed=*/1);
    Rng rng(7);
    for (HostId src = 8; src < 16; src++) {
        EXPECT_EQ(pattern->pickDestination(src, rng), src - 8);
    }
}

TEST(TrafficPatterns, TraceParserRejectsBadLines) {
    // Oversized size fields must be rejected, not silently truncated to
    // 32 bits; same for self-sends, short or long lines, out-of-range
    // hosts, and times past a Duration's range. The library throws the
    // reason and never exits.
    for (const char* text :
         {"0 0 1 4294967297\n", "0 0 0 100\n", "5 0\n", "5 0 1\n",
          "5 0 1 100 7\n", "time src dst bytes\n0 0 1 100\n",
          "1e300 0 1 1000\n", "-1 0 1 1000\n"}) {
        try {
            (void)parseTrace(text, /*hostCount=*/16);
            ADD_FAILURE() << "accepted: " << text;
        } catch (const std::invalid_argument& e) {
            EXPECT_EQ(std::string(e.what()).rfind("trace line 1: ", 0), 0u)
                << e.what();
        }
    }
    EXPECT_THROW((void)parseTrace("0 0 1 100\n0 0 20 100\n", 16),
                 std::invalid_argument);
}

TEST(TrafficPatterns, PatternKnobsOutsideTheirRangeAreRejected) {
    // One case per rule. A fraction outside [0, 1] would only saturate
    // Rng::chance, and IncastPattern no longer clamps hotspots or the
    // degree from below (it asserts what these rules guarantee).
    ScenarioConfig skew = scenarioOf(TrafficPatternKind::RackSkew);
    skew.rackLocalFraction = 7;
    EXPECT_EQ(scenarioError(skew),
              "rack-skew local fraction must be in [0, 1]");

    ScenarioConfig fraction = scenarioOf(TrafficPatternKind::Incast);
    fraction.hotspotFraction = -3;
    EXPECT_EQ(scenarioError(fraction),
              "incast hotspot fraction must be in [0, 1]");

    ScenarioConfig hotspots = scenarioOf(TrafficPatternKind::Incast);
    hotspots.hotspots = 0;
    EXPECT_EQ(scenarioError(hotspots), "incast needs hotspots >= 1");

    ScenarioConfig degree = scenarioOf(TrafficPatternKind::Incast);
    degree.hotspotDegree = -1;
    EXPECT_EQ(scenarioError(degree),
              "incast hotspot degree must be >= 0 (0 = every non-hot host)");

    // The bounds themselves are valid; degree 0 means every non-hot host.
    skew.rackLocalFraction = 1;
    fraction.hotspotFraction = 0;
    degree.hotspotDegree = 0;
    for (const ScenarioConfig& ok : {skew, fraction, degree}) {
        EXPECT_EQ(scenarioError(ok), "") << patternName(ok.kind);
    }
}

TEST(TrafficPatterns, PatternNamesRoundTrip) {
    for (TrafficPatternKind kind :
         {TrafficPatternKind::Uniform, TrafficPatternKind::Permutation,
          TrafficPatternKind::RackSkew, TrafficPatternKind::Incast,
          TrafficPatternKind::ParetoSenders, TrafficPatternKind::TraceReplay,
          TrafficPatternKind::ClosedLoop}) {
        TrafficPatternKind parsed;
        ASSERT_TRUE(patternFromName(patternName(kind), parsed));
        EXPECT_EQ(parsed, kind);
    }
    TrafficPatternKind unchanged = TrafficPatternKind::Uniform;
    EXPECT_FALSE(patternFromName("no-such-pattern", unchanged));
    EXPECT_EQ(unchanged, TrafficPatternKind::Uniform);
}

// --- Seed behavior of the pattern layer. ---

TEST(TrafficPatterns, PatternsAreDeterministicGivenSeed) {
    for (TrafficPatternKind kind :
         {TrafficPatternKind::Permutation, TrafficPatternKind::Incast,
          TrafficPatternKind::ParetoSenders}) {
        GenRun a = generate(scenarioOf(kind), 0.4, microseconds(200));
        GenRun b = generate(scenarioOf(kind), 0.4, microseconds(200));
        ASSERT_EQ(a.msgs.size(), b.msgs.size()) << patternName(kind);
        for (size_t i = 0; i < a.msgs.size(); i++) {
            EXPECT_EQ(a.msgs[i].src, b.msgs[i].src);
            EXPECT_EQ(a.msgs[i].dst, b.msgs[i].dst);
            EXPECT_EQ(a.msgs[i].length, b.msgs[i].length);
            EXPECT_EQ(a.msgs[i].created, b.msgs[i].created);
        }
    }
}

TEST(TrafficPatterns, DifferentSeedsPickDifferentPermutations) {
    GenRun a = generate(scenarioOf(TrafficPatternKind::Permutation), 0.4,
                        microseconds(200), WorkloadId::W1, /*seed=*/1);
    GenRun b = generate(scenarioOf(TrafficPatternKind::Permutation), 0.4,
                        microseconds(200), WorkloadId::W1, /*seed=*/2);
    std::map<HostId, HostId> pa, pb;
    for (const Message& m : a.msgs) pa.emplace(m.src, m.dst);
    for (const Message& m : b.msgs) pb.emplace(m.src, m.dst);
    EXPECT_NE(pa, pb);
}

}  // namespace
}  // namespace homa
