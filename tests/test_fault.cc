// Fault-injection suite (sim/fault.h): spec parsing and validation with
// human-readable errors, the packet-conservation law under every fault
// kind across all six protocols, protocol recovery (RESENDs after flaps
// that eat grants or data, receiver abort when a peer dies), closed-loop
// and DAG resilience, and CLI misuse of --fault/--ecmp.
//
// The conservation law is checked with accounting *external* to the fault
// layer: NIC transmission starts on one side, host receptions plus
// counted drop causes plus still-in-flight packets on the other. A leak
// in any fault path (a packet discarded without bumping a cause counter,
// or double-counted) breaks the equality.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <random>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "driver/experiment.h"
#include "sim/fault.h"
#include "sim/parallel.h"
#include "sim/topology.h"
#include "workload/generator.h"

namespace homa {
namespace {

// ------------------------------------------------------- spec parsing

std::string parseError(const std::string& body) {
    FaultSpec spec;
    std::string err;
    EXPECT_FALSE(parseFaultSpec(body, spec, &err)) << body;
    return err;
}

TEST(FaultSpec, ParsesEachKind) {
    FaultSpec f;
    ASSERT_TRUE(parseFaultSpec("flap=aggr0,at=50ms,for=10ms", f));
    EXPECT_EQ(f.kind, FaultKind::Flap);
    EXPECT_EQ(f.targetKind, FaultTargetKind::Aggr);
    EXPECT_EQ(f.targetIndex, 0);
    EXPECT_EQ(f.at, milliseconds(50));
    EXPECT_EQ(f.duration, milliseconds(10));

    ASSERT_TRUE(parseFaultSpec("kill=tor2,at=30ms", f));
    EXPECT_EQ(f.kind, FaultKind::Kill);
    EXPECT_EQ(f.targetKind, FaultTargetKind::Tor);
    EXPECT_EQ(f.targetIndex, 2);

    ASSERT_TRUE(parseFaultSpec(
        "degrade=host5,at=1ms,for=5ms,bw=0.25,delay=10us,drop=0.01", f));
    EXPECT_EQ(f.kind, FaultKind::Degrade);
    EXPECT_EQ(f.targetKind, FaultTargetKind::Host);
    EXPECT_EQ(f.targetIndex, 5);
    EXPECT_DOUBLE_EQ(f.bwFactor, 0.25);
    EXPECT_EQ(f.extraDelay, microseconds(10));
    EXPECT_DOUBLE_EQ(f.dropProb, 0.01);
    EXPECT_EQ(f.duration, milliseconds(5));

    ASSERT_TRUE(parseFaultSpec(
        "flap-train=aggr1,at=10ms,count=5,gap=2ms,for=500us", f));
    EXPECT_EQ(f.kind, FaultKind::FlapTrain);
    EXPECT_EQ(f.count, 5);
    EXPECT_EQ(f.gap, milliseconds(2));
    EXPECT_EQ(f.duration, microseconds(500));
}

TEST(FaultSpec, CanonicalStringRoundTrips) {
    for (const char* body :
         {"flap=aggr0,at=50ms,for=10ms", "kill=tor2,at=30ms",
          "degrade=host5,at=1ms,for=5ms,bw=0.25,delay=10us,drop=0.01",
          "flap-train=aggr1,at=10ms,count=5,gap=2ms,for=500us",
          "flap-train=tor1,at=2.5ns,count=3,gap=0.2ns,for=1.0005us",
          // Seven significant digits, past what "%g" keeps.
          "degrade=host2,at=1ms,bw=0.1234567,drop=0.01234567"}) {
        FaultSpec f, again;
        ASSERT_TRUE(parseFaultSpec(body, f)) << body;
        ASSERT_TRUE(parseFaultSpec(faultSpecToString(f), again))
            << faultSpecToString(f);
        EXPECT_EQ(faultSpecToString(f), faultSpecToString(again)) << body;
        EXPECT_EQ(again.at, f.at) << body;
        EXPECT_EQ(again.duration, f.duration) << body;
        EXPECT_EQ(again.gap, f.gap) << body;
        EXPECT_EQ(again.bwFactor, f.bwFactor) << faultSpecToString(f);
        EXPECT_EQ(again.dropProb, f.dropProb) << faultSpecToString(f);
        EXPECT_EQ(again.extraDelay, f.extraDelay) << body;
        EXPECT_EQ(again.count, f.count) << body;
    }
    // Values "%g" reads back exactly keep its text.
    FaultSpec plain;
    ASSERT_TRUE(parseFaultSpec(
        "degrade=host5,at=1ms,for=5ms,bw=0.25,delay=10us,drop=0.01", plain));
    EXPECT_EQ(faultSpecToString(plain),
              "degrade=host5,at=1000.000us,for=5000.000us,bw=0.25,drop=0.01,"
              "delay=10.000us");
    // Whole nanoseconds keep the "%.3fus" form, a sub-nanosecond part
    // prints exactly in ns, and either reads back to the same picosecond.
    FaultSpec sub;
    ASSERT_TRUE(parseFaultSpec("flap=aggr0,at=1.009us,for=0.4ns", sub));
    EXPECT_EQ(faultSpecToString(sub), "flap=aggr0,at=1.009us,for=0.400ns");
    std::mt19937_64 rng(1009);
    for (int i = 0; i < 20000; i++) {
        FaultSpec spec;
        spec.at = static_cast<Duration>(rng() % 3'000'000) * kNanosecond;
        spec.duration = 1 + static_cast<Duration>(rng() % milliseconds(3));
        const std::string text = faultSpecToString(spec);
        FaultSpec again;
        ASSERT_TRUE(parseFaultSpec(text, again)) << text;
        ASSERT_EQ(again.at, spec.at) << text;
        ASSERT_EQ(again.duration, spec.duration) << text;
    }
}

TEST(FaultSpec, ExplainsMalformedSpecs) {
    EXPECT_EQ(parseError(""), "empty fault spec");
    EXPECT_NE(parseError("boom=aggr0,at=1ms").find("must start with"),
              std::string::npos);
    EXPECT_NE(parseError("flap=switch3,at=1ms,for=1ms")
                  .find("bad fault target"),
              std::string::npos);
    EXPECT_NE(parseError("flap=aggr,for=1ms").find("bad fault target index"),
              std::string::npos);
    EXPECT_EQ(parseError("flap=aggr0,for=10"),  // missing ns/us/ms/s suffix
              "fault key for: expected a number with ns/us/ms/s, got '10'");
    EXPECT_NE(parseError("flap=aggr0,for=1ms,oops=3")
                  .find("unknown fault key 'oops'"),
              std::string::npos);
    EXPECT_EQ(parseError("flap=aggr0,for"),
              "fault spec: expected k=v, got 'for'");
}

TEST(FaultSpec, ReadsNumbersWholeAndInRange) {
    // Durations past a Duration's range, fractional or oversized counts,
    // and target indexes past an int are rejected for what they are; they
    // are not cast out of range (a flap "at 1e7 s" firing at t = 0), cut
    // to an integer, or wrapped to another switch.
    EXPECT_EQ(parseError("flap=aggr0,at=1e7s,for=1ms"),
              "fault key at: duration out of range, got '1e7s'");
    EXPECT_EQ(parseError("degrade=host0,delay=-2us"),
              "fault key delay: expected a non-negative duration, got "
              "'-2us'");
    EXPECT_EQ(parseError("flap-train=aggr0,count=2.7,gap=1ms,for=1ms"),
              "fault key count: expected a count in [0, 2147483647], got "
              "'2.7'");
    EXPECT_EQ(parseError("flap-train=aggr0,count=1e10,gap=1ms,for=1ms"),
              "fault key count: expected a count in [0, 2147483647], got "
              "'1e10'");
    EXPECT_EQ(parseError("degrade=host0,bw=half"),
              "fault key bw: expected a number, got 'half'");
    EXPECT_NE(parseError("flap=aggr4294967296,at=1ms,for=1ms")
                  .find("bad fault target index"),
              std::string::npos);
    // A count is read in its suffix's own unit: 400us is 400,000,000 ps,
    // not the 399,999,999 that scaling through seconds gave.
    FaultSpec f;
    ASSERT_TRUE(parseFaultSpec("flap=aggr0,at=400us,for=60us", f));
    EXPECT_EQ(f.at, microseconds(400));
    EXPECT_EQ(f.duration, microseconds(60));
    // And rounded, not truncated: 1.009 has no exact double, yet 1.009us
    // is 1,009,000 ps.
    ASSERT_TRUE(parseFaultSpec("flap=aggr0,at=1.009us,for=0.4ns", f));
    EXPECT_EQ(f.at, 1'009'000);
    EXPECT_EQ(f.duration, 400);
}

TEST(FaultSpec, ExplainsContradictoryKeys) {
    EXPECT_EQ(parseError("flap=aggr0,at=1ms"), "flap needs for=<duration> > 0");
    EXPECT_EQ(parseError("flap=aggr0,for=1ms,drop=0.1"),
              "flap takes no degrade knobs (bw/delay/drop); use degrade=");
    EXPECT_EQ(parseError("flap=aggr0,for=1ms,count=3"),
              "flap takes no count/gap; use flap-train=");
    EXPECT_EQ(parseError("kill=aggr0,for=1ms"),
              "kill is permanent: 'for' does not apply "
              "(use flap= for a transient outage)");
    EXPECT_EQ(parseError("kill=tor0,bw=0.5"),
              "kill takes no degrade knobs (bw/delay/drop)");
    EXPECT_EQ(parseError("degrade=host0,at=1ms"),
              "degrade needs at least one of bw=, delay=, drop=");
    EXPECT_EQ(parseError("degrade=host0,bw=1.5"), "bw must be in (0, 1]");
    EXPECT_EQ(parseError("degrade=host0,drop=1.0"), "drop must be in [0, 1)");
    EXPECT_EQ(parseError("flap-train=aggr0,for=1ms,gap=1ms"),
              "flap-train needs count=<n> >= 1");
    EXPECT_EQ(parseError("flap-train=aggr0,count=3,for=1ms"),
              "flap-train needs gap=<mean duration> > 0");
    EXPECT_EQ(parseError("flap-train=aggr0,count=3,gap=1ms"),
              "flap-train needs for=<mean down duration> > 0");
}

TEST(FaultSpec, ValidatesTargetsAgainstTopology) {
    const NetworkConfig fat = NetworkConfig::fatTree144();
    const NetworkConfig rack = NetworkConfig::singleRack16();
    FaultSpec f;
    ASSERT_TRUE(parseFaultSpec("flap=aggr3,at=1ms,for=1ms", f));
    EXPECT_EQ(validateFaultSpec(f, fat), "");
    EXPECT_NE(validateFaultSpec(f, rack), "");  // no aggr switches
    ASSERT_TRUE(parseFaultSpec("flap=aggr4,at=1ms,for=1ms", f));
    EXPECT_NE(validateFaultSpec(f, fat), "");  // only 4 aggrs
    ASSERT_TRUE(parseFaultSpec("flap=tor9,at=1ms,for=1ms", f));
    EXPECT_NE(validateFaultSpec(f, fat), "");  // only 9 racks
    ASSERT_TRUE(parseFaultSpec("kill=host15,at=1ms", f));
    EXPECT_EQ(validateFaultSpec(f, rack), "");
    ASSERT_TRUE(parseFaultSpec("kill=host16,at=1ms", f));
    EXPECT_NE(validateFaultSpec(f, rack), "");
}

TEST(FaultSpec, OutOfRangeErrorsNameTheValidRangePerTier) {
    const NetworkConfig fat = NetworkConfig::fatTree144();
    FaultSpec f;
    ASSERT_TRUE(parseFaultSpec("flap=aggr4,at=1ms,for=1ms", f));
    std::string err = validateFaultSpec(f, fat);
    EXPECT_NE(err.find("4 aggregation switches"), std::string::npos) << err;
    EXPECT_NE(err.find("aggr0..aggr3"), std::string::npos) << err;
    ASSERT_TRUE(parseFaultSpec("flap=tor9,at=1ms,for=1ms", f));
    err = validateFaultSpec(f, fat);
    EXPECT_NE(err.find("9 racks"), std::string::npos) << err;
    EXPECT_NE(err.find("tor0..tor8"), std::string::npos) << err;
    ASSERT_TRUE(parseFaultSpec("kill=host144,at=1ms", f));
    err = validateFaultSpec(f, fat);
    EXPECT_NE(err.find("144 hosts"), std::string::npos) << err;
    EXPECT_NE(err.find("host0..host143"), std::string::npos) << err;
}

TEST(FaultSpec, ValidatesCoreTargetsAgainstTheTopology) {
    const NetworkConfig fat = NetworkConfig::fatTree144();
    NetworkConfig tiered = NetworkConfig::fatTree144();
    ASSERT_TRUE(parseTopoSpec("racks=8,aggr=2,core=2,oversub=4", tiered));
    FaultSpec f;
    ASSERT_TRUE(parseFaultSpec("kill=core1,at=1ms", f));
    EXPECT_EQ(f.targetKind, FaultTargetKind::Core);
    EXPECT_EQ(validateFaultSpec(f, tiered), "");
    // No core layer on the paper's two-tier tree.
    std::string err = validateFaultSpec(f, fat);
    EXPECT_NE(err.find("three-tier"), std::string::npos) << err;
    ASSERT_TRUE(parseFaultSpec("kill=core2,at=1ms", f));
    err = validateFaultSpec(f, tiered);
    EXPECT_NE(err.find("2 core switches"), std::string::npos) << err;
    EXPECT_NE(err.find("core0..core1"), std::string::npos) << err;
    // Aggr targets are global across pods: 2 per pod x 2 pods here.
    ASSERT_TRUE(parseFaultSpec("flap=aggr3,at=1ms,for=1ms", f));
    EXPECT_EQ(validateFaultSpec(f, tiered), "");
    ASSERT_TRUE(parseFaultSpec("flap=aggr4,at=1ms,for=1ms", f));
    err = validateFaultSpec(f, tiered);
    EXPECT_NE(err.find("aggr0..aggr3"), std::string::npos) << err;
}

TEST(FaultSpec, ScenarioSpecCarriesFaultSegments) {
    ScenarioConfig sc;
    ASSERT_TRUE(scenarioFromSpec(
        "uniform+ecmp+fault:flap=aggr0,at=50us,for=10us"
        "+fault:degrade=host1,at=0ns,drop=0.01",
        sc));
    EXPECT_TRUE(sc.ecmpUplinks);
    ASSERT_EQ(sc.faults.size(), 2u);
    EXPECT_EQ(sc.faults[0].kind, FaultKind::Flap);
    EXPECT_EQ(sc.faults[0].targetKind, FaultTargetKind::Aggr);
    EXPECT_EQ(sc.faults[1].kind, FaultKind::Degrade);
    EXPECT_EQ(sc.faults[1].targetKind, FaultTargetKind::Host);
}

TEST(FaultSpec, ScenarioSpecExplainsBadFaultSegments) {
    ScenarioConfig sc;
    std::string err;
    EXPECT_FALSE(scenarioFromSpec("uniform+fault:flap=aggr0,at=1ms", sc, &err));
    EXPECT_NE(err.find("bad fault spec"), std::string::npos) << err;
    EXPECT_NE(err.find("flap needs for="), std::string::npos) << err;
    EXPECT_FALSE(scenarioFromSpec("fault:kill=aggr0,at=1ms", sc, &err));
    EXPECT_NE(err.find("cannot come first"), std::string::npos) << err;
    EXPECT_FALSE(scenarioFromSpec("uniform+emcp", sc, &err));
    EXPECT_NE(err.find("unknown scenario modifier"), std::string::npos) << err;
}

TEST(FaultSpec, FaultSeedDerivationIsStableAndDisjoint) {
    // The fault seed is a pure function of the traffic seed, and distinct
    // from it (fault RNG streams must not alias traffic streams).
    EXPECT_EQ(deriveFaultSeed(99), deriveFaultSeed(99));
    EXPECT_NE(deriveFaultSeed(99), deriveFaultSeed(100));
    EXPECT_NE(deriveFaultSeed(99), 99u);
}

// --------------------------------------------------- conservation law

// External packet ledger. "Injected" counts NIC transmission *starts*
// (PortStats::packetsSent); a packet still sitting in a NIC queue has not
// been injected yet and is deliberately excluded from both sides.
struct Ledger {
    uint64_t injected = 0;       // NIC serializations started
    uint64_t delivered = 0;      // packets handed to a host (Host::deliver)
    uint64_t qdiscDrops = 0;     // switch queue-discipline drops (pFabric)
    uint64_t nicQdiscDrops = 0;  // must stay 0: host queues are unbounded
    uint64_t faultDrops = 0;     // all four fault causes
    uint64_t inFlight = 0;       // on a wire, queued in a switch, in transit
};

Ledger audit(Network& net, const FaultStats& faults) {
    Ledger l;
    l.faultDrops = faults.totalDrops();
    for (HostId h = 0; h < net.hostCount(); h++) {
        Host& host = net.host(h);
        l.injected += host.nic().stats().packetsSent;
        l.delivered += host.rxPackets();
        l.nicQdiscDrops += host.nic().qdisc().stats().dropped;
        if (host.nic().busy()) l.inFlight++;
    }
    auto auditSwitch = [&l](Switch& sw) {
        l.inFlight += sw.transitCount();
        for (int i = 0; i < static_cast<int>(sw.portCount()); i++) {
            const EgressPort& p = sw.port(i);
            l.qdiscDrops += p.qdisc().stats().dropped;
            l.inFlight += p.qdisc().queuedPackets();
            if (p.busy()) l.inFlight++;
        }
    };
    for (int r = 0; r < net.rackCount(); r++) auditSwitch(net.tor(r));
    for (int a = 0; a < net.aggrCount(); a++) auditSwitch(net.aggr(a));
    for (int c = 0; c < net.coreCount(); c++) auditSwitch(net.core(c));
    l.inFlight += net.pendingRemotePackets();
    return l;
}

constexpr Protocol kAllProtocols[] = {Protocol::Homa,  Protocol::Basic,
                                      Protocol::PHost, Protocol::Pias,
                                      Protocol::PFabric, Protocol::Ndp};

// Runs open-loop traffic on a small 3-rack fat tree with the given fault
// specs and checks the conservation law. Returns the collected stats so
// callers can assert on specific drop causes.
FaultStats checkConservation(Protocol kind,
                             const std::vector<std::string>& faultBodies,
                             bool ecmp = false,
                             const std::string& topoSpec = "") {
    NetworkConfig netCfg = NetworkConfig::fatTree144();
    netCfg.racks = 3;
    netCfg.hostsPerRack = 4;
    netCfg.aggrSwitches = 2;
    if (!topoSpec.empty()) {
        std::string terr;
        EXPECT_TRUE(parseTopoSpec(topoSpec, netCfg, &terr))
            << topoSpec << ": " << terr;
    }
    if (ecmp) netCfg.uplinkPolicy = UplinkPolicy::Ecmp;

    ProtocolConfig proto;
    proto.kind = kind;
    netCfg.switchQdisc = switchQdiscFor(proto);

    TrafficConfig traffic;
    traffic.workload = WorkloadId::W2;
    traffic.load = 0.6;
    traffic.seed = 7;
    traffic.stop = milliseconds(1);

    std::vector<FaultSpec> faults;
    for (const std::string& body : faultBodies) {
        FaultSpec f;
        std::string err;
        EXPECT_TRUE(parseFaultSpec(body, f, &err)) << body << ": " << err;
        faults.push_back(f);
    }

    Network net(netCfg,
                makeTransportFactory(proto, netCfg, &workload(traffic.workload)));
    FaultTimeline timeline(net, faults, deriveFaultSeed(traffic.seed));
    timeline.schedule();

    TrafficGenerator gen(net, traffic);
    gen.start();
    runNetworkUntil(net, traffic.stop + milliseconds(2));

    const FaultStats stats = timeline.collect();
    const Ledger l = audit(net, stats);
    EXPECT_GT(l.injected, 0u) << protocolName(kind);
    EXPECT_EQ(l.nicQdiscDrops, 0u) << protocolName(kind);
    EXPECT_EQ(l.injected, l.delivered + l.qdiscDrops + l.faultDrops + l.inFlight)
        << protocolName(kind) << ": injected=" << l.injected
        << " delivered=" << l.delivered << " qdiscDrops=" << l.qdiscDrops
        << " wireDrops=" << stats.wireDrops << " probDrops=" << stats.probDrops
        << " deadIngress=" << stats.deadIngressDrops
        << " flushDrops=" << stats.flushDrops << " inFlight=" << l.inFlight;
    return stats;
}

TEST(FaultTimeline, InvalidSpecThrowsBeforeInstallingAnything) {
    NetworkConfig netCfg = NetworkConfig::fatTree144();
    ProtocolConfig proto;
    netCfg.switchQdisc = switchQdiscFor(proto);
    Network net(netCfg, makeTransportFactory(proto, netCfg,
                                             &workload(WorkloadId::W2)));
    FaultSpec flap, outOfRange;
    ASSERT_TRUE(parseFaultSpec("flap=aggr0,at=1us,for=1us", flap));
    ASSERT_TRUE(parseFaultSpec("kill=tor9,at=1us", outOfRange));  // 9 racks
    FaultTimeline bad(net, {flap, outOfRange}, 1);
    try {
        bad.schedule();
        ADD_FAILURE() << "no throw";
    } catch (const std::invalid_argument& e) {
        EXPECT_EQ(std::string(e.what()).rfind(
                      "FaultTimeline: invalid spec 'kill=tor9,at=1.000us': "
                      "tor fault target index 9 out of range",
                      0),
                  0u)
            << e.what();
    }
    // The valid flap ahead of it was not installed either.
    EXPECT_EQ(bad.events().linkDownEvents, 0u);

    // schedule() installs once; a second call would install every action
    // twice.
    FaultTimeline good(net, {flap}, 1);
    good.schedule();
    EXPECT_EQ(good.events().linkDownEvents, 1u);
    EXPECT_THROW(good.schedule(), std::logic_error);
    EXPECT_EQ(good.events().linkDownEvents, 1u);
}

TEST(FaultConservation, NoFaultBaselineBalances) {
    // The ledger itself must balance before faults enter the picture.
    for (Protocol kind : kAllProtocols) {
        const FaultStats fs = checkConservation(kind, {});
        EXPECT_EQ(fs.totalDrops(), 0u) << protocolName(kind);
    }
}

TEST(FaultConservation, LinkFlapAcrossAllProtocols) {
    for (Protocol kind : kAllProtocols) {
        const FaultStats fs =
            checkConservation(kind, {"flap=aggr0,at=200us,for=150us"});
        EXPECT_EQ(fs.linkDownEvents, 1u) << protocolName(kind);
        EXPECT_EQ(fs.linkUpEvents, 1u) << protocolName(kind);
    }
}

TEST(FaultConservation, SwitchDeathWithEcmpAcrossAllProtocols) {
    for (Protocol kind : kAllProtocols) {
        const FaultStats fs =
            checkConservation(kind, {"kill=aggr1,at=300us"}, /*ecmp=*/true);
        EXPECT_EQ(fs.switchKills, 1u) << protocolName(kind);
    }
}

TEST(FaultConservation, DegradedLinksAcrossAllProtocols) {
    for (Protocol kind : kAllProtocols) {
        const FaultStats fs = checkConservation(
            kind, {"degrade=host2,at=100us,for=500us,bw=0.5,delay=2us,drop=0.05",
                   "degrade=aggr0,at=0ns,drop=0.02"});
        EXPECT_EQ(fs.degradeEvents, 2u) << protocolName(kind);
        EXPECT_GT(fs.probDrops, 0u) << protocolName(kind);
    }
}

TEST(FaultConservation, FlapTrainAndTorDeathCompose) {
    for (Protocol kind : {Protocol::Homa, Protocol::Ndp}) {
        const FaultStats fs = checkConservation(
            kind, {"flap-train=aggr1,at=50us,count=4,gap=150us,for=40us",
                   "kill=tor2,at=600us"});
        EXPECT_EQ(fs.linkDownEvents, 4u) << protocolName(kind);
        EXPECT_EQ(fs.switchKills, 1u) << protocolName(kind);
    }
}

TEST(FaultConservation, ThreeTierLedgerBalances) {
    // The same external accounting, now spanning the core tier: every
    // packet parked in a core switch's transit queue or dropped at a
    // dead core's ingress must show up in the ledger.
    for (Protocol kind : kAllProtocols) {
        const FaultStats fs = checkConservation(
            kind, {}, /*ecmp=*/false, "racks=4,aggr=2,core=2,oversub=4");
        EXPECT_EQ(fs.totalDrops(), 0u) << protocolName(kind);
    }
}

TEST(FaultConservation, ThreeTierCoreFaultsBalance) {
    const FaultStats fs = checkConservation(
        Protocol::Homa,
        {"kill=core0,at=300us", "flap=core1,at=200us,for=150us"},
        /*ecmp=*/true, "racks=4,aggr=2,core=2,oversub=4");
    EXPECT_EQ(fs.switchKills, 1u);
    EXPECT_EQ(fs.linkDownEvents, 1u);
    EXPECT_EQ(fs.linkUpEvents, 1u);
}

TEST(FaultConservation, ThreeTierDegradedCoreLinksBalance) {
    for (Protocol kind : {Protocol::Homa, Protocol::PFabric}) {
        const FaultStats fs = checkConservation(
            kind, {"degrade=core0,at=0ns,drop=0.05"},
            /*ecmp=*/false, "racks=4,aggr=2,core=2,oversub=2");
        EXPECT_EQ(fs.degradeEvents, 1u) << protocolName(kind);
        EXPECT_GT(fs.probDrops, 0u) << protocolName(kind);
    }
}

TEST(FaultConservation, HostDeathAndOverlappingFlaps) {
    // The tor0 and aggr0 windows overlap on the shared tor0<->aggr0 links:
    // the nesting down-count must keep them down until *both* windows end,
    // and the ledger must still balance with a host dead underneath.
    const FaultStats fs = checkConservation(
        Protocol::Homa, {"kill=host5,at=250us", "flap=tor0,at=200us,for=300us",
                         "flap=aggr0,at=300us,for=300us"});
    EXPECT_EQ(fs.linkDownEvents, 2u);
    EXPECT_EQ(fs.switchKills, 1u);
}

TEST(FaultConservation, SerialAndParallelLedgersAgree) {
    // The same faulted run through the parallel engine must produce the
    // same ledger (drops by cause included) — the shard-local fault
    // scheduling argument, checked at the accounting level.
    NetworkConfig netCfg = NetworkConfig::fatTree144();
    netCfg.racks = 3;
    netCfg.hostsPerRack = 4;
    netCfg.aggrSwitches = 2;
    ProtocolConfig proto;
    netCfg.switchQdisc = switchQdiscFor(proto);
    TrafficConfig traffic;
    traffic.workload = WorkloadId::W2;
    traffic.load = 0.6;
    traffic.seed = 7;
    traffic.stop = milliseconds(1);
    FaultSpec flap;
    ASSERT_TRUE(parseFaultSpec("flap=aggr0,at=200us,for=150us", flap));

    auto run = [&](int shards) {
        Network net(netCfg,
                    makeTransportFactory(proto, netCfg,
                                         &workload(traffic.workload)),
                    shards);
        FaultTimeline timeline(net, {flap}, deriveFaultSeed(traffic.seed));
        timeline.schedule();
        TrafficGenerator gen(net, traffic);
        gen.start();
        runNetworkUntil(net, traffic.stop + milliseconds(2));
        const FaultStats fs = timeline.collect();
        Ledger l = audit(net, fs);
        EXPECT_EQ(l.injected,
                  l.delivered + l.qdiscDrops + l.faultDrops + l.inFlight)
            << shards << " shards";
        return std::make_tuple(l.injected, l.delivered, fs.wireDrops,
                               fs.probDrops);
    };
    EXPECT_EQ(run(1), run(3));
}

// ------------------------------------------------------ recovery paths

struct Delivered {
    Message msg;
    DeliveryInfo info;
};

// Network-level Homa fixture (mirrors test_homa_e2e) with direct access
// to port fault hooks, for flaps that target one *direction* of a link.
struct HomaFixture {
    NetworkConfig cfg;
    std::unique_ptr<Network> net;
    std::vector<Delivered> delivered;

    explicit HomaFixture(HomaConfig homa = {})
        : cfg(NetworkConfig::fatTree144()) {
        net = std::make_unique<Network>(
            cfg, HomaTransport::factory(homa, cfg, &workload(WorkloadId::W3)));
        net->setDeliveryCallback([this](const Message& m, const DeliveryInfo& i) {
            delivered.push_back({m, i});
        });
    }

    Message send(HostId src, HostId dst, uint32_t len) {
        Message m;
        m.id = net->nextMsgId();
        m.src = src;
        m.dst = dst;
        m.length = len;
        net->sendMessage(m);
        m.created = net->loop().now();
        return m;
    }

    HomaReceiver& rx(HostId h) {
        return static_cast<HomaTransport&>(net->host(h).transport()).receiver();
    }
};

TEST(FaultRecovery, FlapEatingGrantsRecoversViaResend) {
    // 500 KB cross-rack transfer; the *receiver's* NIC (the link carrying
    // grants) goes down for longer than the resend timeout. The sender
    // stalls once granted bytes run out; the receiver's timeout machinery
    // must RESEND and the transfer must still complete after the link
    // returns.
    HomaFixture f;
    const Message m = f.send(0, 17, 500 * 1000);
    EgressPort& grantLink = f.net->host(17).nic();
    f.net->loop().at(microseconds(100), [&] { grantLink.faultLinkDown(); });
    f.net->loop().at(microseconds(100) + milliseconds(3),
                     [&] { grantLink.faultLinkUp(); });
    f.net->loop().run();
    ASSERT_EQ(f.delivered.size(), 1u);
    EXPECT_EQ(f.delivered[0].msg.id, m.id);
    EXPECT_GE(f.rx(17).resendsSent(), 1u);
    EXPECT_EQ(f.rx(17).abortedMessages(), 0u);
}

TEST(FaultRecovery, FlapEatingDataRecoversViaResend) {
    // Same transfer, but the *sender's* NIC (the link carrying data) goes
    // down: the on-wire data packet is killed (a real loss, not just a
    // delay), so recovery must retransmit the gap, not merely drain queues.
    HomaFixture f;
    const Message m = f.send(0, 17, 500 * 1000);
    EgressPort& dataLink = f.net->host(0).nic();
    f.net->loop().at(microseconds(100), [&] { dataLink.faultLinkDown(); });
    f.net->loop().at(microseconds(100) + milliseconds(3),
                     [&] { dataLink.faultLinkUp(); });
    f.net->loop().run();
    EXPECT_GE(dataLink.stats().faultWireDrops, 1u);  // mid-serialization kill
    ASSERT_EQ(f.delivered.size(), 1u);
    EXPECT_EQ(f.delivered[0].msg.id, m.id);
    EXPECT_GE(f.rx(17).resendsSent(), 1u);
}

TEST(FaultRecovery, ReceiverAbortsWhenSenderDiesPermanently) {
    // The sender's host links die mid-transfer and never return. The
    // receiver must burn through its RESEND budget and abort the partial
    // message instead of spinning forever.
    HomaFixture f;
    f.send(0, 17, 500 * 1000);
    f.net->loop().at(microseconds(100), [&] {
        f.net->host(0).nic().faultKill();
        f.net->downlink(0).faultKill();
    });
    f.net->loop().run();
    EXPECT_TRUE(f.delivered.empty());
    EXPECT_EQ(f.rx(17).abortedMessages(), 1u);
    EXPECT_GE(f.rx(17).resendsSent(), 1u);
}

TEST(FaultRecovery, ClosedLoopWindowRefillsAfterFlap) {
    // Closed-loop traffic through a mid-run aggr flap: the delivery-driven
    // refill chain must resume after the outage (completions far beyond
    // the initial windows) without ever exceeding the window bound.
    ExperimentConfig cfg;
    cfg.traffic.workload = WorkloadId::W1;
    cfg.traffic.stop = milliseconds(2);
    cfg.drainGrace = milliseconds(20);
    cfg.traffic.scenario.kind = TrafficPatternKind::ClosedLoop;
    cfg.traffic.scenario.closedLoopWindow = 4;
    FaultSpec flap;
    ASSERT_TRUE(parseFaultSpec("flap=aggr0,at=500us,for=300us", flap));
    cfg.traffic.scenario.faults.push_back(flap);

    const ExperimentResult r = runExperiment(cfg);
    ASSERT_TRUE(r.faults);
    EXPECT_EQ(r.faults->linkDownEvents, 1u);
    ASSERT_TRUE(r.closedLoop);
    const uint64_t initialWindows =
        static_cast<uint64_t>(cfg.net.hostCount()) * 4u;
    EXPECT_GT(r.closedLoop->totalCompleted(), initialWindows);
    EXPECT_LE(r.maxOutstanding, 4);
}

TEST(FaultRecovery, DagTreesCompleteDespiteMidRunFlap) {
    // Fan-out/fan-in trees keep completing through an aggr outage: a flap
    // in the middle of the run delays but must not wedge the cascade.
    ExperimentConfig cfg;
    cfg.traffic.workload = WorkloadId::W1;
    cfg.traffic.stop = milliseconds(2);
    cfg.drainGrace = milliseconds(20);
    cfg.traffic.scenario.kind = TrafficPatternKind::Dag;
    cfg.traffic.scenario.dag.fanout = 4;
    cfg.traffic.scenario.dag.depth = 2;
    cfg.traffic.scenario.dag.roots = 8;
    FaultSpec flap;
    ASSERT_TRUE(parseFaultSpec("flap=aggr1,at=500us,for=200us", flap));
    cfg.traffic.scenario.faults.push_back(flap);

    const ExperimentResult r = runExperiment(cfg);
    ASSERT_TRUE(r.faults);
    EXPECT_EQ(r.faults->linkDownEvents, 1u);
    ASSERT_TRUE(r.dag);
    EXPECT_GT(r.dag->trees(), 0u);
}

TEST(FaultRecovery, EcmpReroutesAroundDeadAggr) {
    // With ECMP uplinks a dead aggregation switch reroutes: traffic keeps
    // completing after the kill instead of blackholing into dead queues.
    ExperimentConfig cfg;
    cfg.traffic.workload = WorkloadId::W2;
    cfg.traffic.load = 0.5;
    cfg.traffic.stop = milliseconds(2);
    cfg.drainGrace = milliseconds(20);
    cfg.traffic.scenario.ecmpUplinks = true;
    FaultSpec kill;
    ASSERT_TRUE(parseFaultSpec("kill=aggr0,at=200us", kill));
    cfg.traffic.scenario.faults.push_back(kill);

    const ExperimentResult r = runExperiment(cfg);
    ASSERT_TRUE(r.faults);
    EXPECT_EQ(r.faults->switchKills, 1u);
    EXPECT_GT(r.delivered, 0u);
    // The vast majority of messages created after the kill still complete;
    // keptUp is the harness's bounded-backlog check.
    EXPECT_TRUE(r.keptUp);
}

// --------------------------------------------- CLI misuse (--fault/--ecmp)

#ifdef HOMA_RUN_EXPERIMENT_BIN

int runCli(const std::string& args) {
    const std::string cmd = std::string(HOMA_RUN_EXPERIMENT_BIN) + " " +
                            args + " > /dev/null 2>&1";
    const int status = std::system(cmd.c_str());
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

TEST(FaultCli, RejectsBadFaultSpecs) {
    // Usage errors exit with status 2.
    EXPECT_EQ(runCli("--fault flap=aggr0,at=1ms"), 2);       // missing for=
    EXPECT_EQ(runCli("--fault kill=aggr0,for=1ms"), 2);      // kill + for
    EXPECT_EQ(runCli("--fault degrade=host0,at=1ms"), 2);    // no knobs
    EXPECT_EQ(runCli("--fault bogus=aggr0,at=1ms"), 2);      // unknown kind
    EXPECT_EQ(runCli("--fault flap=aggr0,for=10"), 2);       // unitless time
}

TEST(FaultCli, RejectsTargetsOutsideTheTopology) {
    EXPECT_EQ(runCli("--fault flap=aggr9,at=1ms,for=1ms"), 2);   // 4 aggrs
    EXPECT_EQ(runCli("--fault kill=tor9,at=1ms"), 2);            // 9 racks
    // Target validation runs against the *final* topology, so flag order
    // must not matter.
    EXPECT_EQ(runCli("--fault flap=aggr0,at=1ms,for=1ms --single-rack"), 2);
    EXPECT_EQ(runCli("--single-rack --fault flap=aggr0,at=1ms,for=1ms"), 2);
    EXPECT_EQ(runCli("--ecmp --single-rack"), 2);  // no uplinks to hash over
}

// Captures the combined stdout+stderr of a CLI misuse run so the tests
// can check that the error names the valid target range for the tier.
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

TEST(FaultCli, TargetErrorsNameTheValidRangePerTier) {
    std::string out = runCliOutput("--fault flap=aggr9,at=1ms,for=1ms");
    EXPECT_NE(out.find("aggr0..aggr3"), std::string::npos) << out;
    out = runCliOutput("--fault kill=tor9,at=1ms");
    EXPECT_NE(out.find("tor0..tor8"), std::string::npos) << out;
    out = runCliOutput("--fault kill=host144,at=1ms");
    EXPECT_NE(out.find("host0..host143"), std::string::npos) << out;
    // Core targets need a three-tier --topo; the default tree has none.
    out = runCliOutput("--fault kill=core0,at=1ms");
    EXPECT_NE(out.find("three-tier"), std::string::npos) << out;
    out = runCliOutput(
        "--topo racks=8,aggr=2,core=2 --fault kill=core5,at=1ms");
    EXPECT_NE(out.find("core0..core1"), std::string::npos) << out;
}

TEST(FaultCli, ValidatesTopoSpecsAndCoreTargets) {
    // A core target becomes valid once --topo grows a core layer.
    EXPECT_EQ(runCli("--fault kill=core0,at=1ms"), 2);
    EXPECT_EQ(runCli("--topo racks=8,aggr=2,core=2 --fault kill=core5,at=1ms"),
              2);
    EXPECT_EQ(runCli("--topo racks=9,hosts=0"), 2);      // bad shape
    EXPECT_EQ(runCli("--topo racks=8,pods=3,core=2"), 2);  // pods must divide
    EXPECT_EQ(runCli("--topo bogus=1"), 2);              // unknown key
    EXPECT_EQ(runCli("--topo racks=4 --single-rack"), 2);  // contradiction
}

#endif  // HOMA_RUN_EXPERIMENT_BIN

}  // namespace
}  // namespace homa
