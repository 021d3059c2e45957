#include "driver/experiment.h"

#include <cassert>
#include <iterator>
#include <stdexcept>

#include "baselines/basic_transport.h"
#include "baselines/ndp.h"
#include "baselines/pfabric.h"
#include "baselines/phost.h"
#include "baselines/pias.h"
#include "baselines/streaming.h"

namespace homa {

namespace {

// A transport factory's parameters, as the rows below spell them.
using Proto = const ProtocolConfig&;
using Net = const NetworkConfig&;
using Workload = const SizeDistribution*;

/// Homa and Basic seed their unscheduled priorities from the workload
/// only when asked to (§4); otherwise they allocate them online (§3.4).
Workload precomputed(Proto proto, Workload workload) {
    return proto.precomputePriorities ? workload : nullptr;
}

/// A commodity switch, with buffers large enough that Homa, Basic, pHost
/// and the streams do not drop (Table 1 validates).
std::unique_ptr<Qdisc> commoditySwitch() {
    return std::make_unique<StrictPriorityQdisc>();
}

/// Everything the driver knows about one protocol.
struct ProtocolRow {
    Protocol kind;
    const char* name;
    TransportFactory (*factory)(Proto, Net, Workload);
    std::unique_ptr<Qdisc> (*switchQdisc)();
};

/// One row per Protocol, in enumerator order.
constexpr ProtocolRow kProtocols[] = {
    {Protocol::Homa, "Homa",
     [](Proto proto, Net net, Workload wl) {
         return HomaTransport::factory(proto.homa, net, precomputed(proto, wl));
     },
     commoditySwitch},
    {Protocol::Basic, "Basic",
     [](Proto proto, Net net, Workload wl) {
         HomaConfig cfg = basicTransportConfig();
         cfg.rttBytes = proto.homa.rttBytes;
         return HomaTransport::factory(cfg, net, precomputed(proto, wl));
     },
     commoditySwitch},
    {Protocol::PHost, "pHost",
     [](Proto, Net net, Workload) { return PHostTransport::factory(net); },
     commoditySwitch},
    {Protocol::Pias, "PIAS",
     [](Proto, Net net, Workload wl) { return PiasTransport::factory(net, wl); },
     []() -> std::unique_ptr<Qdisc> {
         StrictPriorityOptions o;
         o.ecnThresholdBytes = PiasTransport::kEcnThresholdBytes;
         return std::make_unique<StrictPriorityQdisc>(o);
     }},
    {Protocol::PFabric, "pFabric",
     [](Proto, Net net, Workload) { return PFabricTransport::factory(net); },
     []() -> std::unique_ptr<Qdisc> {
         return std::make_unique<PFabricQdisc>(
             PFabricOptions{PFabricTransport::kSwitchBufferBytes});
     }},
    {Protocol::Ndp, "NDP",
     [](Proto, Net net, Workload) { return NdpTransport::factory(net); },
     []() -> std::unique_ptr<Qdisc> {
         StrictPriorityOptions o;
         o.capBytes = NdpTransport::kSwitchBufferBytes;
         o.trimOnOverflow = true;
         return std::make_unique<StrictPriorityQdisc>(o);
     }},
    {Protocol::StreamSC, "Stream-SC",
     [](Proto, Net, Workload) {
         return StreamingTransport::factory(/*multiConnection=*/false);
     },
     commoditySwitch},
    {Protocol::StreamMC, "Stream-MC",
     [](Proto, Net, Workload) {
         return StreamingTransport::factory(/*multiConnection=*/true);
     },
     commoditySwitch},
};
static_assert([] {
    for (size_t i = 0; i < std::size(kProtocols); i++) {
        if (kProtocols[i].kind != static_cast<Protocol>(i)) return false;
    }
    return std::size(kProtocols) == static_cast<size_t>(kProtocolCount);
}(), "kProtocols needs one row per Protocol, in enumerator order");

const ProtocolRow& rowOf(Protocol p) {
    const auto i = static_cast<size_t>(p);
    assert(i < std::size(kProtocols));
    return kProtocols[i];
}

}  // namespace

const char* protocolName(Protocol p) { return rowOf(p).name; }

bool protocolFromName(const std::string& name, Protocol& out) {
    for (const ProtocolRow& row : kProtocols) {
        if (name == row.name) {
            out = row.kind;
            return true;
        }
    }
    return false;
}

TransportFactory makeTransportFactory(const ProtocolConfig& proto,
                                      const NetworkConfig& net,
                                      const SizeDistribution* workload) {
    return rowOf(proto.kind).factory(proto, net, workload);
}

std::function<std::unique_ptr<Qdisc>()> switchQdiscFor(
    const ProtocolConfig& proto) {
    return rowOf(proto.kind).switchQdisc;
}

namespace {

uint64_t sumDrops(Network& net, bool trims) {
    uint64_t total = 0;
    auto add = [&](const EgressPort* p) {
        total += trims ? p->qdisc().stats().trimmed : p->qdisc().stats().dropped;
        // Fault-injection losses at switch ports count as switch drops
        // too: a packet mid-wire when the link died, or lost on a
        // degraded link (both zero on healthy fabrics).
        if (!trims) {
            total += p->stats().faultWireDrops + p->stats().faultProbDrops;
        }
    };
    for (const auto* p : net.torDownlinkPorts()) add(p);
    for (const auto* p : net.torUplinkPorts()) add(p);
    for (const auto* p : net.aggrDownlinkPorts()) add(p);
    for (const auto* p : net.aggrUplinkPorts()) add(p);
    for (const auto* p : net.coreDownlinkPorts()) add(p);
    if (!trims) {
        // A dead switch's discarded arrivals and flushed queues as well.
        for (int r = 0; r < net.rackCount(); r++) {
            total += net.tor(r).deadIngressDrops() + net.tor(r).flushDrops();
        }
        for (int a = 0; a < net.aggrCount(); a++) {
            total += net.aggr(a).deadIngressDrops() + net.aggr(a).flushDrops();
        }
        for (int c = 0; c < net.coreCount(); c++) {
            total += net.core(c).deadIngressDrops() + net.core(c).flushDrops();
        }
    }
    return total;
}

/// Mean busy fraction of a port group over the run (1.0 = always on wire).
double meanBusyFraction(const std::vector<const EgressPort*>& ports,
                        Time elapsed) {
    if (ports.empty() || elapsed <= 0) return 0;
    double busy = 0;
    for (const auto* p : ports) {
        busy += static_cast<double>(p->stats().busyTime);
    }
    return busy / (static_cast<double>(elapsed) *
                   static_cast<double>(ports.size()));
}

/// Effective fluid threshold: the scenario's "fluid:" modifier wins over
/// the config knob (mirroring the topo: override); -1 = no fluid path.
int64_t effectiveFluidThreshold(const ExperimentConfig& cfg) {
    return cfg.traffic.scenario.fluidThresholdBytes >= 0
               ? cfg.traffic.scenario.fluidThresholdBytes
               : cfg.fluidThresholdBytes;
}

/// Poisson arrivals at `load`; closed-loop, dag and trace runs set their
/// own rate.
bool openLoop(const ScenarioConfig& sc) {
    return sc.kind != TrafficPatternKind::ClosedLoop &&
           sc.kind != TrafficPatternKind::Dag &&
           sc.kind != TrafficPatternKind::TraceReplay;
}

/// Shards to request from the Network. Closed-loop and DAG scenarios have
/// zero-lookahead feedback (a delivery on the destination's shard refills
/// the source's window at the same instant), the wasted-bandwidth
/// probe samples every host from one event, and the fluid engine keeps
/// its flow set and rate solver on shard 0's loop; those run serially
/// whatever `threads` says. The Network further caps by rack count.
int requestedShards(const ExperimentConfig& cfg) {
    const TrafficPatternKind kind = cfg.traffic.scenario.kind;
    const bool shardable = kind != TrafficPatternKind::ClosedLoop &&
                           kind != TrafficPatternKind::Dag &&
                           !cfg.measureWastedBandwidth &&
                           effectiveFluidThreshold(cfg) < 0;
    return shardable ? std::max(1, cfg.parallel.threads) : 1;
}

/// Per-edge unloaded cost for DAG tree slowdown: Oracle::bestOneWay with
/// the intra-rack path when src/dst share a rack. `net` and `oracle` must
/// outlive the returned function.
DagCostFn dagOracleCost(Network& net, const Oracle& oracle) {
    return [&net, &oracle](HostId a, HostId b, uint32_t bytes) {
        return oracle.bestOneWay(bytes, net.rackOf(a) == net.rackOf(b));
    };
}

}  // namespace

std::string homaConfigError(const HomaConfig& cfg) {
    if (cfg.wirePriorities < 1 || cfg.wirePriorities > 8) {
        return "Homa wire priorities must be in [1, 8]";
    }
    if (cfg.logicalPriorities < 2 || cfg.logicalPriorities > 8) {
        return "Homa logical priorities must be in [2, 8]";
    }
    if (cfg.unschedPriorities >= cfg.logicalPriorities) {
        return "Homa unscheduled priorities must be below the logical "
               "priorities (" + std::to_string(cfg.logicalPriorities) +
               "), leaving a scheduled level";
    }
    if (!(cfg.oldestReservation >= 0 && cfg.oldestReservation <= 1)) {
        return "Homa oldest-message reservation must be in [0, 1]";
    }
    if (cfg.resendTimeout <= 0) return "Homa resend timeout must be > 0";
    if (cfg.maxResends < 0) return "Homa max resends must be >= 0";
    if (cfg.senderLinger < 0) return "Homa sender linger must be >= 0";
    return "";
}

std::string experimentConfigError(const ExperimentConfig& cfg) {
    const ScenarioConfig& sc = cfg.traffic.scenario;
    // Silently running the uniform placeholder pattern would measure
    // nothing a serving spec asked for.
    if (sc.serving.enabled()) {
        return "serving scenarios (tenants) must run through "
               "runRpcExperiment";
    }
    const std::string scenario = scenarioError(sc);
    if (!scenario.empty()) return scenario;
    // The scenario's topology ("topo:..." modifier) applies over the
    // configured base; if the two fight, refuse rather than run the wrong
    // topology. Faults and ECMP check against the result.
    NetworkConfig net = cfg.net;
    std::string topo;
    if (!sc.topoSpec.empty() && !parseTopoSpec(sc.topoSpec, net, &topo)) {
        return "bad topo spec '" + sc.topoSpec + "': " + topo;
    }
    topo = validateTopoConfig(net);
    if (!topo.empty()) return topo;
    if (cfg.proto.kind == Protocol::Homa) {
        const std::string homa = homaConfigError(cfg.proto.homa);
        if (!homa.empty()) return homa;
    }
    // Fluid flows bypass the switches faults act on; a hybrid fault run
    // would silently break conservation.
    if (effectiveFluidThreshold(cfg) >= 0 && !sc.faults.empty()) {
        return "fluid does not compose with fault injection: fluid flows "
               "bypass the switches faults act on";
    }
    for (const FaultSpec& fault : sc.faults) {
        const std::string why = validateFaultSpec(fault, net);
        if (!why.empty()) {
            return "fault '" + faultSpecToString(fault) + "': " + why;
        }
    }
    if (sc.ecmpUplinks && net.singleRack()) {
        return "ecmp needs uplinks: a single rack has none to hash across";
    }
    // An unreadable trace is found here, before anything is built, so no
    // caller (a sweep's worker thread included) meets it mid-run.
    if (sc.kind == TrafficPatternKind::TraceReplay) {
        try {
            loadTrace(sc, net.hostCount());
        } catch (const std::invalid_argument& e) {
            return e.what();
        }
    }
    // Above 1 is deliberate overload; 0, negative or NaN would never
    // generate.
    if (openLoop(sc) && !(cfg.traffic.load > 0 && cfg.traffic.load <= 1.5)) {
        return "open-loop load must be in (0, 1.5]";
    }
    if (cfg.traffic.stop <= cfg.traffic.start) {
        return "traffic.stop must be after traffic.start";
    }
    if (!(cfg.warmupFraction >= 0 && cfg.warmupFraction <= 1)) {
        return "warmupFraction must be in [0, 1]";
    }
    return "";
}

ExperimentResult runExperiment(const ExperimentConfig& cfg) {
    const std::string invalid = experimentConfigError(cfg);
    if (!invalid.empty()) {
        throw std::invalid_argument("runExperiment: " + invalid);
    }
    const SizeDistribution& dist = workload(cfg.traffic.workload);

    NetworkConfig netCfg = cfg.net;
    if (!cfg.traffic.scenario.topoSpec.empty()) {
        // experimentConfigError has checked that it applies.
        parseTopoSpec(cfg.traffic.scenario.topoSpec, netCfg);
    }
    if (!netCfg.switchQdisc) netCfg.switchQdisc = switchQdiscFor(cfg.proto);
    if (cfg.traffic.scenario.ecmpUplinks) {
        netCfg.uplinkPolicy = UplinkPolicy::Ecmp;
    }

    const int64_t fluidThreshold = effectiveFluidThreshold(cfg);
    Network net(netCfg, makeTransportFactory(cfg.proto, netCfg, &dist),
                requestedShards(cfg));
    Oracle oracle(netCfg);
    const int n = net.hostCount();

    // Fluid fast path: long messages become max-min-fair fluid flows on
    // shard 0's loop (fluid runs are always serial, see requestedShards);
    // the capacity reservation hands the packet regime its expected byte
    // share (open-loop Poisson only — closed-loop/dag/trace loads are
    // endogenous, and their fluid capacity stays unscaled).
    std::unique_ptr<FluidEngine> fluidEngine;
    if (fluidThreshold >= 0) {
        FluidConfig fc;
        fc.thresholdBytes = fluidThreshold;
        if (openLoop(cfg.traffic.scenario) && fluidThreshold > 0) {
            fc.reservedFraction =
                cfg.traffic.load *
                dist.byteWeightedCdf(static_cast<double>(fluidThreshold));
        }
        fc.bestOneWay = [&oracle](uint32_t size, bool intraRack) {
            return oracle.bestOneWay(size, intraRack);
        };
        fluidEngine =
            std::make_unique<FluidEngine>(net.loop(), netCfg, std::move(fc));
        net.setMessageInterceptor(
            [eng = fluidEngine.get()](const Message& m) {
                return eng->offer(m);
            });
    }

    // Fault timeline first, right after construction: setup-scheduled
    // events sort before any runtime event at the same instant on their
    // shard's loop (EventLoop ordering contract), so fault transitions
    // apply before same-instant traffic in serial and parallel alike.
    std::unique_ptr<FaultTimeline> faults;
    if (!cfg.traffic.scenario.faults.empty()) {
        faults = std::make_unique<FaultTimeline>(
            net, cfg.traffic.scenario.faults,
            deriveFaultSeed(cfg.traffic.seed));
        faults->schedule();
    }

    ExperimentResult result;
    result.shards = net.shardCount();

    const Time genStart = cfg.traffic.start;
    const Time genStop = cfg.traffic.stop;
    const Time windowStart =
        genStart + static_cast<Time>(cfg.warmupFraction *
                                     static_cast<double>(genStop - genStart));
    result.windowStart = windowStart;
    result.windowEnd = genStop;

    // All counters are per-host, with cell h only ever touched from host
    // h's shard: creation-side cells are indexed by m.src (the generator
    // emits on the source shard), delivery-side cells by m.dst
    // (transports deliver on the destination shard). Reducing them in
    // ascending host order afterwards — in the serial engine too — makes
    // every statistic a pure function of the simulated events. Slowdowns
    // go into one tracker per shard, which keeps per-host decile sums so
    // its means add in host order as well (stats/slowdown.h). The Oracle
    // is immutable, so every shard reads the one above.
    std::vector<uint64_t> inWindowGenerated(n, 0), inWindowDelivered(n, 0);
    std::vector<uint64_t> deliveredTotal(n, 0);
    std::vector<int64_t> generatedBytesAll(n, 0), deliveredBytesAll(n, 0);
    std::vector<SlowdownTracker> slowdowns;
    slowdowns.reserve(static_cast<size_t>(result.shards));
    for (int s = 0; s < result.shards; s++) {
        slowdowns.emplace_back(dist, oracle.oneWayFn(), n);
    }

    TrafficGenerator gen(net, cfg.traffic, [&](const Message& m) {
        generatedBytesAll[m.src] += m.length;
        // Upper bound matters for dag mode: the tree cascade keeps
        // emitting during the drain, and a message created past genStop
        // can never count as delivered below — without the bound those
        // emissions would deflate keptUp for healthy closed-loop trees.
        if (m.created >= windowStart && m.created < genStop) {
            inWindowGenerated[m.src]++;
        }
    });

    const bool closedLoop =
        cfg.traffic.scenario.kind == TrafficPatternKind::ClosedLoop;
    if (closedLoop) {
        result.closedLoop = std::make_unique<ClosedLoopTracker>(
            net.hostCount(), windowStart, genStop);
    }
    const bool dagMode = cfg.traffic.scenario.kind == TrafficPatternKind::Dag;
    if (dagMode) {
        result.dag = std::make_unique<DagTracker>(
            dagRootCount(cfg.traffic.scenario.dag, net.hostCount()),
            windowStart, genStop);
        gen.setDagCost(dagOracleCost(net, oracle));
        gen.setOnTreeComplete([&result](const DagTreeResult& t) {
            result.dag->record(t.root, t.nodes, t.bytes,
                               t.completed - t.issued, t.ideal, t.completed);
        });
    }

    // One delivery path for both regimes: packet transports invoke this via
    // Network::setDeliveryCallback, the fluid engine invokes the same
    // callable directly — so slowdowns, ledgers, closed-loop windows, and
    // keptUp see fluid deliveries exactly like packet ones.
    Transport::DeliveryCallback onDelivery =
        [&](const Message& m, const DeliveryInfo& info) {
        deliveredTotal[m.dst]++;
        deliveredBytesAll[m.dst] += m.length;
        // Closed loop: every delivery frees a window slot, warm-up and
        // drain included (the loop must keep turning outside the window).
        // (Closed-loop and dag runs are always single-shard, so the
        // cross-host writes inside gen/closedLoop are single-threaded.)
        gen.onDelivered(m);
        if (result.closedLoop) {
            result.closedLoop->record(m.src, m.length,
                                      info.completed - m.created,
                                      info.completed);
        }
        if (m.created < windowStart || m.created >= genStop) return;
        inWindowDelivered[m.dst]++;
        const bool intraRack = net.rackOf(m.src) == net.rackOf(m.dst);
        slowdowns[net.shardOfHost(m.dst)].recordWithBest(
            m.length, info.completed - m.created,
            oracle.bestOneWay(m.length, intraRack), info.queueingDelay,
            info.preemptionLag, m.dst);
    };
    net.setDeliveryCallback(onDelivery);
    if (fluidEngine) fluidEngine->setDeliveryCallback(onDelivery);

    WastedBandwidthProbe probe(net);
    if (cfg.measureWastedBandwidth) probe.start(windowStart, genStop);

    // Snapshot port stats at the window edges so utilization and queue
    // stats cover only the measurement window. Snapshots are per-host
    // cells written by one event per shard (a host's downlink port lives
    // on its TOR, i.e. on its own shard; its byte counters likewise), then
    // reduced in host order after the run.
    struct HostSnapshot {
        double downlinkWire = 0;
        std::array<double, kPriorityLevels> prioWire{};
        int64_t backlogBytes = 0;  // generated - delivered so far
    };
    std::vector<HostSnapshot> startSnap(n), endSnap(n);
    auto snapshotShard = [&](int shard, std::vector<HostSnapshot>& out) {
        for (HostId h = 0; h < n; h++) {
            if (net.shardOfHost(h) != shard) continue;
            const auto& st = net.downlink(h).stats();
            out[h].downlinkWire = static_cast<double>(st.wireBytesSent);
            for (int p = 0; p < kPriorityLevels; p++) {
                out[h].prioWire[p] = static_cast<double>(st.bytesByPriority[p]);
            }
            out[h].backlogBytes = generatedBytesAll[h] - deliveredBytesAll[h];
        }
    };
    for (int s = 0; s < net.shardCount(); s++) {
        net.shardLoop(s).at(windowStart,
                            [&snapshotShard, &startSnap, s] {
                                snapshotShard(s, startSnap);
                            });
        net.shardLoop(s).at(genStop, [&snapshotShard, &endSnap, s] {
            snapshotShard(s, endSnap);
        });
    }

    gen.start();
    // Run generation plus drain (windowed lock-step when sharded).
    runNetworkUntil(net, genStop + cfg.drainGrace);

    uint64_t generatedSum = 0, deliveredSum = 0;
    int64_t backlogStart = 0, backlogEnd = 0;
    struct Snapshot {
        double downlinkWire = 0;
        std::array<double, kPriorityLevels> prioWire{};
    };
    Snapshot startTotals, endTotals;
    for (HostId h = 0; h < n; h++) {
        generatedSum += inWindowGenerated[h];
        deliveredSum += inWindowDelivered[h];
        result.deliveredTotal += deliveredTotal[h];
        backlogStart += startSnap[h].backlogBytes;
        backlogEnd += endSnap[h].backlogBytes;
        startTotals.downlinkWire += startSnap[h].downlinkWire;
        endTotals.downlinkWire += endSnap[h].downlinkWire;
        for (int p = 0; p < kPriorityLevels; p++) {
            startTotals.prioWire[p] += startSnap[h].prioWire[p];
            endTotals.prioWire[p] += endSnap[h].prioWire[p];
        }
    }
    result.slowdown = std::make_unique<SlowdownTracker>(
        SlowdownTracker::merge(std::move(slowdowns)));

    result.generated = generatedSum;
    result.delivered = deliveredSum;
    result.maxOutstanding = gen.maxOutstanding();
    result.wastedBandwidth = probe.wastedFraction();

    const Time window = genStop - windowStart;
    double capacity = 0;
    for (HostId h = 0; h < net.hostCount(); h++) {
        capacity +=
            static_cast<double>(net.downlink(h).bandwidth().bytesIn(window));
    }
    result.downlinkUtilization =
        capacity > 0
            ? (endTotals.downlinkWire - startTotals.downlinkWire) / capacity
            : 0;
    for (int p = 0; p < kPriorityLevels; p++) {
        result.prioUsage[p] =
            capacity > 0
                ? (endTotals.prioWire[p] - startTotals.prioWire[p]) / capacity
                : 0;
    }

    // Queue stats over the whole run (warm-up included; it only lowers the
    // time-weighted means slightly since warm-up load is no higher).
    const Time elapsed = net.loop().now();
    result.torUp = summarizeQueues(net.torUplinkPorts(), elapsed);
    result.aggrDown = summarizeQueues(net.aggrDownlinkPorts(), elapsed);
    result.torDown = summarizeQueues(net.torDownlinkPorts(), elapsed);
    if (netCfg.threeTier()) {
        result.coreSwitches = netCfg.coreSwitches;
        result.aggrUp = summarizeQueues(net.aggrUplinkPorts(), elapsed);
        result.coreDown = summarizeQueues(net.coreDownlinkPorts(), elapsed);
        result.aggrLinkUtilization =
            meanBusyFraction(net.torUplinkPorts(), elapsed);
        result.coreLinkUtilization =
            meanBusyFraction(net.aggrUplinkPorts(), elapsed);
    }
    result.switchDrops = sumDrops(net, false);
    result.switchTrims = sumDrops(net, true);
    if (faults) {
        result.faults = std::make_unique<FaultStats>(faults->collect());
    }
    if (fluidEngine) {
        result.fluid = std::make_unique<FluidStats>(fluidEngine->stats());
    }

    // Kept up = the backlog of undelivered bytes did not grow over the
    // measurement window (beyond heavy-tail noise and in-flight slack),
    // AND the drain eventually delivered what the window generated. The
    // backlog criterion matters: an overloaded run can still drain a small
    // window during a long grace period.
    const double bytesPerSecondPerHost =
        1e12 / static_cast<double>(netCfg.hostLink.psPerByte);
    const double offeredInWindow = static_cast<double>(net.hostCount()) *
                                   bytesPerSecondPerHost * cfg.traffic.load *
                                   toSeconds(window);
    // In-flight bytes legitimately fluctuate by several of the largest
    // message's footprint on short windows, and bytes belonging to
    // messages too large to finish within a quarter-window *cannot* have
    // drained regardless of protocol — exempt both. What remains growing
    // means the protocol fell behind. (Quick-mode windows are shorter than
    // W4/W5's largest messages, so quick capacity numbers are coarse
    // there; HOMA_BENCH_SCALE=full windows make the allowance vanish.)
    const double bigMessageThreshold =
        bytesPerSecondPerHost * toSeconds(window) / 4.0;  // one downlink's
    const double heavyAllowance =
        offeredInWindow * (1.0 - dist.byteWeightedCdf(bigMessageThreshold));
    const double backlogTolerance =
        std::max(0.08 * offeredInWindow,
                 3.0 * static_cast<double>(messageWireBytes(dist.maxSize()))) +
        heavyAllowance;
    // Closed loop and dag bound the backlog by construction (at most
    // window messages/trees per host in flight), and `load` — which the
    // offered-load arithmetic above leans on — is ignored; only the
    // delivery criterion below applies.
    const bool backlogStable =
        closedLoop || dagMode ||
        static_cast<double>(backlogEnd - backlogStart) <= backlogTolerance;
    result.keptUp =
        backlogStable && generatedSum > 0 &&
        static_cast<double>(deliveredSum) >=
            0.99 * static_cast<double>(generatedSum);
    return result;
}

double findMaxLoad(ExperimentConfig base, double startPct, double stepPct,
                   double maxPct) {
    double best = 0;
    for (double pct = startPct; pct <= maxPct + 1e-9; pct += stepPct) {
        base.traffic.load = pct / 100.0;
        ExperimentResult r = runExperiment(base);
        if (r.keptUp) {
            best = pct;
        } else if (best > 0) {
            break;  // already failing; loads only get harder
        }
    }
    return best;
}

}  // namespace homa
