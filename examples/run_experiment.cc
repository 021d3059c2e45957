// Command-line experiment runner: the repo's Swiss-army knife.
//
//   example_run_experiment --workload W3 --protocol Homa --load 0.8 --window-ms 10
//
// plus optional knobs: [--seed N] [--wire-priorities N] [--sched K]
// [--unsched K] [--cutoff BYTES] [--unsched-bytes N] [--reservation F]
// [--grant-policy srpt|fifo|rr|unlimited] [--single-rack] [--wasted-bw]
// and scenario selection: [--pattern NAME] [--hotspots N]
// [--hotspot-degree N] [--hotspot-fraction F] [--rack-local F]
// [--pareto-alpha F] [--trace FILE]
//
// Prints the slowdown-by-decile table, utilization, queue occupancy, and
// priority usage for any protocol/workload/parameter combination — every
// figure in bench/ is a scripted set of these runs.
#include <algorithm>
#include <cstdarg>
#include <cstring>
#include <iterator>
#include <stdexcept>
#include <string>
#include <vector>

#include "driver/experiment.h"
#include "driver/rpc_experiment.h"
#include "sim/parse.h"
#include "stats/report.h"

using namespace homa;

namespace {

[[noreturn]] void usage() {
    std::string protocols;
    for (int i = 0; i < kProtocolCount; i++) {
        if (i > 0) protocols += '|';
        protocols += protocolName(static_cast<Protocol>(i));
    }
    std::fprintf(
        stderr,
        "usage: example_run_experiment [options]\n"
        "  --workload W1..W5       message size distribution (default W3)\n"
        "  --protocol NAME         %s\n"
        "                          (default Homa)\n"
        "  --load F                offered load fraction (default 0.8)\n"
        "  --window-ms N           traffic generation window (default 10)\n"
        "  --seed N                RNG seed (default 99)\n"
        "  --sim-threads N         parallel engine: shard the simulation\n"
        "                          across N threads (default 1 = serial;\n"
        "                          results are identical either way)\n"
        "  --single-rack           16-host cluster instead of the fat-tree\n"
        "  --topo SPEC             topology override, comma-separated k=v:\n"
        "                          racks, hosts (per rack), aggr (per pod),\n"
        "                          core, oversub, pods — e.g.\n"
        "                          'racks=8,hosts=4,aggr=2,core=2,oversub=4'\n"
        "                          (core>0 adds a third tier; see\n"
        "                          docs/SCENARIOS.md)\n"
        "  --pattern NAME          uniform|permutation|rack-skew|incast|\n"
        "                          pareto|trace|closed-loop (default uniform)\n"
        "  --hotspots N            incast: number of hot receivers\n"
        "  --hotspot-degree N      incast: fan-in senders per hotspot\n"
        "  --hotspot-fraction F    incast: sender traffic share to hotspot\n"
        "  --rack-local F          rack-skew: intra-rack fraction\n"
        "  --pareto-alpha F        pareto: sender popularity exponent\n"
        "  --trace FILE            trace replay: '<us> <src> <dst> <bytes>'\n"
        "  --window N              closed-loop: outstanding messages per\n"
        "                          host (default 4; --load is ignored)\n"
        "  --think-us F            closed-loop: mean think time before the\n"
        "                          next message (default 0)\n"
        "  --dag-fanout N          dag: children per internal node (8)\n"
        "  --dag-depth N           dag: fan-out levels below the root (2)\n"
        "  --dag-window N          dag: trees outstanding per root (1)\n"
        "  --dag-roots N           dag: coordinator hosts (0 = all)\n"
        "  --dag-req BYTES         dag: request size per edge (320)\n"
        "  --dag-stage-sizes LIST  dag: per-stage response bytes, comma-\n"
        "                          separated root-to-leaf (default: sample\n"
        "                          the workload distribution per node)\n"
        "  --dag-join F            dag: fraction of depth>=2 nodes that\n"
        "                          gain a second parent one stage up (0;\n"
        "                          turns the trees into general DAGs)\n"
        "  --dag-straggler F       dag: straggler fraction of leaves (0)\n"
        "  --dag-straggler-factor F  dag: straggler size multiplier (10)\n"
        "  --on-off                ON-OFF bursts: modulate any pattern with\n"
        "                          per-host burst/idle periods\n"
        "  --on-us F / --off-us F  mean burst / idle duration (100 / 300)\n"
        "  --on-off-dist NAME      period distribution: exp|pareto\n"
        "  --on-off-shape F        pareto period shape (> 1, default 1.5)\n"
        "  --fault SPEC            inject a fault (repeatable), e.g.\n"
        "                          'flap=aggr0,at=5ms,for=1ms',\n"
        "                          'kill=aggr1,at=3ms',\n"
        "                          'degrade=host3,at=1ms,for=5ms,bw=0.5,\n"
        "                          delay=10us,drop=0.01',\n"
        "                          'flap-train=aggr2,count=5,gap=2ms,\n"
        "                          for=500us' (see docs/SCENARIOS.md)\n"
        "  --ecmp                  deterministic per-message ECMP uplink\n"
        "                          hash over alive uplinks (default: the\n"
        "                          paper's per-packet spraying)\n"
        "  --fluid BYTES           fluid fast path: simulate messages of\n"
        "                          >= BYTES as flow-level fluid transfers\n"
        "                          (0 = everything fluid; default: all\n"
        "                          packet-level). Not combinable with\n"
        "                          --fault; fluid runs are always serial\n"
        "  --tenants SPEC          multi-tenant serving mode (runs the RPC\n"
        "                          harness): ';'-separated tenants of comma\n"
        "                          k=v — name, wl (W1..W5), mode\n"
        "                          (open|closed), load, window, think_us,\n"
        "                          clients, group — e.g. 'name=web,wl=W1,\n"
        "                          load=0.6,clients=4;name=batch,wl=W5,\n"
        "                          mode=closed,window=8,clients=2'\n"
        "  --replicas SPEC         replica groups for --tenants:\n"
        "                          ';'-separated groups of comma k=v —\n"
        "                          name, n (replicas; 0 = rest), lb\n"
        "                          (rr|random|p2c), hedge (off|pNN),\n"
        "                          hedge_floor_us, hedge_min\n"
        "                          (see docs/SCENARIOS.md)\n"
        "  Homa knobs (need --protocol Homa, the default):\n"
        "              --wire-priorities N, --sched N, --unsched N,\n"
        "              --cutoff BYTES, --unsched-bytes N, --reservation F,\n"
        "              --overcommit N, --no-incast-control,\n"
        "              --grant-policy srpt|fifo|rr|unlimited\n"
        "  --wasted-bw             sample the Figure 16 wasted-bw probe\n",
        protocols.c_str());
    std::exit(2);
}

[[noreturn]] __attribute__((format(printf, 1, 2))) void fail(
    const char* fmt, ...) {
    va_list args;
    va_start(args, fmt);
    std::vfprintf(stderr, fmt, args);
    va_end(args);
    std::fputc('\n', stderr);
    usage();
}

// What the flags set; main() hands it to the runner that fits.
struct Cli {
    ExperimentConfig cfg;
    ServingConfig serving;
    int sched = 0, unsched = 0;  // priority levels; 0 = not given

    ScenarioConfig& sc() { return cfg.traffic.scenario; }
    DagConfig& dag() { return cfg.traffic.scenario.dag; }
    HomaConfig& homa() { return cfg.proto.homa; }
};

using Arg = const std::string&;

// --sched and --unsched count priority levels. They exist only here (main()
// turns them into HomaConfig's level counts), so their rule does too.
std::string levels(Arg v, int& out) {
    std::string why = number(v, out);
    if (why.empty() && out < 1) why = "expected at least 1 level";
    return why;
}

// One row per flag. `owner` is the protocol (e.g. "Homa"), pattern (e.g.
// "incast") or switch (e.g. "--on-off") the flag is a knob of: without it
// the flag would do nothing, so it is rejected. `withTenants`, when set,
// rejects the flag in serving mode (a printf format; %s is the final
// pattern's name). `set` parses the value strictly and returns why it
// cannot, or "" (main() exits on a reason, so a failed `set` may leave the
// Cli half-written); switches take no value and `toggle` instead. Rules
// about the values themselves live in the library (experimentConfigError,
// rpcExperimentConfigError).
struct Flag {
    const char* name;
    const char* owner;
    const char* withTenants;
    std::string (*set)(Cli&, Arg);
    void (*toggle)(Cli&) = nullptr;
};

constexpr const char* kClosedLoopWithTenants =
    "--window/--think-us do not apply to --tenants: use per-tenant "
    "'mode=closed,window=N,think_us=F' in the tenant spec";
constexpr const char* kDagWithTenants =
    "--tenants contradicts --dag-*/--pattern dag: serving mode and dag mode "
    "are separate RPC harnesses — pick one";
constexpr const char* kOnOffWithTenants =
    "--on-off does not compose with --tenants: each tenant carries its own "
    "arrival mode";
// Only Homa reads these knobs (Basic takes just rttBytes from its config).
constexpr const char* kHoma = "Homa";

const Flag kFlags[] = {
    {"--workload", nullptr,
     "--workload does not apply to --tenants: each tenant names its own "
     "(wl=W1..W5)",
     [](Cli& c, Arg v) -> std::string {
         try {
             c.cfg.traffic.workload = workloadFromName(v);
         } catch (const std::invalid_argument&) {
             return "expected W1..W5";
         }
         return "";
     }},
    {"--protocol", nullptr, nullptr,
     [](Cli& c, Arg v) -> std::string {
         return protocolFromName(v, c.cfg.proto.kind)
                    ? ""
                    : "unknown protocol (names are case-sensitive, e.g. Homa)";
     }},
    {"--load", nullptr,
     "--load does not apply to --tenants: each tenant sets its own (load=F)",
     [](Cli& c, Arg v) { return number(v, c.cfg.traffic.load); }},
    {"--window-ms", nullptr, nullptr,
     [](Cli& c, Arg v) {
         return duration(v, kMillisecond, c.cfg.traffic.stop);
     }},
    {"--seed", nullptr, nullptr,
     [](Cli& c, Arg v) { return number(v, c.cfg.traffic.seed); }},
    {"--sim-threads", nullptr,
     "--sim-threads does not apply to --tenants: the serving harness runs "
     "every tenant from one loop, on one shard",
     [](Cli& c, Arg v) { return number(v, c.cfg.parallel.threads); }},
    {"--single-rack", nullptr, nullptr, nullptr,
     [](Cli& c) { c.cfg.net = NetworkConfig::singleRack16(); }},
    {"--topo", nullptr, nullptr,
     [](Cli& c, Arg v) {
         std::string err;
         parseTopoSpec(v, c.cfg.net, &err);
         return err;
     }},
    {"--pattern", nullptr,
     "--tenants contradicts --pattern %s: tenant configs own destination "
     "choice and arrival modes",
     [](Cli& c, Arg v) -> std::string {
         return patternFromName(v, c.sc().kind) ? "" : "unknown pattern";
     }},
    {"--hotspots", "incast", nullptr,
     [](Cli& c, Arg v) { return number(v, c.sc().hotspots); }},
    {"--hotspot-degree", "incast", nullptr,
     [](Cli& c, Arg v) { return number(v, c.sc().hotspotDegree); }},
    {"--hotspot-fraction", "incast", nullptr,
     [](Cli& c, Arg v) { return number(v, c.sc().hotspotFraction); }},
    {"--rack-local", "rack-skew", nullptr,
     [](Cli& c, Arg v) { return number(v, c.sc().rackLocalFraction); }},
    {"--pareto-alpha", "pareto", nullptr,
     [](Cli& c, Arg v) { return number(v, c.sc().paretoAlpha); }},
    // Selects the trace pattern unless --pattern names another (main()).
    {"--trace", nullptr,
     "--tenants contradicts --trace: tenants issue their own RPCs, a "
     "replayed schedule cannot — pick one",
     [](Cli& c, Arg v) {
         c.sc().tracePath = v;
         return std::string();
     }},
    {"--window", "closed-loop", kClosedLoopWithTenants,
     [](Cli& c, Arg v) { return number(v, c.sc().closedLoopWindow); }},
    {"--think-us", "closed-loop", kClosedLoopWithTenants,
     [](Cli& c, Arg v) { return duration(v, kMicrosecond, c.sc().thinkTime); }},
    {"--dag-fanout", "dag", kDagWithTenants,
     [](Cli& c, Arg v) { return number(v, c.dag().fanout); }},
    {"--dag-depth", "dag", kDagWithTenants,
     [](Cli& c, Arg v) { return number(v, c.dag().depth); }},
    {"--dag-window", "dag", kDagWithTenants,
     [](Cli& c, Arg v) { return number(v, c.dag().window); }},
    {"--dag-roots", "dag", kDagWithTenants,
     [](Cli& c, Arg v) { return number(v, c.dag().roots); }},
    {"--dag-req", "dag", kDagWithTenants,
     [](Cli& c, Arg v) { return number(v, c.dag().requestBytes); }},
    {"--dag-stage-sizes", "dag", kDagWithTenants,
     [](Cli& c, Arg v) {
         c.dag().stageResponseBytes.clear();
         for (const std::string& stage : split(v, ',')) {
             std::string why =
                 number(stage, c.dag().stageResponseBytes.emplace_back());
             if (!why.empty()) return why;
         }
         return std::string();
     }},
    {"--dag-join", "dag", kDagWithTenants,
     [](Cli& c, Arg v) { return number(v, c.dag().joinFraction); }},
    {"--dag-straggler", "dag", kDagWithTenants,
     [](Cli& c, Arg v) { return number(v, c.dag().stragglerFraction); }},
    {"--dag-straggler-factor", "dag", kDagWithTenants,
     [](Cli& c, Arg v) { return number(v, c.dag().stragglerFactor); }},
    {"--on-off", nullptr, kOnOffWithTenants, nullptr,
     [](Cli& c) { c.sc().onOff.enabled = true; }},
    {"--on-us", "--on-off", kOnOffWithTenants,
     [](Cli& c, Arg v) {
         return duration(v, kMicrosecond, c.sc().onOff.onMean);
     }},
    {"--off-us", "--on-off", kOnOffWithTenants,
     [](Cli& c, Arg v) {
         return duration(v, kMicrosecond, c.sc().onOff.offMean);
     }},
    {"--on-off-dist", "--on-off", kOnOffWithTenants,
     [](Cli& c, Arg v) -> std::string {
         if (onOffDistFromName(v, c.sc().onOff.dist)) return "";
         return "expected exp or pareto";
     }},
    {"--on-off-shape", "--on-off", kOnOffWithTenants,
     [](Cli& c, Arg v) { return number(v, c.sc().onOff.paretoShape); }},
    {"--fault", nullptr,
     "--tenants does not compose with --fault: the serving harness's call "
     "ledgers assume a fault-free fabric",
     [](Cli& c, Arg v) {
         std::string err;
         parseFaultSpec(v, c.sc().faults.emplace_back(), &err);
         return err;
     }},
    {"--ecmp", nullptr,
     "--ecmp does not apply to --tenants: the RPC harness runs the paper's "
     "per-packet spraying",
     nullptr, [](Cli& c) { c.sc().ecmpUplinks = true; }},
    {"--fluid", nullptr,
     "--tenants does not compose with --fluid: serving runs account per RPC "
     "on the packet engine",
     [](Cli& c, Arg v) {
         std::string why = number(v, c.cfg.fluidThresholdBytes);
         if (why.empty() && c.cfg.fluidThresholdBytes < 0) {
             why = "expected a non-negative byte threshold";
         }
         return why;
     }},
    {"--tenants", nullptr, nullptr,
     [](Cli& c, Arg v) {
         std::string err;
         parseTenantsSpec(v, c.serving.tenants, &err);
         return err;
     }},
    {"--replicas", nullptr, nullptr,
     [](Cli& c, Arg v) {
         std::string err;
         parseReplicasSpec(v, c.serving.groups, &err);
         return err;
     }},
    {"--wire-priorities", kHoma, nullptr,
     [](Cli& c, Arg v) { return number(v, c.homa().wirePriorities); }},
    {"--sched", kHoma, nullptr,
     [](Cli& c, Arg v) { return levels(v, c.sched); }},
    {"--unsched", kHoma, nullptr,
     [](Cli& c, Arg v) { return levels(v, c.unsched); }},
    {"--cutoff", kHoma, nullptr,
     [](Cli& c, Arg v) {
         return number(v, c.homa().explicitCutoffs.emplace_back());
     }},
    {"--unsched-bytes", kHoma, nullptr,
     [](Cli& c, Arg v) { return number(v, c.homa().unschedBytesLimit); }},
    {"--reservation", kHoma, nullptr,
     [](Cli& c, Arg v) { return number(v, c.homa().oldestReservation); }},
    {"--overcommit", kHoma, nullptr,
     [](Cli& c, Arg v) { return number(v, c.homa().overcommitDegree); }},
    {"--grant-policy", kHoma, nullptr,
     [](Cli& c, Arg v) -> std::string {
         for (GrantPolicy p : {GrantPolicy::Srpt, GrantPolicy::Fifo,
                               GrantPolicy::RoundRobin,
                               GrantPolicy::Unlimited}) {
             if (v == grantPolicyName(p)) {
                 c.homa().grantPolicy = p;
                 return "";
             }
         }
         return "expected srpt, fifo, rr or unlimited";
     }},
    {"--no-incast-control", kHoma, nullptr, nullptr,
     [](Cli& c) { c.homa().incastControl = false; }},
    {"--wasted-bw", nullptr,
     "--wasted-bw does not apply to --tenants: the wasted-bandwidth probe "
     "is message-level",
     nullptr, [](Cli& c) { c.cfg.measureWastedBandwidth = true; }},
};

}  // namespace

int main(int argc, char** argv) {
    Cli cli;
    ExperimentConfig& cfg = cli.cfg;
    ScenarioConfig& sc = cli.sc();

    std::vector<const Flag*> given;  // in command-line order
    for (int i = 1; i < argc; i++) {
        const Flag* flag = std::find_if(
            std::begin(kFlags), std::end(kFlags),
            [&](const Flag& f) { return std::strcmp(f.name, argv[i]) == 0; });
        if (flag == std::end(kFlags)) usage();
        if (flag->toggle != nullptr) {
            flag->toggle(cli);
        } else {
            if (i + 1 >= argc) usage();
            const std::string why = flag->set(cli, argv[++i]);
            if (!why.empty()) {
                fail("%s '%s': %s", flag->name, argv[i], why.c_str());
            }
        }
        given.push_back(flag);
    }
    auto has = [&given](const char* name) {
        return std::any_of(given.begin(), given.end(), [name](const Flag* f) {
            return std::strcmp(f->name, name) == 0;
        });
    };

    // Rules about the flags themselves; the config's own rules follow in
    // experimentConfigError / rpcExperimentConfigError.
    if (has("--trace")) {
        if (has("--pattern") && sc.kind != TrafficPatternKind::TraceReplay) {
            fail("--trace contradicts --pattern %s: the replayed schedule "
                 "dictates the traffic — drop one", patternName(sc.kind));
        }
        sc.kind = TrafficPatternKind::TraceReplay;
    }
    const bool tenants = has("--tenants");
    if (has("--replicas") && !tenants) {
        fail("--replicas needs --tenants: replica groups without tenants "
             "serve nobody");
    }
    if (has("--topo") && has("--single-rack")) {
        fail("--topo contradicts --single-rack: pick one way to name the "
             "topology");
    }
    for (const Flag* f : given) {
        if (tenants && f->withTenants != nullptr) {
            fail(f->withTenants, patternName(sc.kind));
        }
        if (f->owner == nullptr) continue;
        if (f->owner[0] == '-') {
            if (!has(f->owner)) fail("%s needs %s", f->name, f->owner);
        } else if (Protocol owner; protocolFromName(f->owner, owner)) {
            if (owner != cfg.proto.kind) {
                fail("%s needs --protocol %s (current protocol: %s)", f->name,
                     f->owner, protocolName(cfg.proto.kind));
            }
        } else if (std::strcmp(f->owner, patternName(sc.kind)) != 0) {
            fail("%s needs --pattern %s (current pattern: %s)", f->name,
                 f->owner, patternName(sc.kind));
        }
    }

    if (cli.unsched > 0) cfg.proto.homa.unschedPriorities = cli.unsched;
    if (cli.sched > 0) {
        cfg.proto.homa.logicalPriorities =
            cli.sched + std::max(1, cfg.proto.homa.unschedPriorities);
        if (cfg.proto.homa.unschedPriorities == 0) {
            cfg.proto.homa.unschedPriorities = 1;
            cfg.proto.homa.logicalPriorities = cli.sched + 1;
        }
    }

    if (tenants) {
        RpcExperimentConfig rc;
        // The RPC harness defaults to the paper's single-switch cluster
        // (§5.1); --topo / --single-rack override it like everywhere else.
        rc.net = (has("--single-rack") || has("--topo"))
                     ? cfg.net
                     : NetworkConfig::singleRack16();
        rc.proto = cfg.proto;
        rc.seed = cfg.traffic.seed;
        rc.stop = cfg.traffic.stop;
        rc.serving = cli.serving;
        const std::string why = rpcExperimentConfigError(rc);
        if (!why.empty()) fail("bad serving config: %s", why.c_str());
        const auto groups = rc.serving.effectiveGroups();
        std::printf(
            "%s on %s, serving %zu tenants (%d clients), window %.0f ms, "
            "seed %llu\n",
            protocolName(rc.proto.kind), topologySummary(rc.net).c_str(),
            rc.serving.tenants.size(), rc.serving.totalClients(),
            toSeconds(rc.stop) * 1e3,
            static_cast<unsigned long long>(rc.seed));
        std::printf("replica groups: %s\n\n",
                    replicasSpecToString(groups).c_str());

        RpcExperimentResult r = runRpcExperiment(rc);

        Table t({"tenant", "mode", "clients", "ops", "ops/s", "Gbps",
                 "p50 us", "p99 us", "slow p99", "hedged", "won"});
        for (size_t i = 0; i < rc.serving.tenants.size(); i++) {
            const TenantConfig& tc = rc.serving.tenants[i];
            const int ti = static_cast<int>(i);
            const TenantHedgeStats& h = r.tenants->hedges(ti);
            t.addRow({tc.name, arrivalModeName(tc.mode),
                      std::to_string(tc.clients),
                      std::to_string(r.tenants->completed(ti)),
                      std::to_string(
                          static_cast<long long>(r.tenants->opsPerSec(ti))),
                      Table::num(r.tenants->gbps(ti)),
                      Table::num(r.tenants->latencyPercentileUs(ti, 0.50)),
                      Table::num(r.tenants->latencyPercentileUs(ti, 0.99)),
                      Table::num(r.tenants->slowdownPercentile(ti, 0.99)),
                      std::to_string(h.issued), std::to_string(h.won)});
        }
        std::printf("%s\n", t.format().c_str());

        const ServingStats& s = r.serving;
        std::printf(
            "logical RPCs: %llu issued, %llu completed in window, "
            "keptUp=%s\n",
            static_cast<unsigned long long>(s.logicalIssued),
            static_cast<unsigned long long>(r.completed),
            r.keptUp ? "yes" : "no");
        std::printf(
            "calls: %llu issued (%llu hedges), %llu responses consumed, "
            "%llu retries\n",
            static_cast<unsigned long long>(s.callsIssued),
            static_cast<unsigned long long>(s.hedgesIssued),
            static_cast<unsigned long long>(s.responsesConsumed),
            static_cast<unsigned long long>(r.retries));
        std::printf(
            "hedges: %llu issued = %llu won + %llu cancelled + %llu "
            "failed; primaries cancelled: %llu\n",
            static_cast<unsigned long long>(s.hedgesIssued),
            static_cast<unsigned long long>(s.hedgesWon),
            static_cast<unsigned long long>(s.hedgesCancelled),
            static_cast<unsigned long long>(s.hedgesFailed),
            static_cast<unsigned long long>(s.primariesCancelled));
        std::printf(
            "bytes: %lld issued = %lld consumed + %lld refunded + %lld "
            "unresolved\n",
            static_cast<long long>(s.issuedBytes),
            static_cast<long long>(s.consumedBytes),
            static_cast<long long>(s.refundedBytes),
            static_cast<long long>(s.unresolvedBytes));
        return 0;
    }

    const std::string why = experimentConfigError(cfg);
    if (!why.empty()) fail("bad config: %s", why.c_str());
    const SizeDistribution& dist = workload(cfg.traffic.workload);
    const bool dagMode = sc.kind == TrafficPatternKind::Dag;
    // Trace replay and closed loop ignore --load (the schedule or the
    // window sets the rate itself).
    std::string loadStr = "load n/a (trace-driven)";
    if (cfg.traffic.scenario.kind == TrafficPatternKind::ClosedLoop) {
        loadStr = "load n/a (closed loop, W=";
        loadStr += std::to_string(cfg.traffic.scenario.closedLoopWindow);
        loadStr += ')';
    } else if (dagMode) {
        char dagStr[96];
        std::snprintf(dagStr, sizeof(dagStr),
                      "load n/a (dag, fanout %d depth %d, W=%d)",
                      cfg.traffic.scenario.dag.fanout,
                      cfg.traffic.scenario.dag.depth,
                      cfg.traffic.scenario.dag.window);
        loadStr = dagStr;
    } else if (cfg.traffic.scenario.kind != TrafficPatternKind::TraceReplay) {
        loadStr = "load ";
        loadStr += std::to_string(static_cast<int>(100 * cfg.traffic.load));
        loadStr += '%';
    }
    std::string patternStr = patternName(cfg.traffic.scenario.kind);
    if (cfg.traffic.scenario.ecmpUplinks) patternStr += "+ecmp";
    if (cfg.fluidThresholdBytes >= 0) {
        patternStr += "+fluid:" + std::to_string(cfg.fluidThresholdBytes);
    }
    for (const FaultSpec& fault : cfg.traffic.scenario.faults) {
        patternStr += "+fault:" + faultSpecToString(fault);
    }
    if (cfg.traffic.scenario.onOff.enabled) {
        char onOffStr[80];
        std::snprintf(onOffStr, sizeof(onOffStr),
                      "+on-off(%s %.0f/%.0f us)",
                      onOffDistName(cfg.traffic.scenario.onOff.dist),
                      toMicros(cfg.traffic.scenario.onOff.onMean),
                      toMicros(cfg.traffic.scenario.onOff.offMean));
        patternStr += onOffStr;
    }
    std::printf(
        "%s on %s, %s, pattern %s, %s, window %.0f ms, seed %llu\n\n",
        protocolName(cfg.proto.kind), topologySummary(cfg.net).c_str(),
        dist.name().c_str(), patternStr.c_str(),
        loadStr.c_str(), toSeconds(cfg.traffic.stop) * 1e3,
        static_cast<unsigned long long>(cfg.traffic.seed));

    ExperimentResult r = runExperiment(cfg);

    Table t({"size<=", "count", "p50 slowdown", "p99 slowdown"});
    for (const auto& row : r.slowdown->rows()) {
        t.addRow({Table::bytes(row.bucketMaxSize), std::to_string(row.count),
                  Table::num(row.median), Table::num(row.p99)});
    }
    std::printf("%s\n", t.format().c_str());

    std::printf("messages: %llu generated, %llu delivered, keptUp=%s\n",
                static_cast<unsigned long long>(r.generated),
                static_cast<unsigned long long>(r.delivered),
                r.keptUp ? "yes" : "no");
    std::printf("downlink utilization: %.1f%%   drops: %llu   trims: %llu\n",
                100 * r.downlinkUtilization,
                static_cast<unsigned long long>(r.switchDrops),
                static_cast<unsigned long long>(r.switchTrims));
    if (cfg.measureWastedBandwidth) {
        std::printf("wasted receiver bandwidth: %.1f%%\n",
                    100 * r.wastedBandwidth);
    }
    std::printf("queues (mean/max KB): TOR->host %.1f/%.0f, core %.1f/%.0f\n",
                r.torDown.meanBytes / 1e3,
                static_cast<double>(r.torDown.maxBytes) / 1e3,
                r.torUp.meanBytes / 1e3,
                static_cast<double>(r.torUp.maxBytes) / 1e3);
    if (r.coreSwitches > 0) {
        std::printf(
            "core tier queues (mean/max KB): aggr->core %.1f/%.0f, "
            "core->aggr %.1f/%.0f\n",
            r.aggrUp.meanBytes / 1e3,
            static_cast<double>(r.aggrUp.maxBytes) / 1e3,
            r.coreDown.meanBytes / 1e3,
            static_cast<double>(r.coreDown.maxBytes) / 1e3);
        std::printf("link busy fraction: TOR->aggr %.1f%%, aggr->core %.1f%%\n",
                    100 * r.aggrLinkUtilization, 100 * r.coreLinkUtilization);
    }
    std::printf("priority usage (%% of downlink): ");
    for (int p = 0; p < kPriorityLevels; p++) {
        std::printf("P%d=%.1f ", p, 100 * r.prioUsage[p]);
    }
    std::printf("\n");
    if (r.fluid) {
        const FluidStats& fl = *r.fluid;
        std::printf(
            "fluid regime (>= %lld bytes): %llu flows (%llu delivered), "
            "%.1f MB wire, peak %llu concurrent, %llu rate solves\n",
            static_cast<long long>(fl.thresholdBytes),
            static_cast<unsigned long long>(fl.flows),
            static_cast<unsigned long long>(fl.delivered),
            static_cast<double>(fl.wireBytes) / 1e6,
            static_cast<unsigned long long>(fl.maxConcurrent),
            static_cast<unsigned long long>(fl.solves));
        if (fl.delivered > 0) {
            std::printf(
                "  fluid slowdown: p50 %.2f, p99 %.2f, mean %.2f\n",
                fl.slowP50, fl.slowP99, fl.slowMean);
        }
    }
    if (r.faults) {
        const FaultStats& f = *r.faults;
        std::printf(
            "faults: %llu flaps, %llu kills, %llu degrades scheduled\n",
            static_cast<unsigned long long>(f.linkDownEvents),
            static_cast<unsigned long long>(f.switchKills),
            static_cast<unsigned long long>(f.degradeEvents));
        std::printf(
            "  fault drops: %llu on-wire, %llu degraded-loss, %llu "
            "dead-switch ingress, %llu flushed at death\n",
            static_cast<unsigned long long>(f.wireDrops),
            static_cast<unsigned long long>(f.probDrops),
            static_cast<unsigned long long>(f.deadIngressDrops),
            static_cast<unsigned long long>(f.flushDrops));
    }
    if (r.closedLoop) {
        const ClosedLoopTracker& cl = *r.closedLoop;
        std::printf(
            "closed loop: %llu ops in window (%.0f ops/s, %.2f Gbps), "
            "peak outstanding %d/%d\n",
            static_cast<unsigned long long>(cl.totalCompleted()),
            cl.aggregateOpsPerSec(), cl.aggregateGbps(), r.maxOutstanding,
            cfg.traffic.scenario.closedLoopWindow);
        std::printf(
            "  per-client ops: min %llu / max %llu;   latency (us): "
            "p50 %.1f, p99 %.1f, mean %.1f\n",
            static_cast<unsigned long long>(cl.minClientCompleted()),
            static_cast<unsigned long long>(cl.maxClientCompleted()),
            cl.latencyPercentileUs(0.50), cl.latencyPercentileUs(0.99),
            cl.latencyMeanUs());
    }
    if (r.dag) {
        const DagTracker& dag = *r.dag;
        std::printf(
            "dag: %llu trees in window (%.0f trees/s, %.2f Gbps, %llu "
            "nodes), peak outstanding %d/%d\n",
            static_cast<unsigned long long>(dag.trees()), dag.treesPerSec(),
            dag.aggregateGbps(),
            static_cast<unsigned long long>(dag.totalNodes()),
            r.maxOutstanding, cfg.traffic.scenario.dag.window);
        std::printf(
            "  tree completion (us): p50 %.1f, p99 %.1f, mean %.1f;   "
            "tree slowdown: p50 %.2f, p99 %.2f\n",
            dag.completionPercentileUs(0.50), dag.completionPercentileUs(0.99),
            dag.completionMeanUs(), dag.slowdownPercentile(0.50),
            dag.slowdownPercentile(0.99));
        std::printf(
            "  trees per root: min %llu / max %llu\n",
            static_cast<unsigned long long>(dag.minRootTrees()),
            static_cast<unsigned long long>(dag.maxRootTrees()));
    }
    return 0;
}
