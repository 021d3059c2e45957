#include "sim/topology.h"

#include <climits>
#include <cmath>
#include <cstdio>

#include "sim/packet.h"
#include "sim/parse.h"

namespace homa {

NetworkConfig NetworkConfig::fatTree144() { return NetworkConfig{}; }

NetworkConfig NetworkConfig::singleRack16() {
    NetworkConfig cfg;
    cfg.racks = 1;
    cfg.hostsPerRack = 16;
    cfg.aggrSwitches = 0;
    return cfg;
}

Bandwidth NetworkConfig::aggrCoreLink() const {
    if (!threeTier()) return coreLink;
    const double psPerByte = static_cast<double>(coreLink.psPerByte) *
                             oversubscription *
                             static_cast<double>(coreSwitches) /
                             static_cast<double>(podRacks());
    return Bandwidth{std::max<int64_t>(1, std::llround(psPerByte))};
}

std::string validateTopoConfig(const NetworkConfig& cfg) {
    if (cfg.racks < 1) return "racks must be >= 1";
    if (cfg.hostsPerRack < 1) return "hosts per rack must be >= 1";
    if (cfg.aggrSwitches < 0) return "aggr switch count must be >= 0";
    if (cfg.coreSwitches < 0) return "core switch count must be >= 0";
    if (cfg.oversubscription <= 0 || !std::isfinite(cfg.oversubscription)) {
        return "oversubscription must be a finite ratio > 0";
    }
    if (cfg.switchDelay < 0) return "switch delay must be >= 0";
    if (cfg.softwareDelay < 0) return "software delay must be >= 0";
    if (cfg.coreSwitches > 0 && cfg.singleRack()) {
        return "core switches need a multi-rack topology (racks >= 2 "
               "and aggr >= 1)";
    }
    if (cfg.threeTier()) {
        if (cfg.podCount < 1) return "pod count must be >= 1";
        if (cfg.podCount > cfg.racks) {
            return "pod count cannot exceed the rack count";
        }
        if (cfg.racks % cfg.podCount != 0) {
            return "racks must divide evenly into pods (racks=" +
                   std::to_string(cfg.racks) + ", pods=" +
                   std::to_string(cfg.podCount) + ")";
        }
    }
    // hostCount() and totalAggrs() are ints: products past INT_MAX would
    // overflow them.
    const int64_t hosts = int64_t{cfg.racks} * cfg.hostsPerRack;
    if (hosts > INT_MAX) {
        return "racks x hosts per rack = " + std::to_string(hosts) +
               " hosts, more than " + std::to_string(INT_MAX);
    }
    const int64_t aggrs =
        cfg.singleRack() ? 0 : int64_t{cfg.aggrSwitches} * cfg.pods();
    if (aggrs > INT_MAX) {
        return "aggr x pods = " + std::to_string(aggrs) +
               " aggregation switches, more than " + std::to_string(INT_MAX);
    }
    return "";
}

namespace {

// A switch or host count, in [0, 1,000,000]; validateTopoConfig owns the
// rest.
template <int NetworkConfig::*Field>
std::string topoCount(NetworkConfig& c, const std::string& v) {
    return count(v, c.*Field, 1'000'000);
}

const SpecKey<NetworkConfig> kTopoKeys[] = {
    {"racks", topoCount<&NetworkConfig::racks>},
    {"hosts", topoCount<&NetworkConfig::hostsPerRack>},
    {"aggr", topoCount<&NetworkConfig::aggrSwitches>},
    {"core", topoCount<&NetworkConfig::coreSwitches>},
    {"oversub",
     [](NetworkConfig& c, const std::string& v) {
         return number(v, c.oversubscription);
     }},
    {"pods", topoCount<&NetworkConfig::podCount>},
};

}  // namespace

bool parseTopoSpec(const std::string& body, NetworkConfig& out,
                   std::string* err) {
    NetworkConfig cfg = out;
    std::string why = readSpec("topo", body, kTopoKeys, cfg);
    if (why.empty()) why = validateTopoConfig(cfg);
    if (!why.empty()) {
        if (err) *err = why;
        return false;
    }
    out = cfg;
    return true;
}

std::string topologySummary(const NetworkConfig& cfg) {
    char buf[160];
    if (cfg.singleRack()) {
        std::snprintf(buf, sizeof(buf), "%d-host rack", cfg.hostCount());
    } else if (!cfg.threeTier()) {
        std::snprintf(buf, sizeof(buf), "%d-host fat-tree", cfg.hostCount());
    } else {
        std::snprintf(buf, sizeof(buf),
                      "%d-host 3-tier fat-tree (%d pods x %d racks x %d, "
                      "%d aggr/pod, %d core, oversub %g)",
                      cfg.hostCount(), cfg.pods(), cfg.podRacks(),
                      cfg.hostsPerRack, cfg.aggrSwitches, cfg.coreSwitches,
                      cfg.oversubscription);
    }
    return buf;
}

NetworkTimings NetworkTimings::compute(const NetworkConfig& cfg) {
    const int64_t controlWire = kHeaderBytes + kFrameOverhead;
    const int64_t dataWire = kFullPacketWireBytes;

    // Worst-case path between two hosts: 2 host links + (cross-rack only)
    // 2 core links + (three-tier only) 2 aggr<->core links, with one
    // switch delay per switch traversed. The coreSwitches == 0 arithmetic
    // is byte-identical to the pre-core-layer computation.
    const int switches = cfg.singleRack() ? 1 : (cfg.threeTier() ? 5 : 3);
    auto pathTime = [&](int64_t wireBytes) {
        Duration t = 2 * cfg.hostLink.serialize(wireBytes);
        if (!cfg.singleRack()) t += 2 * cfg.coreLink.serialize(wireBytes);
        if (cfg.threeTier()) t += 2 * cfg.aggrCoreLink().serialize(wireBytes);
        t += switches * cfg.switchDelay;
        return t;
    };

    NetworkTimings tm{};
    tm.fullPacketSerialization10g = cfg.hostLink.serialize(dataWire);
    // Full control loop: grant travels to the sender, the sender's software
    // processes it, a full data packet travels back, and the receiver's
    // software processes it before it can influence the next grant.
    tm.rttSmallGrant =
        pathTime(controlWire) + cfg.softwareDelay + pathTime(dataWire) +
        cfg.softwareDelay;
    tm.rttBytes = tm.rttSmallGrant / cfg.hostLink.psPerByte;
    return tm;
}

}  // namespace homa
