#include "sim/topology.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "sim/packet.h"

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
    return "";
}

namespace {

bool parseTopoInt(const std::string& v, int& out) {
    char* end = nullptr;
    const long n = std::strtol(v.c_str(), &end, 10);
    if (v.empty() || *end != '\0' || n < 0 || n > 1'000'000) return false;
    out = static_cast<int>(n);
    return true;
}

bool parseTopoDouble(const std::string& v, double& out) {
    char* end = nullptr;
    const double d = std::strtod(v.c_str(), &end);
    if (v.empty() || *end != '\0' || !std::isfinite(d)) return false;
    out = d;
    return true;
}

}  // namespace

bool parseTopoSpec(const std::string& body, NetworkConfig& out,
                   std::string* err) {
    auto fail = [err](const std::string& why) {
        if (err) *err = why;
        return false;
    };
    NetworkConfig cfg = out;
    if (body.empty()) return fail("empty topo spec");
    size_t pos = 0;
    while (pos <= body.size()) {
        const size_t comma = std::min(body.find(',', pos), body.size());
        const std::string pair = body.substr(pos, comma - pos);
        pos = comma + 1;
        const size_t eq = pair.find('=');
        if (eq == std::string::npos) {
            return fail(pair.empty() ? "empty topo key"
                                     : "topo key '" + pair +
                                           "' needs =<value>");
        }
        const std::string key = pair.substr(0, eq);
        const std::string val = pair.substr(eq + 1);
        bool ok;
        if (key == "racks") ok = parseTopoInt(val, cfg.racks);
        else if (key == "hosts") ok = parseTopoInt(val, cfg.hostsPerRack);
        else if (key == "aggr") ok = parseTopoInt(val, cfg.aggrSwitches);
        else if (key == "core") ok = parseTopoInt(val, cfg.coreSwitches);
        else if (key == "pods") ok = parseTopoInt(val, cfg.podCount);
        else if (key == "oversub") {
            ok = parseTopoDouble(val, cfg.oversubscription);
        } else {
            return fail("unknown topo key '" + key +
                        "' (known: racks, hosts, aggr, core, oversub, pods)");
        }
        if (!ok) return fail("bad topo value '" + val + "' for " + key);
        if (comma == body.size()) break;
    }
    const std::string verr = validateTopoConfig(cfg);
    if (!verr.empty()) return fail(verr);
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
