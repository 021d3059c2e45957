// Topology configuration for the two clusters in the paper, plus the
// configurable three-tier oversubscribed fat-tree that extends them.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "sim/qdisc.h"
#include "sim/time.h"

namespace homa {

/// TOR uplink choice for cross-rack packets.
enum class UplinkPolicy {
    Spray,  // per-packet random spraying across all uplinks (§2.2 default)
    Ecmp,   // deterministic per-message hash over the *alive* uplinks, so
            // a dead aggregation switch reroutes instead of blackholing
};

struct NetworkConfig {
    // Figure 11: 9 racks x 16 hosts, 4 aggregation switches. Setting
    // aggrSwitches = 0 (or racks = 1) produces the single-switch 16-host
    // cluster used for the implementation measurements (§5.1).
    int racks = 9;
    int hostsPerRack = 16;
    int aggrSwitches = 4;  // per pod when coreSwitches > 0, else total

    // Three-tier core layer. With coreSwitches > 0 the racks partition
    // into `podCount` contiguous pods; each pod gets its own set of
    // `aggrSwitches` aggregation switches, and every aggr connects to
    // every core switch. The paper's symmetric two-tier tree is the
    // coreSwitches == 0 default and is wired byte-identically to before
    // the core layer existed.
    int coreSwitches = 0;
    int podCount = 2;  // only meaningful when coreSwitches > 0

    // Aggregate-to-core capacity ratio: each aggr's total uplink
    // bandwidth is its total downlink bandwidth divided by this. 1.0 is
    // full bisection; > 1 makes cross-pod traffic contend on the core —
    // the regime where receiver-driven scheduling's "the core is never
    // the bottleneck" assumption actually gets stressed. Realized by
    // scaling the aggr<->core link bandwidth (see aggrCoreLink()).
    double oversubscription = 1.0;

    Bandwidth hostLink = k10Gbps;
    Bandwidth coreLink = k40Gbps;
    Duration switchDelay = nanoseconds(250);
    Duration softwareDelay = nanoseconds(1500);

    uint64_t seed = 1;

    /// Cross-rack uplink choice at the TORs (and, on three-tier
    /// topologies, at the aggr->core and core->aggr hops). The hash-based
    /// Ecmp policy consults link liveness (fault injection), a pure
    /// function of the packet and the switch-local fault schedule —
    /// deterministic at any shard count.
    UplinkPolicy uplinkPolicy = UplinkPolicy::Spray;

    /// Factory for switch egress queues; default is an unbounded
    /// strict-priority queue (commodity switch with 8 levels and buffers
    /// large enough that Homa never drops — validated by Table 1).
    std::function<std::unique_ptr<Qdisc>()> switchQdisc;

    int hostCount() const { return racks * hostsPerRack; }
    bool singleRack() const { return racks == 1 || aggrSwitches == 0; }
    bool threeTier() const { return !singleRack() && coreSwitches > 0; }

    /// Pod partition: 1 pod spanning every rack on two-tier topologies.
    int pods() const { return threeTier() ? podCount : 1; }
    int podRacks() const { return racks / pods(); }
    int podOfRack(int rack) const { return rack / podRacks(); }

    /// Aggregation switches across all pods (what Network instantiates).
    int totalAggrs() const {
        return singleRack() ? 0 : aggrSwitches * pods();
    }

    /// Bandwidth of each aggr<->core link, chosen so one aggr's total
    /// uplink capacity is its downlink capacity / oversubscription:
    /// psPerByte = coreLink.psPerByte * oversubscription * coreSwitches
    /// / podRacks (rounded, floored at 1). A pure integer function of the
    /// config, so serialization times — and thus results — are exact.
    Bandwidth aggrCoreLink() const;

    /// Convenience presets matching the paper.
    static NetworkConfig fatTree144();      // §5.2 simulations
    static NetworkConfig singleRack16();    // §5.1 implementation cluster
};

/// Structural validation (index ranges, pod divisibility, oversub > 0,
/// non-negative switch and software delays, host and aggr totals that fit
/// an int).
/// Returns "" when valid, else a human-readable reason.
std::string validateTopoConfig(const NetworkConfig& cfg);

/// Parses a topology spec body — "racks=8,hosts=4,aggr=2,core=2,
/// oversub=4,pods=2" — applying each key over the current values of
/// `out`, then validates the result (validateTopoConfig). Keys: racks,
/// hosts (per rack), aggr (per pod on three-tier), core, oversub, pods;
/// counts are in [0, 1,000,000]. Returns false — leaving `out` untouched —
/// on malformed text, a repeated key or an invalid resulting topology,
/// with a reason in *err (if given). This is the grammar behind the
/// scenario "topo:" modifier and the runner's --topo flag.
bool parseTopoSpec(const std::string& body, NetworkConfig& out,
                   std::string* err = nullptr);

/// One-line human description, e.g. "144-host fat-tree" or
/// "64-host 3-tier fat-tree (2 pods x 4 racks x 8, 2 aggr/pod, 2 core,
/// oversub 4)".
std::string topologySummary(const NetworkConfig& cfg);

/// Closed-form network constants derived from a config.
struct NetworkTimings {
    Duration fullPacketSerialization10g;  // host link, full data packet
    Duration rttSmallGrant;  // grant out + full data packet back, worst-case
    int64_t rttBytes;        // bandwidth-delay product of that RTT

    static NetworkTimings compute(const NetworkConfig& cfg);
};

}  // namespace homa
