// Best-case (unloaded network) completion times — the denominators of
// every slowdown number in the paper.
#pragma once

#include <cstdint>

#include "sim/topology.h"
#include "stats/slowdown.h"

namespace homa {

/// Computes the minimum time to move a message between two hosts on an
/// idle network (worst-case placement: cross-rack on the fat-tree,
/// cross-pod — through the oversubscribed core — on a three-tier one), by
/// exact simulation of the store-and-forward pipeline: packets serialize
/// back-to-back on the sender link, each later hop forwards a packet after
/// the switch delay, and the receiver's software delay is paid once at the
/// end. Validated against the event simulator in tests.
///
/// Immutable after construction, so one instance is shared by every host
/// and shard thread. Each lookup walks the packets hop by hop, O(packets x
/// hops) integer steps with no allocation off the three-tier path: no more
/// than the packet simulator spends delivering that message, so no size
/// needs a memo.
class Oracle {
public:
    explicit Oracle(const NetworkConfig& cfg) : cfg_(cfg) {}

    /// One-way message delivery time (message handed to sender transport
    /// -> last byte processed by receiver software). `intraRack` picks the
    /// short path (host-TOR-host); the default is the cross-rack path.
    Duration bestOneWay(uint32_t size, bool intraRack = false) const;

    /// Echo RPC: request there, response (same size) back.
    Duration bestEchoRpc(uint32_t size) const;

    OracleFn oneWayFn() const {
        return [this](uint32_t s) { return bestOneWay(s); };
    }
    OracleFn echoRpcFn() const {
        return [this](uint32_t s) { return bestEchoRpc(s); };
    }

private:
    NetworkConfig cfg_;
};

}  // namespace homa
