// Network: owns the event loop(s), hosts, and switches; wires the topology.
//
// Fat-tree wiring (Figure 11): every host NIC feeds its rack's TOR; each
// TOR has one egress port per rack host (downlinks) plus one per
// aggregation switch in its pod (uplinks, packet-sprayed); each
// aggregation switch has one port per rack of its pod. With
// NetworkConfig::coreSwitches > 0 a third tier rises above: racks
// partition into contiguous pods, each pod gets its own aggr set, every
// aggr gains one uplink per core switch (bandwidth set by the
// oversubscription knob, see NetworkConfig::aggrCoreLink()), and every
// core switch has one port per aggr. Cross-pod packets climb
// host->TOR->aggr->core->aggr->TOR->host; intra-pod traffic never touches
// the core. Zero propagation delay; store-and-forward everywhere.
//
// Sharding (the parallel engine): with `shards` > 1 the racks — each rack
// meaning its hosts, their NICs, and its TOR — are dealt round-robin across
// that many EventLoops, and the aggregation and core switches likewise.
// Every host↔TOR link is intra-shard by construction; TOR↔aggr and
// aggr↔core links can cross shards. A cross-shard link's egress port
// deposits completed packets into a per-(source shard, destination shard)
// outbox instead of delivering them; the engine drains outboxes into the
// peer switches at lookahead window barriers (see sim/parallel.h). With
// shards == 1 (the default) the wiring, event order, and results are the
// classic serial ones.
#pragma once

#include <memory>
#include <vector>

#include "sim/event_loop.h"
#include "sim/host.h"
#include "sim/switch.h"
#include "sim/topology.h"
#include "transport/transport.h"

namespace homa {

class Network {
public:
    /// `shards` is clamped to [1, racks]; single-rack topologies and
    /// zero switch delay (no lookahead) always build one shard. Throws
    /// std::invalid_argument when validateTopoConfig rejects `cfg`.
    Network(NetworkConfig cfg, const TransportFactory& makeTransport,
            int shards = 1);

    /// Shard 0's loop — the only loop when shardCount() == 1, and the one
    /// whose clock callers may treat as "the" simulation clock (all shards
    /// agree at barriers and at the end of a run).
    EventLoop& loop() { return *loops_[0]; }

    int shardCount() const { return static_cast<int>(loops_.size()); }
    EventLoop& shardLoop(int s) { return *loops_[s]; }
    EventLoop& loopFor(HostId h) { return *loops_[shardOfHost(h)]; }
    int shardOfRack(int rack) const { return rack % shardCount(); }
    int shardOfHost(HostId h) const { return shardOfRack(rackOf(h)); }

    const NetworkConfig& config() const { return cfg_; }
    const NetworkTimings& timings() const { return timings_; }

    int hostCount() const { return cfg_.hostCount(); }
    Host& host(HostId h) { return *hosts_[h]; }

    /// Hand a message to its source host's transport. Assigns created time;
    /// the id must already be unique (use nextMsgId()). Throws
    /// std::invalid_argument, naming the field, when src or dst is not a
    /// host, src == dst, or length is 0.
    void sendMessage(Message m);

    /// Fluid fast-path seam (sim/fluid.h): when set, sendMessage offers
    /// every message here first (after stamping `created`); a true return
    /// means the interceptor absorbed the message and no packet transport
    /// ever sees it. Unset (the default) keeps the pure packet path —
    /// sendMessage behaves byte-identically to before the seam existed.
    void setMessageInterceptor(std::function<bool(const Message&)> f) {
        intercept_ = std::move(f);
    }

    /// Global id stream: serial-only issuers (RPC layer, DAG engine, tests).
    MsgId nextMsgId() { return nextMsg_++; }

    /// Per-host id stream, safe to draw from `src`'s shard concurrently.
    /// Ids pack (src + 1) above bit 40, so they are unique across hosts and
    /// disjoint from the global stream (which never reaches 2^40).
    MsgId nextMsgId(HostId src) {
        return (static_cast<MsgId>(src) + 1) << 40 | perHostMsg_[src]++;
    }

    /// Install a delivery callback on every host's transport. The network
    /// keeps the one copy; each transport gets a forwarder to it.
    void setDeliveryCallback(Transport::DeliveryCallback cb);

    /// Inject every parked cross-shard packet destined for `shard` into its
    /// target switch (canonical transit order makes the drain order across
    /// source shards irrelevant). Parallel engine only, at window barriers.
    void drainInboxes(int shard);

    /// The TOR egress port that feeds host h (its downlink). Queue stats
    /// here drive Table 1, Figure 16, and Figure 21.
    EgressPort& downlink(HostId h);

    /// Ports grouped by network level, for Table 1 and the fig_oversub
    /// core-contention metrics. aggrDownlinkPorts() covers only the
    /// aggr->TOR ports; the aggr->core ports are aggrUplinkPorts() (both
    /// empty groups on topologies without that tier).
    std::vector<const EgressPort*> torUplinkPorts() const;
    std::vector<const EgressPort*> aggrDownlinkPorts() const;
    std::vector<const EgressPort*> torDownlinkPorts() const;
    std::vector<const EgressPort*> aggrUplinkPorts() const;
    std::vector<const EgressPort*> coreDownlinkPorts() const;

    Switch& tor(int rack) { return *tors_[rack]; }
    Switch& aggr(int a) { return *aggrs_[a]; }
    Switch& core(int c) { return *cores_[c]; }
    int rackCount() const { return cfg_.racks; }
    int aggrCount() const { return static_cast<int>(aggrs_.size()); }
    int coreCount() const { return static_cast<int>(cores_.size()); }
    int rackOf(HostId h) const { return h / cfg_.hostsPerRack; }

    /// Cross-shard packets parked in outboxes but not yet injected (0 in
    /// serial runs; used by the conservation accounting in test_fault).
    size_t pendingRemotePackets() const;

private:
    struct RemoteEvent {
        Time arrival;  // serialization end on the cross-shard link
        Switch* dst;
        Packet pkt;
    };

    std::unique_ptr<Qdisc> makeQdisc() const;
    /// Register the remote-deliver outbox seam on a cross-shard port pair.
    void wireCrossShard(EgressPort& out, int srcShard, Switch* peer,
                        int dstShard);

    NetworkConfig cfg_;
    NetworkTimings timings_;
    std::vector<std::unique_ptr<EventLoop>> loops_;
    // rxDelay_[s]: the software-delay FIFO of every host on loop s.
    std::vector<std::unique_ptr<SoftwareDelayQueue>> rxDelay_;
    Rng rng_;
    std::vector<std::unique_ptr<Host>> hosts_;
    std::vector<std::unique_ptr<Switch>> tors_;
    std::vector<std::unique_ptr<Switch>> aggrs_;
    std::vector<std::unique_ptr<Switch>> cores_;
    // xshard_[s][d]: packets emitted by shard s for shard d in the current
    // window. Written only by shard s's thread, drained only by shard d's —
    // the window barriers on either side order the accesses.
    std::vector<std::vector<std::vector<RemoteEvent>>> xshard_;
    MsgId nextMsg_ = 1;
    std::vector<uint64_t> perHostMsg_;
    std::function<bool(const Message&)> intercept_;
    Transport::DeliveryCallback deliver_;
};

}  // namespace homa
