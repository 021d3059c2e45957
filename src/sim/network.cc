#include "sim/network.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <string>

namespace homa {

std::unique_ptr<Qdisc> Network::makeQdisc() const {
    if (cfg_.switchQdisc) return cfg_.switchQdisc();
    return std::make_unique<StrictPriorityQdisc>();
}

void Network::wireCrossShard(EgressPort& out, int srcShard, Switch* peer,
                             int dstShard) {
    if (srcShard == dstShard) return;
    auto* box = &xshard_[srcShard][dstShard];
    out.setRemoteDeliver([box, peer](Time at, Packet&& p) {
        box->push_back(RemoteEvent{at, peer, std::move(p)});
    });
}

namespace {

// Rejects a bad topology before anything is derived from it.
const NetworkConfig& validated(const NetworkConfig& cfg) {
    const std::string why = validateTopoConfig(cfg);
    if (!why.empty()) throw std::invalid_argument("Network: " + why);
    return cfg;
}

}  // namespace

Network::Network(NetworkConfig cfg, const TransportFactory& makeTransport,
                 int shards)
    : cfg_(validated(cfg)), timings_(NetworkTimings::compute(cfg)), rng_(cfg.seed) {
    const int nHosts = cfg_.hostCount();
    const int perRack = cfg_.hostsPerRack;
    const bool multiRack = !cfg_.singleRack();
    const int nAggr = cfg_.totalAggrs();
    // Uplinks per TOR == aggrs per pod (== all aggrs on two-tier trees,
    // where the single implicit pod spans every rack).
    const int aggrPerPod = multiRack ? cfg_.aggrSwitches : 0;
    const int nCore = cfg_.threeTier() ? cfg_.coreSwitches : 0;
    const int podRacks = cfg_.podRacks();
    const bool ecmp = cfg_.uplinkPolicy == UplinkPolicy::Ecmp;

    // The parallel engine's lookahead is the switch delay, so a zero delay
    // (like a single rack, where every path is host->TOR->host within one
    // shard anyway) degenerates to serial.
    const int nShards = (!multiRack || cfg_.switchDelay <= 0)
                            ? 1
                            : std::clamp(shards, 1, cfg_.racks);
    loops_.reserve(nShards);
    for (int s = 0; s < nShards; s++) {
        loops_.push_back(std::make_unique<EventLoop>());
    }
    perHostMsg_.assign(nHosts, 0);

    // Hosts first (switch downlinks need them as sinks). Construction stays
    // fully serial and in a fixed order, so the RNG fork sequence — and
    // thus every derived stream — is identical at any shard count. Core
    // switches fork after the TORs, so every coreSwitches == 0 stream is
    // byte-identical to the pre-core-layer wiring.
    hosts_.reserve(nHosts);
    for (HostId h = 0; h < nHosts; h++) {
        hosts_.push_back(std::make_unique<Host>(*loops_[shardOfHost(h)], h,
                                                cfg_.hostLink,
                                                cfg_.softwareDelay, rng_.fork()));
    }

    // Aggregation switches, dealt round-robin across shards. Global index
    // g covers pod g / aggrPerPod.
    for (int a = 0; a < nAggr; a++) {
        aggrs_.push_back(std::make_unique<Switch>(
            *loops_[a % nShards], "aggr" + std::to_string(a), cfg_.switchDelay,
            rng_.fork()));
    }

    // TORs: ports [0, perRack) are host downlinks, [perRack,
    // perRack+aggrPerPod) are uplinks to the rack's pod aggrs. A TOR lives
    // on its rack's shard.
    for (int r = 0; r < cfg_.racks; r++) {
        auto tor = std::make_unique<Switch>(*loops_[shardOfRack(r)],
                                            "tor" + std::to_string(r),
                                            cfg_.switchDelay, rng_.fork());
        const int podBase = cfg_.podOfRack(r) * aggrPerPod;
        for (int i = 0; i < perRack; i++) {
            tor->addPort(cfg_.hostLink, makeQdisc(), hosts_[r * perRack + i].get());
        }
        for (int a = 0; a < aggrPerPod; a++) {
            tor->addPort(cfg_.coreLink, makeQdisc(), aggrs_[podBase + a].get());
        }
        const int rack = r;
        if (ecmp) {
            // Deterministic per-message multi-path hash over the *alive*
            // uplinks: a dead aggr's traffic reroutes instead of
            // blackholing. Liveness is the TOR's own uplink port state —
            // shard-local by construction (fault events for a TOR's
            // uplinks are scheduled on the TOR's shard), so the choice is
            // a pure function of (packet, fault schedule, time) and
            // serial == parallel holds.
            Switch* torPtr = tor.get();
            tor->setRoute([this, torPtr, rack, perRack, aggrPerPod](
                              const Packet& p, Rng&) {
                assert(p.dst >= 0 && p.dst < cfg_.hostCount());
                if (p.dst / perRack == rack) return p.dst % perRack;
                uint64_t h = mix64((static_cast<uint64_t>(p.src) << 32) ^
                                   static_cast<uint64_t>(static_cast<uint32_t>(p.dst)));
                h = mix64(h ^ static_cast<uint64_t>(p.msg));
                int alive = 0;
                for (int a = 0; a < aggrPerPod; a++) {
                    if (torPtr->port(perRack + a).linkUp()) alive++;
                }
                if (alive == 0) {
                    // Every uplink dead: nowhere to reroute; pick by hash
                    // (the packet dies on the downed port like spray would).
                    return perRack + static_cast<int>(h % static_cast<uint64_t>(aggrPerPod));
                }
                int pick = static_cast<int>(h % static_cast<uint64_t>(alive));
                for (int a = 0; a < aggrPerPod; a++) {
                    if (!torPtr->port(perRack + a).linkUp()) continue;
                    if (pick-- == 0) return perRack + a;
                }
                assert(false);
                return perRack;
            });
        } else {
            tor->setRoute([this, rack, perRack, aggrPerPod](const Packet& p,
                                                            Rng& rng) {
                assert(p.dst >= 0 && p.dst < cfg_.hostCount());
                if (p.dst / perRack == rack) return p.dst % perRack;
                // Per-packet spraying across the uplinks (§2.2).
                return perRack + static_cast<int>(rng.below(aggrPerPod));
            });
        }
        tors_.push_back(std::move(tor));
    }

    // Core switches above the pods, dealt round-robin across shards like
    // the aggrs. Forked last so two-tier RNG streams are untouched.
    for (int c = 0; c < nCore; c++) {
        cores_.push_back(std::make_unique<Switch>(
            *loops_[c % nShards], "core" + std::to_string(c), cfg_.switchDelay,
            rng_.fork()));
    }

    // Aggr ports: [0, podRacks) feed the pod's TORs; [podRacks,
    // podRacks+nCore) are uplinks to the cores at the oversubscribed
    // bandwidth. In-pod packets route straight down with no RNG draw, so
    // the coreSwitches == 0 tree (one pod, zero uplinks) routes
    // byte-identically to the pre-core-layer code.
    for (int g = 0; g < nAggr; g++) {
        const int podStart = (g / std::max(aggrPerPod, 1)) * podRacks;
        for (int r = 0; r < podRacks; r++) {
            aggrs_[g]->addPort(cfg_.coreLink, makeQdisc(),
                               tors_[podStart + r].get());
        }
        for (int c = 0; c < nCore; c++) {
            aggrs_[g]->addPort(cfg_.aggrCoreLink(), makeQdisc(),
                               cores_[c].get());
        }
        if (ecmp && nCore > 0) {
            // Same alive-uplink hash as the TORs, salted per switch so the
            // TOR, aggr, and core stages of one message pick independently.
            Switch* aggrPtr = aggrs_[g].get();
            const uint64_t salt = kGoldenGamma * static_cast<uint64_t>(g + 1);
            aggrs_[g]->setRoute([aggrPtr, perRack, podStart, podRacks, nCore,
                                 salt](const Packet& p, Rng&) {
                const int dstRack = p.dst / perRack;
                if (dstRack >= podStart && dstRack < podStart + podRacks) {
                    return dstRack - podStart;
                }
                uint64_t h = mix64((static_cast<uint64_t>(p.src) << 32) ^
                                   static_cast<uint64_t>(static_cast<uint32_t>(p.dst)));
                h = mix64(h ^ static_cast<uint64_t>(p.msg));
                h = mix64(h ^ salt);
                int alive = 0;
                for (int c = 0; c < nCore; c++) {
                    if (aggrPtr->port(podRacks + c).linkUp()) alive++;
                }
                if (alive == 0) {
                    return podRacks + static_cast<int>(h % static_cast<uint64_t>(nCore));
                }
                int pick = static_cast<int>(h % static_cast<uint64_t>(alive));
                for (int c = 0; c < nCore; c++) {
                    if (!aggrPtr->port(podRacks + c).linkUp()) continue;
                    if (pick-- == 0) return podRacks + c;
                }
                assert(false);
                return podRacks;
            });
        } else {
            aggrs_[g]->setRoute([perRack, podStart, podRacks, nCore](
                                    const Packet& p, Rng& rng) {
                const int dstRack = p.dst / perRack;
                if (nCore == 0 ||
                    (dstRack >= podStart && dstRack < podStart + podRacks)) {
                    return dstRack - podStart;
                }
                // Cross-pod: spray across the core uplinks.
                return podRacks + static_cast<int>(rng.below(nCore));
            });
        }
    }

    // Core ports: one per aggr, indexed by global aggr id. A core routes
    // down into the destination pod, spreading across that pod's aggrs.
    for (int c = 0; c < nCore; c++) {
        for (int g = 0; g < nAggr; g++) {
            cores_[c]->addPort(cfg_.aggrCoreLink(), makeQdisc(),
                               aggrs_[g].get());
        }
        if (ecmp) {
            Switch* corePtr = cores_[c].get();
            const uint64_t salt =
                kGoldenGamma * static_cast<uint64_t>(nAggr + c + 1);
            cores_[c]->setRoute([this, corePtr, perRack, aggrPerPod, salt](
                                    const Packet& p, Rng&) {
                const int base =
                    cfg_.podOfRack(p.dst / perRack) * aggrPerPod;
                uint64_t h = mix64((static_cast<uint64_t>(p.src) << 32) ^
                                   static_cast<uint64_t>(static_cast<uint32_t>(p.dst)));
                h = mix64(h ^ static_cast<uint64_t>(p.msg));
                h = mix64(h ^ salt);
                int alive = 0;
                for (int a = 0; a < aggrPerPod; a++) {
                    if (corePtr->port(base + a).linkUp()) alive++;
                }
                if (alive == 0) {
                    return base + static_cast<int>(h % static_cast<uint64_t>(aggrPerPod));
                }
                int pick = static_cast<int>(h % static_cast<uint64_t>(alive));
                for (int a = 0; a < aggrPerPod; a++) {
                    if (!corePtr->port(base + a).linkUp()) continue;
                    if (pick-- == 0) return base + a;
                }
                assert(false);
                return base;
            });
        } else {
            cores_[c]->setRoute([this, perRack, aggrPerPod](const Packet& p,
                                                            Rng& rng) {
                const int base =
                    cfg_.podOfRack(p.dst / perRack) * aggrPerPod;
                return base + static_cast<int>(rng.below(aggrPerPod));
            });
        }
    }

    // Host NICs feed their TOR.
    for (HostId h = 0; h < nHosts; h++) {
        hosts_[h]->nic().connectTo(tors_[h / perRack].get());
    }

    // Canonical link ids, assigned in topology order: NICs take [0, hosts),
    // then TOR ports rack-by-rack, then aggr ports, then core ports. A pure
    // function of the config, so transit tie-breaks agree across shard
    // counts (and the coreSwitches == 0 assignment matches the
    // pre-core-layer ids exactly).
    int32_t nextLink = nHosts;
    for (HostId h = 0; h < nHosts; h++) hosts_[h]->nic().setLinkId(h);
    for (auto& tor : tors_) {
        for (size_t i = 0; i < tor->portCount(); i++) {
            tor->port(static_cast<int>(i)).setLinkId(nextLink++);
        }
    }
    for (auto& aggr : aggrs_) {
        for (size_t i = 0; i < aggr->portCount(); i++) {
            aggr->port(static_cast<int>(i)).setLinkId(nextLink++);
        }
    }
    for (auto& core : cores_) {
        for (size_t i = 0; i < core->portCount(); i++) {
            core->port(static_cast<int>(i)).setLinkId(nextLink++);
        }
    }

    // Cross-shard links (TOR<->aggr and aggr<->core: host<->TOR is
    // intra-shard by the rack partition) park completed packets in
    // per-(src,dst) outboxes.
    if (nShards > 1) {
        xshard_.assign(nShards,
                       std::vector<std::vector<RemoteEvent>>(nShards));
        for (int r = 0; r < cfg_.racks; r++) {
            const int rs = shardOfRack(r);
            const int podBase = cfg_.podOfRack(r) * aggrPerPod;
            for (int a = 0; a < aggrPerPod; a++) {
                const int g = podBase + a;
                const int as = g % nShards;
                wireCrossShard(tors_[r]->port(perRack + a), rs,
                               aggrs_[g].get(), as);
                wireCrossShard(aggrs_[g]->port(r - cfg_.podOfRack(r) * podRacks),
                               as, tors_[r].get(), rs);
            }
        }
        for (int g = 0; g < nAggr; g++) {
            const int as = g % nShards;
            for (int c = 0; c < nCore; c++) {
                const int cs = c % nShards;
                wireCrossShard(aggrs_[g]->port(podRacks + c), as,
                               cores_[c].get(), cs);
                wireCrossShard(cores_[c]->port(g), cs, aggrs_[g].get(), as);
            }
        }
    }

    // Transports last: they may inspect timings via their HostServices.
    for (HostId h = 0; h < nHosts; h++) {
        hosts_[h]->setTransport(makeTransport(*hosts_[h]));
    }
}

void Network::sendMessage(Message m) {
    const auto reject = [](const std::string& why) {
        throw std::invalid_argument("Network::sendMessage: " + why);
    };
    const auto checkHost = [&](const char* field, HostId h) {
        if (h < 0 || h >= hostCount()) {
            reject(std::string(field) + " " + std::to_string(h) +
                   " is not a host (0.." + std::to_string(hostCount() - 1) +
                   ")");
        }
    };
    checkHost("src", m.src);
    checkHost("dst", m.dst);
    if (m.src == m.dst) reject("src == dst (" + std::to_string(m.src) + ")");
    if (m.length == 0) reject("length must be > 0");
    m.created = loopFor(m.src).now();
    if (intercept_ && intercept_(m)) return;
    hosts_[m.src]->transport().sendMessage(m);
}

void Network::setDeliveryCallback(Transport::DeliveryCallback cb) {
    deliver_ = std::move(cb);
    // A forwarder that captures only `this` fits std::function's inline
    // buffer, so no host allocates its own copy of the callback.
    Transport::DeliveryCallback forward;
    if (deliver_) {
        forward = [this](const Message& m, const DeliveryInfo& info) {
            deliver_(m, info);
        };
    }
    for (auto& h : hosts_) h->transport().setDeliveryCallback(forward);
}

void Network::drainInboxes(int shard) {
    for (int s = 0; s < shardCount(); s++) {
        auto& box = xshard_[s][shard];
        for (RemoteEvent& ev : box) {
            ev.dst->injectArrival(ev.arrival, std::move(ev.pkt));
        }
        box.clear();
    }
}

size_t Network::pendingRemotePackets() const {
    size_t n = 0;
    for (const auto& row : xshard_) {
        for (const auto& box : row) n += box.size();
    }
    return n;
}

EgressPort& Network::downlink(HostId h) {
    return tors_[rackOf(h)]->port(h % cfg_.hostsPerRack);
}

std::vector<const EgressPort*> Network::torUplinkPorts() const {
    std::vector<const EgressPort*> out;
    for (const auto& tor : tors_) {
        for (size_t i = cfg_.hostsPerRack; i < tor->portCount(); i++) {
            out.push_back(&tor->port(static_cast<int>(i)));
        }
    }
    return out;
}

std::vector<const EgressPort*> Network::aggrDownlinkPorts() const {
    std::vector<const EgressPort*> out;
    const int down = cfg_.podRacks();
    for (const auto& aggr : aggrs_) {
        for (int i = 0; i < down; i++) out.push_back(&aggr->port(i));
    }
    return out;
}

std::vector<const EgressPort*> Network::aggrUplinkPorts() const {
    std::vector<const EgressPort*> out;
    const int down = cfg_.podRacks();
    for (const auto& aggr : aggrs_) {
        for (size_t i = down; i < aggr->portCount(); i++) {
            out.push_back(&aggr->port(static_cast<int>(i)));
        }
    }
    return out;
}

std::vector<const EgressPort*> Network::coreDownlinkPorts() const {
    std::vector<const EgressPort*> out;
    for (const auto& core : cores_) {
        for (size_t i = 0; i < core->portCount(); i++) {
            out.push_back(&core->port(static_cast<int>(i)));
        }
    }
    return out;
}

std::vector<const EgressPort*> Network::torDownlinkPorts() const {
    std::vector<const EgressPort*> out;
    for (const auto& tor : tors_) {
        for (int i = 0; i < cfg_.hostsPerRack; i++) out.push_back(&tor->port(i));
    }
    return out;
}

}  // namespace homa
