#include "sim/fluid.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "sim/packet.h"

namespace homa {

namespace {

// A link is saturated when its remaining room is this fraction of its
// capacity or less; a flow is done when this many bytes (or fewer) remain.
// Both guards absorb the rounding of repeated double accumulation without
// affecting any realistic rate (capacities are ~1e-3 bytes/ps).
constexpr double kSaturationEps = 1e-9;
constexpr double kDoneBytesEps = 1e-6;

double wireBytesOf(uint32_t length) {
    // Mirrors messageWireBytes() (workload layer): payload plus transport
    // header and Ethernet framing per packet.
    const int64_t len = static_cast<int64_t>(length);
    const int64_t packets =
        std::max<int64_t>(1, (len + kMaxPayload - 1) / kMaxPayload);
    return static_cast<double>(len + packets * (kHeaderBytes + kFrameOverhead));
}

double bytesPerPs(Bandwidth b) {
    return b.psPerByte > 0 ? 1.0 / static_cast<double>(b.psPerByte) : 0.0;
}

}  // namespace

FluidEngine::FluidEngine(EventLoop& loop, const NetworkConfig& net,
                         FluidConfig cfg)
    : loop_(loop), cfg_(std::move(cfg)) {
    if (!cfg_.bestOneWay) {
        throw std::invalid_argument("FluidConfig::bestOneWay is required");
    }
    // std::clamp passes NaN through, which would make every capacity NaN.
    if (std::isnan(cfg_.reservedFraction)) {
        throw std::invalid_argument(
            "FluidConfig::reservedFraction must be a number");
    }
    const double share =
        1.0 - std::clamp(cfg_.reservedFraction, 0.0, 0.95);
    const int n = net.hostCount();
    hostsPerRack_ = net.hostsPerRack;
    podRacks_ = net.podRacks();

    // Host NIC up/down links first. The trunk blocks only exist on
    // topologies that have the corresponding tier: intra-rack flows cross
    // two links, cross-rack four, cross-pod six.
    std::vector<double> capacity(static_cast<size_t>(2 * n),
                                 share * bytesPerPs(net.hostLink));
    if (!net.singleRack()) {
        rackBase_ = static_cast<int>(capacity.size());
        // Packet spraying spreads a rack's cross-rack traffic evenly over
        // its uplinks, so the whole uplink stage behaves like one pooled
        // trunk of aggrSwitches x coreLink (same pool downward).
        const double rackCap =
            share * static_cast<double>(net.aggrSwitches) *
            bytesPerPs(net.coreLink);
        capacity.insert(capacity.end(), static_cast<size_t>(2 * net.racks),
                        rackCap);
    } else {
        rackBase_ = -1;
    }
    if (net.threeTier()) {
        podBase_ = static_cast<int>(capacity.size());
        // Each pod's aggrs together run aggrSwitches x coreSwitches
        // uplinks at the oversubscribed aggr<->core bandwidth — the trunk
        // where cross-pod fluid flows contend, exactly like cross-pod
        // packets do on the real oversubscribed core.
        const double podCap =
            share * static_cast<double>(net.aggrSwitches) *
            static_cast<double>(net.coreSwitches) *
            bytesPerPs(net.aggrCoreLink());
        capacity.insert(capacity.end(), static_cast<size_t>(2 * net.pods()),
                        podCap);
    } else {
        podBase_ = -1;
    }
    // Classes are keyed by capacity group (links of equal capacity) and
    // flow count.
    std::vector<double> groups;
    links_.resize(capacity.size());
    for (size_t l = 0; l < capacity.size(); l++) {
        const auto g = std::find(groups.begin(), groups.end(), capacity[l]);
        links_[l].capacity = capacity[l];
        links_[l].group = static_cast<int>(g - groups.begin());
        if (g == groups.end()) groups.push_back(capacity[l]);
    }
    classAt_.resize(groups.size());
}

int FluidEngine::route(const Message& m, int* links) const {
    const int total = static_cast<int>(links_.size());
    const int hosts = rackBase_ >= 0 ? rackBase_ / 2 : total / 2;
    const int srcRack = m.src / hostsPerRack_;
    const int dstRack = m.dst / hostsPerRack_;
    int n = 0;
    links[n++] = m.src;          // host uplink
    links[n++] = hosts + m.dst;  // host downlink
    if (srcRack == dstRack || rackBase_ < 0) return n;
    const int racks = ((podBase_ >= 0 ? podBase_ : total) - rackBase_) / 2;
    links[n++] = rackBase_ + srcRack;          // rack uplink trunk
    links[n++] = rackBase_ + racks + dstRack;  // rack downlink trunk
    if (podBase_ < 0) return n;
    const int srcPod = srcRack / podRacks_;
    const int dstPod = dstRack / podRacks_;
    if (srcPod == dstPod) return n;
    const int pods = (total - podBase_) / 2;
    links[n++] = podBase_ + srcPod;         // pod->core trunk
    links[n++] = podBase_ + pods + dstPod;  // core->pod trunk
    return n;
}

void FluidEngine::attach(int slot) {
    for (int k = 0; k < hops_[slot]; k++) {
        const int node = slot * kMaxHops + k;
        Link& link = links_[linkOf_[node]];
        hopPrev_[node] = -1;
        hopNext_[node] = link.head;
        if (link.head >= 0) hopPrev_[link.head] = node;
        link.head = node;
        changeFlowCount(linkOf_[node], +1);
    }
}

void FluidEngine::detach(int slot) {
    for (int k = 0; k < hops_[slot]; k++) {
        const int node = slot * kMaxHops + k;
        Link& link = links_[linkOf_[node]];
        const int prev = hopPrev_[node];
        const int next = hopNext_[node];
        if (prev >= 0) {
            hopNext_[prev] = next;
        } else {
            link.head = next;
        }
        if (next >= 0) hopPrev_[next] = prev;
        changeFlowCount(linkOf_[node], -1);
    }
}

void FluidEngine::changeFlowCount(int l, int delta) {
    Link& link = links_[l];
    if (link.cls >= 0) {
        LinkClass& c = classes_[link.cls];
        const int last = c.members.back();
        c.members[link.classPos] = last;
        links_[last].classPos = link.classPos;
        c.members.pop_back();
        if (c.members.empty()) {
            const int moved = nonempty_.back();
            nonempty_[c.listed] = moved;
            classes_[moved].listed = c.listed;
            nonempty_.pop_back();
            c.listed = -1;
        }
    }
    link.flows += delta;
    link.cls = -1;
    if (link.flows == 0) return;
    std::vector<int>& byCount = classAt_[link.group];
    if (byCount.size() <= static_cast<size_t>(link.flows)) {
        byCount.resize(static_cast<size_t>(link.flows) + 1, -1);
    }
    int& id = byCount[link.flows];
    if (id < 0) {
        id = static_cast<int>(classes_.size());
        LinkClass fresh;
        fresh.capacity = link.capacity;
        fresh.flows = link.flows;
        classes_.push_back(std::move(fresh));
    }
    LinkClass& c = classes_[id];
    if (c.members.empty()) {
        c.listed = static_cast<int>(nonempty_.size());
        nonempty_.push_back(id);
    }
    link.cls = id;
    link.classPos = static_cast<int>(c.members.size());
    c.members.push_back(l);
}

void FluidEngine::freezeFlowsOn(int l, double rate) {
    for (int node = links_[l].head; node >= 0; node = hopNext_[node]) {
        const int slot = node / kMaxHops;
        uint64_t& frozen = frozen_[slot];
        if (frozen == solveStamp_) continue;
        frozen = solveStamp_;
        rate_[slot] = rate;
        frozenNow_.push_back(slot);
    }
}

void FluidEngine::freezeBySweep(double rate) {
    const uint64_t stamp = solveStamp_;
    const uint64_t mark = roundMark_;
    size_t kept = 0;
    for (int slot : live_) {
        uint64_t& frozen = frozen_[slot];
        if (frozen == stamp) continue;  // froze in an earlier round
        // An untouched link saturated when its class did; a touched one
        // carries its own mark.
        const int* hop = &linkOf_[static_cast<size_t>(slot) * kMaxHops];
        bool saturated = false;
        for (int k = 0; k < hops_[slot] && !saturated; k++) {
            const Link& link = links_[hop[k]];
            saturated = (link.stamp == stamp
                             ? link.saturated
                             : classes_[link.cls].saturated) == mark;
        }
        if (!saturated) {
            live_[kept++] = slot;
            continue;
        }
        frozen = stamp;
        rate_[slot] = rate;
        frozenNow_.push_back(slot);
    }
    live_.resize(kept);
}

void FluidEngine::solveRates() {
    soonest_ = std::numeric_limits<double>::infinity();
    if (order_.empty()) return;
    solves_++;
    const uint64_t stamp = ++solveStamp_;
    for (int id : nonempty_) {
        LinkClass& c = classes_[id];
        c.alloc = 0;
        c.untouched = static_cast<int>(c.members.size());
    }
    touched_.clear();
    live_.assign(order_.begin(), order_.end());
    // Progressive filling over link classes (see the header comment): all
    // unfrozen flows grow at the same rate until some link saturates;
    // flows crossing a saturated link freeze at their current rate; repeat
    // on the rest. `rate` is every unfrozen flow's running sum of
    // increments. An untouched link's allocation is its class's; a touched
    // one (stamp == this solve) keeps its own. Each round freezes at least
    // one flow, so the flow count bounds the rounds; the +1 margin
    // tolerates a no-progress epsilon round.
    size_t unfrozen = order_.size();
    double rate = 0;
    for (size_t round = 0; unfrozen > 0 && round <= order_.size(); round++) {
        const uint64_t mark = ++roundMark_;
        double inc = std::numeric_limits<double>::infinity();
        for (int id : nonempty_) {
            const LinkClass& c = classes_[id];
            if (c.untouched == 0) continue;
            const double room =
                (c.capacity - c.alloc) / static_cast<double>(c.flows);
            if (room < inc) inc = room;
        }
        // Touched links no unfrozen flow crosses any more take no further
        // part; this pass drops them.
        size_t kept = 0;
        for (int l : touched_) {
            const Link& link = links_[l];
            if (link.active == 0) continue;
            touched_[kept++] = l;
            const double room =
                (link.capacity - link.alloc) / static_cast<double>(link.active);
            if (room < inc) inc = room;
        }
        touched_.resize(kept);
        if (!std::isfinite(inc) || inc < 0) inc = 0;
        rate += inc;
        // Grow every allocation by one increment per unfrozen flow and mark
        // the saturated classes and links. Freezing writes no link state,
        // so every test reads this round's allocations. `listed` counts the
        // flow-list entries a walk of the saturated links would read.
        satClasses_.clear();
        satLinks_.clear();
        size_t listed = 0;
        for (int id : nonempty_) {
            LinkClass& c = classes_[id];
            if (c.untouched == 0) continue;
            for (int k = 0; k < c.flows; k++) c.alloc += inc;
            if (c.capacity - c.alloc > kSaturationEps * c.capacity) continue;
            c.saturated = mark;
            satClasses_.push_back(id);
            listed += static_cast<size_t>(c.untouched) *
                      static_cast<size_t>(c.flows);
        }
        // A touched link adds the increment once per active flow too. The
        // tail adds +0.0 where a flow is missing, which leaves a
        // non-negative allocation bit for bit, so no branch mispredicts
        // on each link's count.
        const double incOr0[2] = {0.0, inc};
        for (int l : touched_) {
            Link& link = links_[l];
            double alloc = link.alloc;
            int n = link.active;
            for (; n >= 4; n -= 4) {
                alloc += inc;
                alloc += inc;
                alloc += inc;
                alloc += inc;
            }
            alloc += incOr0[n > 0];
            alloc += incOr0[n > 1];
            alloc += incOr0[n > 2];
            link.alloc = alloc;
            if (link.capacity - alloc > kSaturationEps * link.capacity) {
                continue;
            }
            link.saturated = mark;
            satLinks_.push_back(l);
            listed += static_cast<size_t>(link.flows);
        }
        // Both walks freeze the same flows at the same rate.
        frozenNow_.clear();
        if (listed > live_.size()) {
            freezeBySweep(rate);
        } else {
            for (int id : satClasses_) {
                for (int l : classes_[id].members) {
                    if (links_[l].stamp != stamp) freezeFlowsOn(l, rate);
                }
            }
            for (int l : satLinks_) freezeFlowsOn(l, rate);
        }
        noteFinishes(frozenNow_, rate);
        if (frozenNow_.empty()) break;  // fp corner: accept rates
        unfrozen -= frozenNow_.size();
        if (unfrozen == 0) break;  // every flow froze: no later round
        // A link leaves its class when its first flow freezes, carrying
        // the class's allocation and its own unfrozen count from there on.
        for (int slot : frozenNow_) {
            const int* hop = &linkOf_[static_cast<size_t>(slot) * kMaxHops];
            for (int k = 0; k < hops_[slot]; k++) {
                Link& link = links_[hop[k]];
                if (link.stamp != stamp) {
                    LinkClass& c = classes_[link.cls];
                    link.stamp = stamp;
                    link.alloc = c.alloc;
                    link.active = link.flows;
                    c.untouched--;
                    // A link of one flow has none left unfrozen.
                    if (link.flows > 1) touched_.push_back(hop[k]);
                }
                link.active--;
            }
        }
    }
    if (unfrozen == 0) return;
    size_t kept = 0;
    for (int slot : live_) {
        if (frozen_[slot] != stamp) live_[kept++] = slot;
    }
    live_.resize(kept);
    for (int slot : live_) rate_[slot] = rate;
    noteFinishes(live_, rate);
}

void FluidEngine::noteFinishes(const std::vector<int>& group, double rate) {
    // x / rate rounds monotonically in x, so the first of the group to
    // finish is the one with the fewest bytes left.
    if (group.empty() || !(rate > 0)) return;
    // Four running minima, not one chain of dependent compares.
    constexpr double kInf = std::numeric_limits<double>::infinity();
    double fewest[4] = {kInf, kInf, kInf, kInf};
    size_t i = 0;
    for (; i + 4 <= group.size(); i += 4) {
        for (size_t j = 0; j < 4; j++) {
            fewest[j] = std::min(fewest[j], remaining_[group[i + j]]);
        }
    }
    for (; i < group.size(); i++) {
        fewest[0] = std::min(fewest[0], remaining_[group[i]]);
    }
    const double least = std::min(std::min(fewest[0], fewest[1]),
                                  std::min(fewest[2], fewest[3]));
    soonest_ = std::min(soonest_, least / rate);
}

void FluidEngine::advanceAndComplete(Time now) {
    // rate x 0 is +0.0 for every (finite, non-negative) rate, so a
    // same-instant pass leaves every flow's bytes as they were.
    const double dt = static_cast<double>(now - lastSolve_);
    lastSolve_ = now;
    size_t w = 0;
    for (int slot : order_) {
        double& left = remaining_[slot];
        left -= rate_[slot] * dt;
        if (left <= kDoneBytesEps) {
            completeFlow(slot, now);
        } else {
            order_[w++] = slot;
        }
    }
    order_.resize(w);
}

void FluidEngine::completeFlow(int slot, Time at) {
    const Flow& f = slots_[slot];
    deliveredWireBytes_ += static_cast<int64_t>(f.wire);
    const Time deliverAt = at + f.tail;
    const double best = static_cast<double>(f.best);
    const uint32_t packets = std::max<uint32_t>(
        1, (f.msg.length + kMaxPayload - 1) / kMaxPayload);
    loop_.at(deliverAt, [this, m = f.msg, best, packets] {
        delivered_++;
        if (best > 0) {
            slowdowns_.push_back(
                static_cast<double>(loop_.now() - m.created) / best);
        }
        DeliveryInfo info;
        info.completed = loop_.now();
        info.packetsReceived = packets;
        if (deliver_) deliver_(m, info);
    });
    detach(slot);
    freeSlots_.push_back(slot);
}

void FluidEngine::armNextCompletion() {
    loop_.cancel(next_);
    next_ = EventLoop::EventHandle{};
    // No flow, or every flow stalled (cap == 0).
    if (!std::isfinite(soonest_)) return;
    const Time at =
        lastSolve_ + std::max<Time>(1, static_cast<Time>(std::ceil(soonest_)));
    next_ = loop_.at(at, [this] { epoch(); });
}

void FluidEngine::epoch() {
    next_ = EventLoop::EventHandle{};
    advanceAndComplete(loop_.now());
    solveRates();
    armNextCompletion();
}

bool FluidEngine::offer(const Message& m) {
    if (cfg_.thresholdBytes < 0 ||
        static_cast<int64_t>(m.length) < cfg_.thresholdBytes) {
        return false;
    }
    int links[kMaxHops];
    const int hops = route(m, links);
    Flow f;
    f.msg = m;
    f.wire = wireBytesOf(m.length);
    f.best = cfg_.bestOneWay(m.length,
                             m.src / hostsPerRack_ == m.dst / hostsPerRack_);
    // Latency tail: whatever the unloaded pipeline costs beyond pure NIC
    // serialization (switch hops, store-and-forward offsets, receiver
    // software delay). An uncontended flow transfers at NIC rate, so its
    // completion lands exactly on the oracle's best one-way time.
    const Duration serialization = static_cast<Duration>(
        std::llround(f.wire / std::max(links_[m.src].capacity, 1e-12)));
    f.tail = std::max<Duration>(0, f.best - serialization);

    admitted_++;
    payloadBytes_ += static_cast<int64_t>(m.length);
    wireBytes_ += static_cast<int64_t>(f.wire);

    advanceAndComplete(loop_.now());
    int slot;
    if (freeSlots_.empty()) {
        slot = static_cast<int>(slots_.size());
        slots_.push_back(f);
        remaining_.push_back(0);
        rate_.push_back(0);
        hops_.push_back(0);
        frozen_.push_back(0);
        linkOf_.resize(slots_.size() * kMaxHops);
        hopNext_.resize(slots_.size() * kMaxHops);
        hopPrev_.resize(slots_.size() * kMaxHops);
    } else {
        slot = freeSlots_.back();
        freeSlots_.pop_back();
        slots_[slot] = f;
    }
    remaining_[slot] = f.wire;
    rate_[slot] = 0;
    hops_[slot] = hops;
    std::copy(links, links + hops,
              &linkOf_[static_cast<size_t>(slot) * kMaxHops]);
    order_.push_back(slot);
    attach(slot);
    maxConcurrent_ = std::max<uint64_t>(maxConcurrent_, order_.size());
    solveRates();
    armNextCompletion();
    return true;
}

FluidEngine::SolverState FluidEngine::solverState() const {
    SolverState s;
    for (const Link& link : links_) s.capacity.push_back(link.capacity);
    for (int slot : order_) {
        const int* hop = &linkOf_[static_cast<size_t>(slot) * kMaxHops];
        s.flowLinks.emplace_back(hop, hop + hops_[slot]);
        s.rates.push_back(rate_[slot]);
    }
    return s;
}

FluidStats FluidEngine::stats() const {
    FluidStats s;
    s.thresholdBytes = cfg_.thresholdBytes;
    s.flows = admitted_;
    s.delivered = delivered_;
    s.solves = solves_;
    s.maxConcurrent = maxConcurrent_;
    s.payloadBytes = payloadBytes_;
    s.wireBytes = wireBytes_;
    s.deliveredWireBytes = deliveredWireBytes_;
    if (!slowdowns_.empty()) {
        std::vector<double> v = slowdowns_;
        std::sort(v.begin(), v.end());
        auto rank = [&v](double p) {
            size_t i = static_cast<size_t>(
                std::ceil(p * static_cast<double>(v.size())));
            return v[std::min(v.size() - 1, i > 0 ? i - 1 : 0)];
        };
        s.slowP50 = rank(0.50);
        s.slowP99 = rank(0.99);
        double sum = 0;
        for (double x : v) sum += x;
        s.slowMean = sum / static_cast<double>(v.size());
    }
    return s;
}

}  // namespace homa
