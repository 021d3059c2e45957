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

void FluidEngine::addLinksFor(Flow& f) const {
    const int links = static_cast<int>(links_.size());
    const int hosts = rackBase_ >= 0 ? rackBase_ / 2 : links / 2;
    const int srcRack = f.msg.src / hostsPerRack_;
    const int dstRack = f.msg.dst / hostsPerRack_;
    f.nLinks = 0;
    f.links[f.nLinks++] = f.msg.src;          // host uplink
    f.links[f.nLinks++] = hosts + f.msg.dst;  // host downlink
    f.intraRack = srcRack == dstRack;
    if (f.intraRack || rackBase_ < 0) return;
    const int racks = ((podBase_ >= 0 ? podBase_ : links) - rackBase_) / 2;
    f.links[f.nLinks++] = rackBase_ + srcRack;          // rack uplink trunk
    f.links[f.nLinks++] = rackBase_ + racks + dstRack;  // rack downlink trunk
    if (podBase_ < 0) return;
    const int srcPod = srcRack / podRacks_;
    const int dstPod = dstRack / podRacks_;
    if (srcPod == dstPod) return;
    const int pods = (links - podBase_) / 2;
    f.links[f.nLinks++] = podBase_ + srcPod;         // pod->core trunk
    f.links[f.nLinks++] = podBase_ + pods + dstPod;  // core->pod trunk
}

void FluidEngine::attach(int slot) {
    const Flow& f = slots_[slot];
    for (int k = 0; k < f.nLinks; k++) {
        Link& link = links_[f.links[k]];
        const int node = slot * kMaxHops + k;
        hopPrev_[node] = -1;
        hopNext_[node] = link.head;
        if (link.head >= 0) hopPrev_[link.head] = node;
        link.head = node;
        changeFlowCount(f.links[k], +1);
    }
}

void FluidEngine::detach(int slot) {
    const Flow& f = slots_[slot];
    for (int k = 0; k < f.nLinks; k++) {
        Link& link = links_[f.links[k]];
        const int node = slot * kMaxHops + k;
        const int prev = hopPrev_[node];
        const int next = hopNext_[node];
        if (prev >= 0) {
            hopNext_[prev] = next;
        } else {
            link.head = next;
        }
        if (next >= 0) hopPrev_[next] = prev;
        changeFlowCount(f.links[k], -1);
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
        slots_[slot].rate = rate;
        frozenNow_.push_back(slot);
    }
}

void FluidEngine::solveRates() {
    if (order_.empty()) return;
    solves_++;
    const uint64_t stamp = ++solveStamp_;
    for (int id : nonempty_) {
        LinkClass& c = classes_[id];
        c.alloc = 0;
        c.untouched = static_cast<int>(c.members.size());
    }
    touched_.clear();
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
        double inc = std::numeric_limits<double>::infinity();
        for (int id : nonempty_) {
            const LinkClass& c = classes_[id];
            if (c.untouched == 0) continue;
            const double room =
                (c.capacity - c.alloc) / static_cast<double>(c.flows);
            if (room < inc) inc = room;
        }
        for (int l : touched_) {
            const Link& link = links_[l];
            const double room =
                (link.capacity - link.alloc) / static_cast<double>(link.active);
            if (room < inc) inc = room;
        }
        if (!std::isfinite(inc) || inc < 0) inc = 0;
        rate += inc;
        // Grow every allocation by one increment per unfrozen flow, then
        // freeze the flows of the saturated links. Freezing writes no link
        // state, so every test reads this round's allocations.
        frozenNow_.clear();
        for (int id : nonempty_) {
            LinkClass& c = classes_[id];
            if (c.untouched == 0) continue;
            for (int k = 0; k < c.flows; k++) c.alloc += inc;
            if (c.capacity - c.alloc > kSaturationEps * c.capacity) continue;
            for (int l : c.members) {
                if (links_[l].stamp != stamp) freezeFlowsOn(l, rate);
            }
        }
        for (int l : touched_) {
            Link& link = links_[l];
            for (int k = 0; k < link.active; k++) link.alloc += inc;
            if (link.capacity - link.alloc <= kSaturationEps * link.capacity) {
                freezeFlowsOn(l, rate);
            }
        }
        if (frozenNow_.empty()) break;  // fp corner: accept rates
        unfrozen -= frozenNow_.size();
        if (unfrozen == 0) break;  // every flow froze: no later round
        // A link leaves its class when its first flow freezes, carrying
        // the class's allocation and its own unfrozen count from there on.
        for (int slot : frozenNow_) {
            const Flow& f = slots_[slot];
            for (int k = 0; k < f.nLinks; k++) {
                Link& link = links_[f.links[k]];
                if (link.stamp != stamp) {
                    LinkClass& c = classes_[link.cls];
                    link.stamp = stamp;
                    link.alloc = c.alloc;
                    link.active = link.flows;
                    c.untouched--;
                    touched_.push_back(f.links[k]);
                }
                link.active--;
            }
        }
        // Links no unfrozen flow crosses any more take no further part.
        std::erase_if(touched_,
                      [this](int l) { return links_[l].active == 0; });
    }
    if (unfrozen == 0) return;
    for (int slot : order_) {
        if (frozen_[slot] != stamp) slots_[slot].rate = rate;
    }
}

void FluidEngine::advanceAndComplete(Time now) {
    const double dt = static_cast<double>(now - lastSolve_);
    if (dt > 0) {
        for (int slot : order_) {
            Flow& f = slots_[slot];
            f.remaining -= f.rate * dt;
        }
    }
    lastSolve_ = now;
    size_t w = 0;
    for (int slot : order_) {
        if (slots_[slot].remaining <= kDoneBytesEps) {
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
    const double best = static_cast<double>(
        cfg_.bestOneWay(f.msg.length, f.intraRack));
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
    if (order_.empty()) return;
    double soonest = std::numeric_limits<double>::infinity();
    for (int slot : order_) {
        const Flow& f = slots_[slot];
        if (f.rate > 0) soonest = std::min(soonest, f.remaining / f.rate);
    }
    if (!std::isfinite(soonest)) return;  // every flow stalled (cap == 0)
    const Time at =
        lastSolve_ + std::max<Time>(1, static_cast<Time>(std::ceil(soonest)));
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
    Flow f;
    f.msg = m;
    f.wire = wireBytesOf(m.length);
    f.remaining = f.wire;
    addLinksFor(f);
    // Latency tail: whatever the unloaded pipeline costs beyond pure NIC
    // serialization (switch hops, store-and-forward offsets, receiver
    // software delay). An uncontended flow transfers at NIC rate, so its
    // completion lands exactly on the oracle's best one-way time.
    const Duration serialization = static_cast<Duration>(
        std::llround(f.wire / std::max(links_[m.src].capacity, 1e-12)));
    f.tail = std::max<Duration>(
        0, cfg_.bestOneWay(m.length, f.intraRack) - serialization);

    admitted_++;
    payloadBytes_ += static_cast<int64_t>(m.length);
    wireBytes_ += static_cast<int64_t>(f.wire);

    advanceAndComplete(loop_.now());
    int slot;
    if (freeSlots_.empty()) {
        slot = static_cast<int>(slots_.size());
        slots_.push_back(f);
        frozen_.push_back(0);
        hopNext_.resize(slots_.size() * kMaxHops);
        hopPrev_.resize(slots_.size() * kMaxHops);
    } else {
        slot = freeSlots_.back();
        freeSlots_.pop_back();
        slots_[slot] = f;
    }
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
        const Flow& f = slots_[slot];
        s.flowLinks.emplace_back(f.links, f.links + f.nLinks);
        s.rates.push_back(f.rate);
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
