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
    capacity_.assign(static_cast<size_t>(2 * n), 0.0);
    const double hostCap = share * bytesPerPs(net.hostLink);
    for (int h = 0; h < 2 * n; h++) capacity_[static_cast<size_t>(h)] = hostCap;

    if (!net.singleRack()) {
        rackBase_ = static_cast<int>(capacity_.size());
        // Packet spraying spreads a rack's cross-rack traffic evenly over
        // its uplinks, so the whole uplink stage behaves like one pooled
        // trunk of aggrSwitches x coreLink (same pool downward).
        const double rackCap =
            share * static_cast<double>(net.aggrSwitches) *
            bytesPerPs(net.coreLink);
        capacity_.insert(capacity_.end(), static_cast<size_t>(2 * net.racks),
                         rackCap);
    } else {
        rackBase_ = -1;
    }
    if (net.threeTier()) {
        podBase_ = static_cast<int>(capacity_.size());
        // Each pod's aggrs together run aggrSwitches x coreSwitches
        // uplinks at the oversubscribed aggr<->core bandwidth — the trunk
        // where cross-pod fluid flows contend, exactly like cross-pod
        // packets do on the real oversubscribed core.
        const double podCap =
            share * static_cast<double>(net.aggrSwitches) *
            static_cast<double>(net.coreSwitches) *
            bytesPerPs(net.aggrCoreLink());
        capacity_.insert(capacity_.end(), static_cast<size_t>(2 * net.pods()),
                         podCap);
    } else {
        podBase_ = -1;
    }
    alloc_.assign(capacity_.size(), 0.0);
    active_.assign(capacity_.size(), 0);
}

void FluidEngine::addLinksFor(Flow& f) const {
    const int hosts = rackBase_ >= 0 ? rackBase_ / 2
                                     : static_cast<int>(capacity_.size()) / 2;
    const int srcRack = f.msg.src / hostsPerRack_;
    const int dstRack = f.msg.dst / hostsPerRack_;
    f.nLinks = 0;
    f.links[f.nLinks++] = f.msg.src;          // host uplink
    f.links[f.nLinks++] = hosts + f.msg.dst;  // host downlink
    f.intraRack = srcRack == dstRack;
    if (f.intraRack || rackBase_ < 0) return;
    const int racks = (podBase_ >= 0 ? podBase_ - rackBase_
                                     : static_cast<int>(capacity_.size()) -
                                           rackBase_) /
                      2;
    f.links[f.nLinks++] = rackBase_ + srcRack;          // rack uplink trunk
    f.links[f.nLinks++] = rackBase_ + racks + dstRack;  // rack downlink trunk
    if (podBase_ < 0) return;
    const int srcPod = srcRack / podRacks_;
    const int dstPod = dstRack / podRacks_;
    if (srcPod == dstPod) return;
    const int pods = (static_cast<int>(capacity_.size()) - podBase_) / 2;
    f.links[f.nLinks++] = podBase_ + srcPod;         // pod->core trunk
    f.links[f.nLinks++] = podBase_ + pods + dstPod;  // core->pod trunk
}

void FluidEngine::solveRates() {
    if (flows_.empty()) return;
    solves_++;
    // alloc_ and active_ are all-zero on entry; collect the links this
    // flow set touches while counting the flows on each.
    links_.clear();
    for (Flow& f : flows_) {
        f.rate = 0;
        for (int k = 0; k < f.nLinks; k++) {
            if (active_[f.links[k]]++ == 0) links_.push_back(f.links[k]);
        }
    }
    unfrozen_.resize(flows_.size());
    for (size_t i = 0; i < flows_.size(); i++) unfrozen_[i] = i;
    // Progressive filling: all unfrozen flows grow at the same rate until
    // some link saturates; flows crossing a saturated link freeze at their
    // current rate; repeat on the rest. Each round costs O(active links +
    // unfrozen flows x hops). The rates are a pure function of the flow
    // set: the min over link rooms does not depend on scan order, each
    // link's alloc_ receives the same `inc` additions in admission order
    // (unfrozen_ stays in admission order as it compacts), and freezing
    // reads only alloc_, which the freeze pass does not write.
    // Each round freezes at least one flow, so flows_.size() bounds the
    // rounds; the +1 margin tolerates a no-progress epsilon round.
    for (size_t round = 0; !unfrozen_.empty() && round <= flows_.size();
         round++) {
        double inc = std::numeric_limits<double>::infinity();
        for (int l : links_) {
            const double room = (capacity_[l] - alloc_[l]) /
                                static_cast<double>(active_[l]);
            if (room < inc) inc = room;
        }
        if (!std::isfinite(inc) || inc < 0) inc = 0;
        for (size_t i : unfrozen_) {
            Flow& f = flows_[i];
            f.rate += inc;
            for (int k = 0; k < f.nLinks; k++) alloc_[f.links[k]] += inc;
        }
        size_t kept = 0;
        for (size_t i : unfrozen_) {
            const Flow& f = flows_[i];
            bool saturated = false;
            for (int k = 0; k < f.nLinks && !saturated; k++) {
                const int l = f.links[k];
                saturated = capacity_[l] - alloc_[l] <=
                            kSaturationEps * capacity_[l];
            }
            if (!saturated) {
                unfrozen_[kept++] = i;
                continue;
            }
            for (int k = 0; k < f.nLinks; k++) active_[f.links[k]]--;
        }
        if (kept == unfrozen_.size()) break;  // fp corner: accept rates
        unfrozen_.resize(kept);
        // Drop the links no unfrozen flow crosses any more. Nothing adds
        // to their alloc_ for the rest of the solve, so zero it now.
        size_t live = 0;
        for (int l : links_) {
            if (active_[l] > 0) {
                links_[live++] = l;
            } else {
                alloc_[l] = 0;
            }
        }
        links_.resize(live);
    }
    for (int l : links_) {
        alloc_[l] = 0;
        active_[l] = 0;
    }
}

void FluidEngine::advanceAndComplete(Time now) {
    const double dt = static_cast<double>(now - lastSolve_);
    if (dt > 0) {
        for (Flow& f : flows_) f.remaining -= f.rate * dt;
    }
    lastSolve_ = now;
    size_t w = 0;
    for (size_t i = 0; i < flows_.size(); i++) {
        if (flows_[i].remaining <= kDoneBytesEps) {
            completeFlow(std::move(flows_[i]), now);
        } else {
            if (w != i) flows_[w] = std::move(flows_[i]);
            w++;
        }
    }
    flows_.resize(w);
}

void FluidEngine::completeFlow(Flow f, Time at) {
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
}

void FluidEngine::armNextCompletion() {
    loop_.cancel(next_);
    next_ = EventLoop::EventHandle{};
    if (flows_.empty()) return;
    double soonest = std::numeric_limits<double>::infinity();
    for (const Flow& f : flows_) {
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
        std::llround(f.wire / std::max(capacity_[static_cast<size_t>(m.src)],
                                       1e-12)));
    f.tail = std::max<Duration>(
        0, cfg_.bestOneWay(m.length, f.intraRack) - serialization);

    admitted_++;
    payloadBytes_ += static_cast<int64_t>(m.length);
    wireBytes_ += static_cast<int64_t>(f.wire);

    advanceAndComplete(loop_.now());
    flows_.push_back(f);
    maxConcurrent_ = std::max<uint64_t>(maxConcurrent_, flows_.size());
    solveRates();
    armNextCompletion();
    return true;
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
