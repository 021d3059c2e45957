#include "sim/switch.h"

#include <algorithm>
#include <cassert>
#include <utility>

namespace homa {

int Switch::addPort(Bandwidth bw, std::unique_ptr<Qdisc> qdisc, PacketSink* peer) {
    auto port = std::make_unique<EgressPort>(loop_, bw, std::move(qdisc));
    port->connectTo(peer);
    port->setOwner(this);
    ports_.push_back(std::move(port));
    return static_cast<int>(ports_.size()) - 1;
}

void Switch::insertTransit(Time arrival, Packet p) {
    Transit t{arrival + delay_, p.arrivalLink, std::move(p)};
    auto before = [](const Transit& a, const Transit& b) {
        return a.route != b.route ? a.route < b.route : a.link < b.link;
    };
    // A local arrival almost always sorts last: append without searching.
    // Otherwise upper_bound keeps equal keys FIFO. Real links serialize, so
    // two packets can tie on (route, link) only when tests call deliver()
    // directly (link -1); FIFO preserves their scheduling order.
    if (transit_.empty() || !before(t, transit_.back())) {
        transit_.push_back(std::move(t));
        return;
    }
    auto pos = std::upper_bound(transit_.begin(), transit_.end(), t, before);
    transit_.insert(pos, std::move(t));
}

void Switch::deliver(Packet p) {
    if (dead_) {
        deadIngressDrops_++;
        return;
    }
    insertTransit(loop_.now(), std::move(p));
    loop_.afterLane(delayLane_, [this] { routeDue(); });
}

void Switch::injectArrival(Time arrival, Packet p) {
    if (dead_) {
        // A parked cross-shard packet can reach a dead switch after the
        // kill event even though its wire arrival preceded the death: the
        // serial engine would have put it in transit and flushed it at the
        // kill, so attribute by arrival time to keep the by-cause counters
        // byte-identical to serial. (Ties go to ingress drops: the kill is
        // a setup-scheduled event and sorts before arrivals at the same
        // instant.)
        if (arrival < diedAt_) {
            flushDrops_++;
        } else {
            deadIngressDrops_++;
        }
        return;
    }
    assert(arrival + delay_ >= loop_.now());
    insertTransit(arrival, std::move(p));
    loop_.at(arrival + delay_, [this] { routeDue(); });
}

void Switch::kill() {
    if (dead_) return;
    dead_ = true;
    diedAt_ = loop_.now();
    flushDrops_ += transit_.size();
    transit_.clear();
    for (auto& port : ports_) {
        flushDrops_ += port->dropAllQueued();
        port->faultKill();
    }
}

void Switch::routeDue() {
    while (!transit_.empty() && transit_.front().route <= loop_.now()) {
        Packet p = std::move(transit_.front().pkt);
        transit_.pop_front();
        assert(route_);
        const int out = route_(p, rng_);
        assert(out >= 0 && out < static_cast<int>(ports_.size()));
        ports_[out]->enqueue(std::move(p));
    }
}

}  // namespace homa
