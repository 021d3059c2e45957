#include "sim/host.h"

#include <cassert>
#include <utility>

namespace homa {

Host::Host(EventLoop& loop, HostId id, Bandwidth nicSpeed, Duration softwareDelay,
           Rng rng)
    : loop_(loop),
      id_(id),
      softwareLane_(loop.fixedDelayLane(softwareDelay)),
      rng_(rng),
      nic_(loop, nicSpeed, std::make_unique<StrictPriorityQdisc>()) {}

void Host::setTransport(std::unique_ptr<Transport> t) {
    transport_ = std::move(t);
    nic_.setSource(this);
}

std::optional<Packet> Host::pullPacket() {
    auto p = transport_->pullPacket();
    if (p) {
        p->src = id_;
        if (p->created < 0) p->created = loop_.now();
    }
    return p;
}

void Host::deliver(Packet p) {
    // The paper's simulation setup: hosts process any number of packets in
    // parallel, each with a fixed 1.5 us software delay before the
    // transport can react (and before a response packet can be sent).
    assert(transport_ != nullptr);
    rxPackets_++;
    pendingRx_.push_back(std::move(p));
    loop_.afterLane(softwareLane_, [this] { processHead(); });
}

void Host::processHead() {
    assert(!pendingRx_.empty());
    Packet p = std::move(pendingRx_.front());
    pendingRx_.pop_front();
    transport_->handlePacket(p);
}

void Host::pushPacket(Packet p) {
    p.src = id_;
    if (p.created < 0) p.created = loop_.now();
    nic_.enqueue(std::move(p));
}

}  // namespace homa
