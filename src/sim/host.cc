#include "sim/host.h"

#include <cassert>
#include <utility>

namespace homa {

void SoftwareDelayQueue::push(Host& h, const Packet& p) {
    // A host of another loop would wait on another lane (and thread).
    assert(&h.loop() == &loop_);
    if (size_ == ring_.size()) grow();
    ring_[(head_ + size_) & (ring_.size() - 1)] = Entry{&h, p};
    size_++;
    loop_.afterLane(lane_, [this] { deliverFront(); });
}

void SoftwareDelayQueue::deliverFront() {
    assert(size_ > 0);
    // Copied out first: the transport may push again, which can grow the
    // ring.
    const Entry e = ring_[head_];
    head_ = (head_ + 1) & (ring_.size() - 1);
    size_--;
    e.host->transport().handlePacket(e.packet);
}

void SoftwareDelayQueue::grow() {
    std::vector<Entry> next(ring_.empty() ? 16 : ring_.size() * 2);
    for (size_t i = 0; i < size_; i++) {
        next[i] = ring_[(head_ + i) & (ring_.size() - 1)];
    }
    ring_ = std::move(next);
    head_ = 0;
}

Host::Host(EventLoop& loop, HostId id, Bandwidth nicSpeed,
           SoftwareDelayQueue& rxDelay, Rng rng)
    : loop_(loop),
      id_(id),
      rng_(rng),
      nic_(loop, nicSpeed, std::make_unique<StrictPriorityQdisc>()),
      rxDelay_(rxDelay) {}

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
    rxDelay_.push(*this, p);
}

void Host::pushPacket(Packet p) {
    p.src = id_;
    if (p.created < 0) p.created = loop_.now();
    nic_.enqueue(std::move(p));
}

}  // namespace homa
