// A simulated end host: NIC + fixed software delay + transport instance.
#pragma once

#include <memory>
#include <vector>

#include "sim/event_loop.h"
#include "sim/packet.h"
#include "sim/port.h"
#include "sim/random.h"
#include "transport/transport.h"

namespace homa {

class Host;

/// The hosts' fixed software delay on one event loop: one FIFO of (host,
/// packet) shared by every host of the loop, in place of a queue per host.
///
/// Exact, because every host of a loop waits the same delay on the same
/// lane, and a lane fires its events in append order: the k-th event the
/// lane fires is the k-th push, so popping the front hands each packet to
/// its own host. Only the loop's own thread touches the FIFO.
class SoftwareDelayQueue {
public:
    SoftwareDelayQueue(EventLoop& loop, Duration delay)
        : loop_(loop), lane_(loop.fixedDelayLane(delay)) {}
    SoftwareDelayQueue(const SoftwareDelayQueue&) = delete;
    SoftwareDelayQueue& operator=(const SoftwareDelayQueue&) = delete;

    /// Hand `p` to `h`'s transport one software delay after now(). `h`
    /// must live on this queue's loop.
    void push(Host& h, const Packet& p);

private:
    struct Entry {
        Host* host = nullptr;
        Packet packet;
    };

    void deliverFront();
    void grow();

    EventLoop& loop_;
    EventLoop::LaneId lane_;
    // Ring buffer: capacity zero until first use, then a power of two; it
    // never shrinks, so a warmed-up queue performs no allocation. Member
    // storage keeps the scheduled events pointer-sized.
    std::vector<Entry> ring_;
    size_t head_ = 0;
    size_t size_ = 0;
};

class Host final : public PacketSink, public PacketSource, public HostServices {
public:
    /// `rxDelay` is the software-delay queue of `loop`.
    Host(EventLoop& loop, HostId id, Bandwidth nicSpeed,
         SoftwareDelayQueue& rxDelay, Rng rng);

    /// Install the transport (must be called before traffic flows).
    void setTransport(std::unique_ptr<Transport> t);

    Transport& transport() { return *transport_; }
    EgressPort& nic() { return nic_; }

    /// Packets fully received off the TOR downlink (conservation
    /// accounting in test_fault: every packet a NIC started serializing is
    /// eventually received here, dropped somewhere with a counted cause,
    /// or still in flight).
    uint64_t rxPackets() const { return rxPackets_; }

    // PacketSink: packet fully received from the TOR downlink.
    void deliver(Packet p) override;

    // PacketSource: the NIC pulls the transport's next data packet; the
    // host stamps source and creation time.
    std::optional<Packet> pullPacket() override;

    // HostServices.
    EventLoop& loop() override { return loop_; }
    HostId id() const override { return id_; }
    void pushPacket(Packet p) override;
    void kickNic() override { nic_.kick(); }
    Rng& rng() override { return rng_; }

private:
    EventLoop& loop_;
    HostId id_;
    Rng rng_;
    EgressPort nic_;
    std::unique_ptr<Transport> transport_;
    SoftwareDelayQueue& rxDelay_;
    uint64_t rxPackets_ = 0;
};

}  // namespace homa
