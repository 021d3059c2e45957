// A simulated end host: NIC + fixed software delay + transport instance.
#pragma once

#include <deque>
#include <memory>

#include "sim/event_loop.h"
#include "sim/packet.h"
#include "sim/port.h"
#include "sim/random.h"
#include "transport/transport.h"

namespace homa {

class Host final : public PacketSink, public PacketSource, public HostServices {
public:
    Host(EventLoop& loop, HostId id, Bandwidth nicSpeed, Duration softwareDelay,
         Rng rng);

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
    void processHead();

    EventLoop& loop_;
    HostId id_;
    EventLoop::LaneId softwareLane_;  // the software delay's lane
    Rng rng_;
    EgressPort nic_;
    std::unique_ptr<Transport> transport_;
    // Packets waiting out the software delay (fixed delay => FIFO); member
    // storage keeps the scheduled events pointer-sized.
    std::deque<Packet> pendingRx_;
    uint64_t rxPackets_ = 0;
};

}  // namespace homa
