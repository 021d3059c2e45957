// pFabric (Alizadeh et al., SIGCOMM 2013) — near-optimal SRPT via
// fine-grained in-network priorities.
//
// Every packet carries the sender's remaining message size; switches keep
// tiny buffers, drop the packet with the largest remaining size on
// overflow, and dequeue the smallest (PFabricQdisc). Rate control is
// minimal, per the pFabric philosophy: send at line rate within a BDP
// window, recover drops with a small retransmission timeout. The paper
// credits pFabric with near-optimal latency but notes it wastes bandwidth
// on dropped/retransmitted packets (Figure 15) and needs priority hardware
// that does not exist; both properties reproduce here.
#pragma once

#include <map>
#include <optional>

#include "sched/srpt_index.h"
#include "sim/event_loop.h"
#include "sim/topology.h"
#include "transport/transport.h"

namespace homa {

class PFabricTransport final : public Transport {
public:
    /// Switch buffer per egress port (the paper's setup uses ~2 BDP).
    static constexpr int64_t kSwitchBufferBytes = 36 * 1500;

    /// `windowBytes`: bytes each message may have in flight; `rto`: how
    /// long without an ACK before the first unacked range is resent.
    PFabricTransport(HostServices& host, int64_t windowBytes, Duration rto);

    void sendMessage(const Message& m) override;
    void handlePacket(const Packet& p) override;
    std::optional<Packet> pullPacket() override;

    /// A window of rttBytes (the BDP) and an RTO of 3x the network RTT.
    static TransportFactory factory(const NetworkConfig& net);

    uint64_t retransmissions() const { return retransmissions_; }

private:
    struct OutMessage {
        Message msg;
        Reassembly acked;         // which bytes the receiver confirmed
        int64_t nextOffset = 0;   // next fresh byte
        int64_t inFlight = 0;
        Time lastAckActivity = 0;
        std::optional<std::pair<uint32_t, uint32_t>> retransmit;

        OutMessage(Message m) : msg(m), acked(m.length) {}
        int64_t remaining() const {
            return static_cast<int64_t>(msg.length) - acked.receivedBytes();
        }
        bool sendable(int64_t window) const {
            return retransmit.has_value() ||
                   (nextOffset < msg.length && inFlight < window);
        }
    };

    void checkTimeouts();
    void syncSendable(const OutMessage& om);

    HostServices& host_;
    int64_t windowBytes_;
    Duration rto_;
    std::map<MsgId, OutMessage> out_;
    std::map<MsgId, Inbound> in_;
    // SRPT order over the sendable subset of out_, keyed by remaining().
    SrptIndex<MsgId> sendable_;
    Timer rtoScan_;
    uint64_t retransmissions_ = 0;
};

}  // namespace homa
