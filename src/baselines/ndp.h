// NDP (Handley et al., SIGCOMM 2017) — receiver-driven pull with packet
// trimming.
//
// Senders blast the first RTT of a message into a FIFO NIC queue (NDP
// senders do not prioritize their transmit queues — the paper blames this
// for sender-side HOL blocking). Switches keep ~8-packet queues and trim
// overflowing data packets to headers, which travel at high priority so
// the receiver learns of the loss instantly. Receivers pace PULL packets
// at their downlink rate, round-robin across active messages (fair-share
// scheduling, not SRPT) and never overcommit — the two properties the Homa
// paper shows cause uniformly high slowdown for multi-RTT messages and a
// ~73% load ceiling.
#pragma once

#include <deque>
#include <map>
#include <optional>

#include "sched/round_robin.h"
#include <set>

#include "sim/event_loop.h"
#include "sim/topology.h"
#include "transport/transport.h"

namespace homa {

class NdpTransport final : public Transport {
public:
    /// Trim threshold per switch egress port.
    static constexpr int64_t kSwitchBufferBytes = 8 * 1500;

    /// `initialWindow`: bytes blasted blind at a message's start;
    /// `packetTime`: the downlink serialization time of a full packet.
    NdpTransport(HostServices& host, int64_t initialWindow,
                 Duration packetTime);

    void sendMessage(const Message& m) override;
    void handlePacket(const Packet& p) override;
    // NDP pushes everything (FIFO NIC); pullPacket stays empty.

    /// An initial window of rttBytes.
    static TransportFactory factory(const NetworkConfig& net);

private:
    struct OutMessage {
        Message msg;
        int64_t sentTo = 0;  // fresh bytes handed to the NIC
    };

    struct InMessage : Inbound {
        std::set<uint32_t> trimmed;   // offsets needing retransmission
        int64_t pulledTo = 0;         // fresh bytes requested beyond window
        using Inbound::Inbound;
        bool wantsPull(int64_t window) const {
            if (!trimmed.empty()) return true;
            // Pulls are clocked against arrivals: cap requested-but-unseen
            // bytes so a stalled sender doesn't accumulate a burst.
            return pulledTo < static_cast<int64_t>(reasm.messageLength()) &&
                   pulledTo - reasm.receivedBytes() < 2 * window;
        }
    };

    void pacerTick();
    void sendChunk(const Message& msg, uint32_t offset, uint32_t len,
                   bool retransmit);
    /// Keep `im`'s membership in the pull ring equal to wantsPull().
    void syncPull(InMessage& im);

    HostServices& host_;
    int64_t initialWindow_;
    Duration packetTime_;
    std::map<MsgId, OutMessage> out_;
    std::map<MsgId, InMessage> in_;
    // Fair-share pull rotation over exactly the messages that want a pull;
    // replaces an O(n) cursor scan of the whole inbound table per tick.
    RoundRobinSet<MsgId> pullRing_;
    Timer pacer_;
    bool pacerRunning_ = false;
};

}  // namespace homa
