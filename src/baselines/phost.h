// pHost (Gao et al., CoNEXT 2015) — the receiver-driven baseline.
//
// Mechanisms the paper contrasts with Homa (§2.2, §5.2):
//  * first RTTbytes of every message sent blindly at ONE static high
//    priority; all later packets at ONE static low priority;
//  * receivers schedule one token per packet time, and grant to only ONE
//    message at a time (no overcommitment), the SRPT-best;
//  * a free-token timeout demotes unresponsive senders so the receiver
//    moves on — the mechanism whose limits cap pHost at 58-73% load.
#pragma once

#include <deque>
#include <map>
#include <optional>
#include <set>
#include <utility>

#include "sched/srpt_index.h"
#include "sim/event_loop.h"
#include "sim/topology.h"
#include "transport/transport.h"

namespace homa {

class PHostTransport final : public Transport {
public:
    /// The receiver gives up on an unresponsive sender after this long
    /// without a data packet for the granted message.
    static constexpr Duration kFreeTokenTimeout = microseconds(15);
    /// Tokens expire if unused this long after arriving at the sender (the
    /// pHost paper uses 1.5 packet transmission times). Expired tokens are
    /// the bandwidth pHost wastes: the receiver scheduled a packet slot
    /// that nobody used.
    static constexpr Duration kTokenTtl = microseconds(2);
    /// The two static priorities, the same for every message.
    static constexpr uint8_t kUnschedPriority = kHighestPriority;
    static constexpr uint8_t kSchedPriority = 0;

    /// `rttBytes` is the blind first-RTT prefix; `packetTime` the downlink
    /// serialization time of a full packet.
    PHostTransport(HostServices& host, int64_t rttBytes, Duration packetTime);

    void sendMessage(const Message& m) override;
    void handlePacket(const Packet& p) override;
    std::optional<Packet> pullPacket() override;
    bool hasWithheldWork() const override;

    static TransportFactory factory(const NetworkConfig& net);

private:
    struct OutMessage {
        Message msg;
        int64_t unschedLimit = 0;
        int64_t nextOffset = 0;
        // Unused scheduled-packet permissions: arrival times, so they can
        // expire (pHost's wasted-bandwidth mechanism).
        std::deque<Time> tokens;
        int64_t remaining() const {
            return static_cast<int64_t>(msg.length) - nextOffset;
        }
        bool sendable() const {
            return nextOffset < unschedLimit ||
                   (!tokens.empty() && nextOffset < msg.length);
        }
    };

    struct InMessage : Inbound {
        int64_t tokensSent = 0;     // scheduled bytes requested so far
        Time lastData = 0;
        Time indexedLastData = -1;  // key under which staleness_ holds us
        bool demoted = false;       // free-token timeout hit; skip until data
        using Inbound::Inbound;
        bool needsTokens() const {
            return tokensSent < static_cast<int64_t>(reasm.messageLength());
        }
    };

    void pacerTick();
    /// Re-sync `im`'s membership in the grantee indexes after any change
    /// to its token accounting, reassembly progress, or demotion state.
    void syncGrantee(InMessage& im);
    void dropGrantee(InMessage& im);

    HostServices& host_;
    int64_t rttBytes_;
    Duration packetTime_;
    std::map<MsgId, OutMessage> out_;
    std::map<MsgId, InMessage> in_;
    // Sender-side SRPT over (possibly stale-)sendable messages; token
    // expiry is applied lazily when a message surfaces as best.
    SrptIndex<MsgId> sendable_;
    // Incremental grantee choice (was a full scan per pacer tick):
    // SRPT order over token-needing messages, split by demotion state, and
    // a lastData-ordered set of messages with outstanding tokens so the
    // free-token-timeout sweep touches only actually-stale entries.
    SrptIndex<MsgId> eligible_;   // needsTokens && !demoted
    SrptIndex<MsgId> demotedIdx_; // needsTokens && demoted (last resort)
    std::set<std::pair<Time, MsgId>> staleness_;  // tokens outstanding
    Timer pacer_;
    bool pacerRunning_ = false;
};

}  // namespace homa
