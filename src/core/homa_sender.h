// Sender side of Homa (§3.2).
//
// Transmits the first `unscheduled` bytes of each message blindly, then
// only granted bytes. Among messages with transmittable bytes the sender
// picks the one with the fewest remaining bytes (SRPT); the NIC pulls
// packets one at a time so this ordering is re-evaluated per packet, which
// models the paper's 2-full-packets NIC queue cap (§4). The ordering lives
// in an incremental SrptIndex (src/sched/) kept in sync with sendability,
// so each pull costs O(log n) instead of a scan of every message.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include "core/homa_context.h"
#include "sched/srpt_index.h"
#include "transport/message.h"

namespace homa {

class HomaSender {
public:
    explicit HomaSender(HomaContext& ctx) : ctx_(ctx) {}

    void sendMessage(const Message& m);
    void handleGrant(const Packet& p);

    /// Receiver asked for a retransmission. Replies BUSY when this message
    /// is not what SRPT would send now (§3.7 / Figure 3).
    void handleResend(const Packet& p);

    /// NIC pull: next DATA packet by SRPT, or nullopt.
    std::optional<Packet> pullPacket();

    bool knowsMessage(MsgId id) const {
        return out_.count(id) != 0 || lingering_.count(id) != 0;
    }

private:
    struct OutMessage {
        Message msg;
        int64_t unschedLimit = 0;   // blind-transmit boundary
        int64_t nextOffset = 0;     // next fresh byte
        int64_t grantedTo = 0;      // may transmit fresh bytes below this
        int schedPriority = 0;      // logical level from the latest GRANT
        // Requested retransmissions, oldest first. Rare and short, so a
        // vector: unlike a deque it allocates nothing while empty, and
        // every message carries one into lingering_.
        std::vector<std::pair<uint32_t, uint32_t>> resends;
        Time lingerUntil = 0;
        Time lastSend = 0;          // last time a DATA packet left

        int64_t remaining() const {
            return static_cast<int64_t>(msg.length) - nextOffset;
        }
        bool sendable() const {
            return !resends.empty() ||
                   nextOffset < std::min<int64_t>(grantedTo, msg.length);
        }
        bool fullySent() const {
            return resends.empty() && nextOffset >= msg.length;
        }
    };

    Packet makeDataPacket(OutMessage& om, uint32_t offset, uint32_t len,
                          bool retransmit) const;
    /// Re-sync `om`'s membership/key in the sendable index after any state
    /// change that can flip sendable() or change remaining().
    void syncSendable(const OutMessage& om);
    void scheduleReap();

    HomaContext& ctx_;
    // In-progress messages only; fully sent messages move to lingering_
    // (kept to answer RESENDs) and come back only if a retransmission is
    // requested.
    std::map<MsgId, OutMessage> out_;
    std::map<MsgId, OutMessage> lingering_;
    // SRPT order over the sendable subset of out_, keyed by remaining().
    SrptIndex<MsgId> sendable_;
    bool reapScheduled_ = false;
};

}  // namespace homa
