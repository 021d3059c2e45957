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
#include <memory>
#include <optional>
#include <vector>

#include "core/homa_context.h"
#include "core/id_index.h"
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
        return out_.count(id) != 0 || linger_.find(id) != nullptr;
    }

private:
    struct OutMessage {
        Message msg;
        int64_t unschedLimit = 0;   // blind-transmit boundary
        int64_t nextOffset = 0;     // next fresh byte
        int64_t grantedTo = 0;      // may transmit fresh bytes below this
        int schedPriority = 0;      // logical level from the latest GRANT
        // Requested retransmissions, oldest first. Rare and short, so a
        // vector: unlike a deque it allocates nothing while empty.
        std::vector<std::pair<uint32_t, uint32_t>> resends;
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

    /// What a fully sent message keeps to answer a RESEND (§3.7-3.8):
    /// enough to rebuild its OutMessage. Every byte has left, so the
    /// offsets and grant are implied by `length`, and the unscheduled
    /// limit by `length` and `flags`.
    struct Lingering {
        MsgId id = 0;
        Time created = 0;
        Time lastSend = 0;   // the deadline is lastSend + senderLinger
        HostId dst = kNoHost;
        uint32_t length = 0;
        int32_t schedPriority = 0;
        uint16_t flags = 0;
        bool live = false;   // false once revived (or never filled)
    };
    static_assert(sizeof(Lingering) <= 40);

    /// Fully sent messages in the order they finished, so in deadline
    /// order, with an IdIndex over the live records. A record's position
    /// is its append count (mod 2^31), which no move changes. Records sit
    /// in chunks of kChunk that are never copied; expired records leave
    /// from the front, and a spent front chunk is reused at the back. A
    /// revived record stays in place, dead, until the front passes it.
    /// Nothing is allocated before the first push(), and until a table
    /// needs a second chunk it keeps one small chunk that doubles up to
    /// kChunk, so a host with few messages lingering pays for few.
    class LingerTable {
    public:
        bool empty() const { return live_ == 0; }
        /// `id`'s record, or null if it has none.
        const Lingering* find(MsgId id) const;
        /// Append `rec`, whose deadline is no earlier than any other's.
        void push(const Lingering& rec);
        /// Forget `id`'s record, which it must have.
        void erase(MsgId id);
        /// Forget every record with lastSend + linger <= now.
        void expire(Time now, Duration linger);

    private:
        static constexpr size_t kChunk = 64;
        static constexpr size_t kPosMask = (size_t{1} << 31) - 1;

        Lingering& at(size_t pos) const {
            const size_t k = headOff_ + ((pos - headPos_) & kPosMask);
            return chunks_[k / kChunk][k % kChunk];
        }
        auto idAt() const {
            return [this](size_t pos) { return at(pos).id; };
        }
        void makeRoom();

        std::vector<std::unique_ptr<Lingering[]>> chunks_;
        size_t chunkCap_ = 0;  // kChunk, or the one small chunk's size
        size_t headOff_ = 0;   // the oldest record's slot in chunks_[0]
        size_t headPos_ = 0;   // and its position
        size_t size_ = 0;      // records from the oldest, dead ones too
        size_t live_ = 0;
        IdIndex<uint32_t> index_;
    };

    OutMessage revive(const Lingering& rec) const;
    Packet makeDataPacket(OutMessage& om, uint32_t offset, uint32_t len,
                          bool retransmit) const;
    /// Re-sync `om`'s membership/key in the sendable index after any state
    /// change that can flip sendable() or change remaining().
    void syncSendable(const OutMessage& om);
    void scheduleReap();

    HomaContext& ctx_;
    // In-progress messages only; fully sent messages move to linger_
    // (kept to answer RESENDs) and come back only if a retransmission is
    // requested.
    std::map<MsgId, OutMessage> out_;
    LingerTable linger_;
    // SRPT order over the sendable subset of out_, keyed by remaining().
    SrptIndex<MsgId> sendable_;
    bool reapScheduled_ = false;
};

}  // namespace homa
