// Receiver side of Homa: grant scheduling, overcommitment, priorities.
//
// The receiver is the brain of the protocol (§3.3-§3.5), but the brain's
// decision logic lives in src/sched/: a pluggable GrantScheduler tracks the
// incomplete inbound messages incrementally and, after every delta, names
// the active set — which messages to keep RTTbytes granted-but-unreceived
// and at which scheduled priority level (Figure 5). This file owns the
// per-message reassembly/grant state, turns scheduler decisions into GRANT
// packets (skipping no-ops), and runs the timeout/RESEND/abort machinery
// (§3.7).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "core/homa_context.h"
#include "core/id_index.h"
#include "sched/grant_scheduler.h"
#include "sim/event_loop.h"
#include "transport/message.h"

namespace homa {

class HomaReceiver {
public:
    using DeliverFn =
        std::function<void(const Message&, const DeliveryInfo&)>;

    HomaReceiver(HomaContext& ctx, DeliverFn deliver);

    void handleData(const Packet& p);
    void handleBusy(const Packet& p);

    /// True when an incomplete inbound message is being denied grants by
    /// the overcommitment limit (Figure 16's "withheld" condition).
    bool hasWithheldWork() const { return sched_->withheld() > 0; }

    size_t incompleteMessages() const { return in_.size(); }
    uint64_t abortedMessages() const { return aborted_; }
    uint64_t resendsSent() const { return resendsSent_; }
    /// DATA packets dropped because their message had already completed
    /// (retransmitted or delayed copies arriving after the last byte).
    uint64_t duplicateTailsDropped() const { return duplicateTails_; }
    const GrantScheduler& scheduler() const { return *sched_; }

private:
    struct InMessage : Inbound {
        int64_t grantedTo = 0;
        int lastGrantPriority = -1;  // last scheduled level announced
        Time lastActivity = 0;
        int resends = 0;

        using Inbound::Inbound;
        bool fullyGranted() const {
            return grantedTo >= static_cast<int64_t>(reasm.messageLength());
        }
    };

    /// The ids of the last kCapacity note() calls, for dropping
    /// retransmitted tails of messages that already completed (§3.7). A
    /// ring holds the ids in call order (an id noted twice takes two
    /// entries, and eviction counts calls); an IdIndex of ring positions
    /// finds them. Both arrays start empty and grow by doubling, so an
    /// idle host holds no heap and a completion allocates no node.
    class CompletedIds {
    public:
        static constexpr uint32_t kCapacity = 8192;

        bool contains(MsgId id) const;
        void note(MsgId id);

    private:
        auto idAt() const {
            return [this](size_t pos) { return ring_[pos]; };
        }

        std::vector<MsgId> ring_;  // oldest at head_ once full
        uint32_t head_ = 0;
        IdIndex<uint16_t> index_;
        static_assert(kCapacity < UINT16_MAX);
    };

    /// Ask the scheduler for the post-delta active set and issue the
    /// implied GRANTs (no-ops suppressed). O(log n + degree) per call.
    void applyGrantDecision();
    void issueGrant(InMessage& im, int64_t window, int logical);
    void checkTimeouts();

    HomaContext& ctx_;
    DeliverFn deliver_;
    std::map<MsgId, InMessage> in_;
    std::unique_ptr<GrantScheduler> sched_;
    std::vector<ActiveGrant> grantBuf_;  // reused per decision
    uint64_t aborted_ = 0;
    uint64_t resendsSent_ = 0;
    uint64_t duplicateTails_ = 0;

    CompletedIds completed_;  // duplicate suppression after completion

    Timer timeoutScan_;
};

}  // namespace homa
