#include "core/homa_receiver.h"

#include <algorithm>
#include <cassert>

namespace homa {

bool HomaReceiver::CompletedIds::contains(MsgId id) const {
    return index_.find(id, idAt()) != IdIndex<uint16_t>::kNotFound;
}

void HomaReceiver::CompletedIds::note(MsgId id) {
    if (ring_.size() == kCapacity) {  // evict the oldest call's entry
        index_.unlink(head_, idAt());
        ring_[head_] = id;
        index_.link(head_, idAt());
        head_ = (head_ + 1) % kCapacity;
        return;
    }
    ring_.push_back(id);
    const size_t n = ring_.size();
    if (index_.needsGrowth(n)) {
        index_.grow();
        for (size_t pos = 0; pos < n; pos++) index_.link(pos, idAt());
    } else {
        index_.link(n - 1, idAt());
    }
}

HomaReceiver::HomaReceiver(HomaContext& ctx, DeliverFn deliver)
    : ctx_(ctx),
      deliver_(std::move(deliver)),
      sched_(makeGrantScheduler(ctx.cfg.grantPolicy)),
      timeoutScan_(ctx.host.loop(), [this] { checkTimeouts(); }) {}

void HomaReceiver::handleData(const Packet& p) {
    if (completed_.contains(p.msg)) {  // duplicate tail of a done message
        duplicateTails_++;
        return;
    }

    auto [it, first] = in_.try_emplace(p.msg, p);
    if (first) {
        // The sender transmitted its unscheduled region blindly; those
        // bytes count as already granted.
        it->second.grantedTo = ctx_.unschedLimitFor(p.messageLength, p.flags);
        if (!it->second.fullyGranted()) {
            sched_->add(p.msg, it->second.remaining(), p.created);
        }
    }

    InMessage& im = it->second;
    const Time now = ctx_.host.loop().now();
    im.lastActivity = now;
    im.add(p);

    if (im.reasm.complete()) {
        const Message meta = im.meta;
        const DeliveryInfo info = im.delivered(now);
        completed_.note(p.msg);
        sched_->remove(p.msg);
        in_.erase(it);
        applyGrantDecision();  // a finished message may unblock a withheld one
        deliver_(meta, info);
        return;
    }
    if (sched_->contains(p.msg)) sched_->update(p.msg, im.remaining());
    applyGrantDecision();
    if (!timeoutScan_.armed()) timeoutScan_.schedule(ctx_.cfg.resendTimeout / 2);
}

void HomaReceiver::handleBusy(const Packet& p) {
    auto it = in_.find(p.msg);
    if (it == in_.end()) return;
    it->second.lastActivity = ctx_.host.loop().now();
    it->second.resends = 0;  // the sender is alive, just occupied
}

void HomaReceiver::issueGrant(InMessage& im, int64_t window, int logical) {
    const int64_t target = std::min<int64_t>(
        im.reasm.messageLength(), im.reasm.receivedBytes() + window);
    const bool extends = target > im.grantedTo;
    // Re-announce even without new bytes when the scheduled priority
    // changed and granted data is still in flight (§3.4: the receiver
    // sets the priority of each scheduled packet dynamically; a stale
    // low priority would otherwise stick to the rest of the window).
    const bool reprioritize =
        logical != im.lastGrantPriority &&
        im.grantedTo > static_cast<int64_t>(im.reasm.receivedBytes());
    if (!extends && !reprioritize) return;
    Packet g;
    g.type = PacketType::Grant;
    g.dst = im.meta.src;
    g.msg = im.meta.id;
    g.grantOffset = static_cast<uint32_t>(std::max<int64_t>(target, im.grantedTo));
    g.grantPriority = static_cast<uint8_t>(logical);
    g.priority = ctx_.controlPriority();
    ctx_.host.pushPacket(g);
    im.grantedTo = std::max(im.grantedTo, target);
    im.lastGrantPriority = logical;
}

void HomaReceiver::applyGrantDecision() {
    GrantContext gctx;
    gctx.degree = ctx_.cfg.overcommitDegree;
    gctx.schedLevels = ctx_.prio.schedLevels();
    gctx.rttBytes = ctx_.rttBytes;
    gctx.oldestReservation = ctx_.cfg.oldestReservation;
    sched_->decide(gctx, grantBuf_);
    for (const ActiveGrant& g : grantBuf_) {
        auto it = in_.find(g.id);
        if (it == in_.end()) continue;
        issueGrant(it->second, g.window, g.logicalPriority);
        // A fully-granted message needs no more scheduling; it leaves the
        // active set (and frees its slot) until it completes or aborts.
        if (it->second.fullyGranted()) sched_->remove(g.id);
    }
}

void HomaReceiver::checkTimeouts() {
    const Time now = ctx_.host.loop().now();
    bool anyIncomplete = false;
    for (auto it = in_.begin(); it != in_.end();) {
        InMessage& im = it->second;
        // Only messages we are *expecting* data from can time out: granted
        // (or unscheduled) bytes outstanding. A message the receiver is
        // intentionally withholding grants from is silent by design.
        const bool expecting =
            im.grantedTo > static_cast<int64_t>(im.reasm.receivedBytes());
        // Exponential backoff: under load, low-priority data can sit
        // queued for many milliseconds behind higher-priority messages;
        // only sustained *silence* (no data, no BUSY) should abort.
        const Duration patience =
            ctx_.cfg.resendTimeout * (1ll << std::min(im.resends, 5));
        if (!expecting || now - im.lastActivity < patience) {
            anyIncomplete = true;
            ++it;
            continue;
        }
        if (im.resends >= ctx_.cfg.maxResends) {
            aborted_++;
            sched_->remove(it->first);
            it = in_.erase(it);
            continue;
        }
        // First missing range, clipped to what was actually granted — a
        // RESEND must never ask for (and thereby implicitly authorize)
        // bytes the receiver has not scheduled.
        auto gap = im.reasm.firstGap();
        assert(gap.has_value());
        const int64_t gapEnd =
            std::min<int64_t>(gap->first + gap->second, im.grantedTo);
        if (gapEnd <= gap->first) {
            ++it;
            continue;
        }
        Packet r;
        r.type = PacketType::Resend;
        r.dst = im.meta.src;
        r.msg = im.meta.id;
        r.offset = gap->first;
        r.length = static_cast<uint32_t>(gapEnd - gap->first);
        r.priority = ctx_.controlPriority();
        ctx_.host.pushPacket(r);
        im.resends++;
        im.lastActivity = now;
        resendsSent_++;
        anyIncomplete = true;
        ++it;
    }
    if (anyIncomplete) timeoutScan_.schedule(ctx_.cfg.resendTimeout / 2);
}

}  // namespace homa
