#include "core/homa_sender.h"

namespace homa {

void HomaSender::sendMessage(const Message& m) {
    OutMessage om;
    om.msg = m;
    om.unschedLimit = ctx_.unschedLimitFor(m.length, m.flags);
    om.grantedTo = om.unschedLimit;
    // Before any grant arrives, scheduled bytes (if the receiver grants
    // past the unscheduled region) go at the lowest level; the receiver's
    // first GRANT overrides this.
    om.schedPriority = 0;
    auto it = out_.emplace(m.id, std::move(om)).first;
    syncSendable(it->second);
    ctx_.host.kickNic();
}

void HomaSender::syncSendable(const OutMessage& om) {
    if (om.sendable()) {
        sendable_.upsert(om.msg.id, om.remaining());
    } else {
        sendable_.erase(om.msg.id);
    }
}

void HomaSender::handleGrant(const Packet& p) {
    auto it = out_.find(p.msg);
    if (it == out_.end()) return;  // stale grant for a finished message
    OutMessage& om = it->second;
    om.grantedTo = std::max<int64_t>(om.grantedTo, p.grantOffset);
    om.schedPriority = p.grantPriority;
    syncSendable(om);
    ctx_.host.kickNic();
}

void HomaSender::handleResend(const Packet& p) {
    auto it = out_.find(p.msg);
    if (it == out_.end()) {
        // Fully-sent message: revive it from the linger table so the
        // retransmission flows through the normal SRPT path.
        auto lit = lingering_.find(p.msg);
        if (lit == lingering_.end()) return;
        it = out_.emplace(p.msg, std::move(lit->second)).first;
        lingering_.erase(lit);
    }
    OutMessage& om = it->second;

    // A RESEND also acts as a grant for any not-yet-sent bytes it covers
    // (it proves the receiver wants them, e.g. after a lost GRANT).
    const int64_t end = static_cast<int64_t>(p.offset) + p.length;
    om.grantedTo = std::max(om.grantedTo, std::min<int64_t>(end, om.msg.length));

    // Always answer BUSY first (Figure 3): it travels at the highest
    // priority, so even when the actual data is starved at a low priority
    // level behind other inbound traffic, the receiver learns the sender
    // is alive and does not escalate to an abort.
    Packet busy;
    busy.type = PacketType::Busy;
    busy.dst = om.msg.dst;
    busy.msg = om.msg.id;
    busy.priority = ctx_.controlPriority();
    ctx_.host.pushPacket(busy);

    // If this message is still actively transmitting — it has sendable
    // bytes, or data left here very recently — the "missing" bytes are
    // almost certainly in flight or queued behind other messages, not
    // lost; the BUSY alone is the right answer (no duplicate spraying).
    const Time now = ctx_.host.loop().now();
    const bool activelySending =
        om.sendable() || (now - om.lastSend) < ctx_.cfg.resendTimeout / 2;
    if (!activelySending) {
        // Retransmit only what was already sent; fresh bytes flow normally.
        const int64_t resendEnd = std::min<int64_t>(end, om.nextOffset);
        if (static_cast<int64_t>(p.offset) < resendEnd) {
            om.resends.emplace_back(p.offset,
                                    static_cast<uint32_t>(resendEnd - p.offset));
        }
    }
    syncSendable(om);
    ctx_.host.kickNic();
}

Packet HomaSender::makeDataPacket(OutMessage& om, uint32_t offset, uint32_t len,
                                  bool retransmit) const {
    Packet p = dataPacket(om.msg, offset, len);
    if (retransmit) p.setFlag(kFlagRetransmit);

    const bool unscheduled = offset < om.unschedLimit;
    const int logical = unscheduled
                            ? ctx_.prio.unschedPriorityFor(om.msg.length)
                            : om.schedPriority;
    p.priority = ctx_.wirePriority(logical);
    p.remaining = static_cast<uint32_t>(
        std::max<int64_t>(0, om.msg.length - offset - len));
    return p;
}

std::optional<Packet> HomaSender::pullPacket() {
    const auto best = sendable_.best();
    if (!best) return std::nullopt;
    OutMessage* om = &out_.at(*best);

    Packet p;
    if (!om->resends.empty()) {
        auto [off, len] = om->resends.front();
        const uint32_t chunk = std::min<uint32_t>(len, kMaxPayload);
        p = makeDataPacket(*om, off, chunk, /*retransmit=*/true);
        if (chunk == len) {
            om->resends.erase(om->resends.begin());
        } else {
            om->resends.front() = {off + chunk, len - chunk};
        }
    } else {
        const int64_t limit = std::min<int64_t>(om->grantedTo, om->msg.length);
        const uint32_t chunk =
            static_cast<uint32_t>(std::min<int64_t>(kMaxPayload,
                                                    limit - om->nextOffset));
        p = makeDataPacket(*om, static_cast<uint32_t>(om->nextOffset), chunk,
                           /*retransmit=*/false);
        om->nextOffset += chunk;
    }

    om->lastSend = ctx_.host.loop().now();
    if (om->fullySent()) {
        // Keep state briefly so RESENDs can still be answered (§3.8), then
        // reap. Lingering state is bounded by the linger window.
        om->lingerUntil = ctx_.host.loop().now() + ctx_.cfg.senderLinger;
        const MsgId id = om->msg.id;
        sendable_.erase(id);
        auto it = out_.find(id);
        lingering_.emplace(id, std::move(it->second));
        out_.erase(it);
        scheduleReap();
    } else {
        syncSendable(*om);
    }
    return p;
}

void HomaSender::scheduleReap() {
    if (reapScheduled_) return;
    reapScheduled_ = true;
    ctx_.host.loop().after(ctx_.cfg.senderLinger, [this] {
        reapScheduled_ = false;
        const Time now = ctx_.host.loop().now();
        for (auto it = lingering_.begin(); it != lingering_.end();) {
            if (it->second.lingerUntil <= now) {
                it = lingering_.erase(it);
            } else {
                ++it;
            }
        }
        if (!lingering_.empty()) scheduleReap();
    });
}

}  // namespace homa
