#include "core/homa_sender.h"

#include <cassert>

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
    const auto it = out_.find(p.msg);
    OutMessage* om = it != out_.end() ? &it->second : nullptr;
    OutMessage revived;
    if (om == nullptr) {
        // Fully sent message: answer from its linger record. Only a
        // retransmission brings it back to out_ (below), so after a BUSY
        // alone it keeps lingering until its deadline.
        const Lingering* rec = linger_.find(p.msg);
        if (rec == nullptr) return;
        revived = revive(*rec);
        om = &revived;
    }

    // A RESEND also acts as a grant for any not-yet-sent bytes it covers
    // (it proves the receiver wants them, e.g. after a lost GRANT).
    const int64_t end = static_cast<int64_t>(p.offset) + p.length;
    om->grantedTo =
        std::max(om->grantedTo, std::min<int64_t>(end, om->msg.length));

    // Always answer BUSY first (Figure 3): it travels at the highest
    // priority, so even when the actual data is starved at a low priority
    // level behind other inbound traffic, the receiver learns the sender
    // is alive and does not escalate to an abort.
    Packet busy;
    busy.type = PacketType::Busy;
    busy.dst = om->msg.dst;
    busy.msg = om->msg.id;
    busy.priority = ctx_.controlPriority();
    ctx_.host.pushPacket(busy);

    // If this message is still actively transmitting — it has sendable
    // bytes, or data left here very recently — the "missing" bytes are
    // almost certainly in flight or queued behind other messages, not
    // lost; the BUSY alone is the right answer (no duplicate spraying).
    const Time now = ctx_.host.loop().now();
    const bool activelySending =
        om->sendable() || (now - om->lastSend) < ctx_.cfg.resendTimeout / 2;
    if (!activelySending) {
        // Retransmit only what was already sent; fresh bytes flow normally.
        const int64_t resendEnd = std::min<int64_t>(end, om->nextOffset);
        if (static_cast<int64_t>(p.offset) < resendEnd) {
            om->resends.emplace_back(
                p.offset, static_cast<uint32_t>(resendEnd - p.offset));
        }
    }
    if (om == &revived && !revived.resends.empty()) {
        // The retransmission flows through the normal SRPT path.
        linger_.erase(p.msg);
        om = &out_.emplace(p.msg, std::move(revived)).first->second;
    }
    syncSendable(*om);
    ctx_.host.kickNic();
}

HomaSender::OutMessage HomaSender::revive(const Lingering& rec) const {
    OutMessage om;
    om.msg.id = rec.id;
    om.msg.src = ctx_.host.id();
    om.msg.dst = rec.dst;
    om.msg.length = rec.length;
    om.msg.created = rec.created;
    om.msg.flags = rec.flags;
    om.unschedLimit = ctx_.unschedLimitFor(rec.length, rec.flags);
    om.nextOffset = rec.length;
    om.grantedTo = rec.length;
    om.schedPriority = rec.schedPriority;
    om.lastSend = rec.lastSend;
    return om;
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
    const auto it = out_.find(*best);
    OutMessage* om = &it->second;

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
        const Message& m = om->msg;
        Lingering rec;
        rec.id = m.id;
        rec.created = m.created;
        rec.lastSend = om->lastSend;
        rec.dst = m.dst;
        rec.length = m.length;
        rec.schedPriority = om->schedPriority;
        rec.flags = m.flags;
        rec.live = true;
        linger_.push(rec);
        sendable_.erase(m.id);
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
        linger_.expire(ctx_.host.loop().now(), ctx_.cfg.senderLinger);
        if (!linger_.empty()) scheduleReap();
    });
}

const HomaSender::Lingering* HomaSender::LingerTable::find(MsgId id) const {
    const size_t pos = index_.find(id, idAt());
    return pos == IdIndex<uint32_t>::kNotFound ? nullptr : &at(pos);
}

void HomaSender::LingerTable::push(const Lingering& rec) {
    if (headOff_ + size_ == chunks_.size() * chunkCap_) makeRoom();
    const size_t pos = (headPos_ + size_) & kPosMask;
    size_++;
    at(pos) = rec;
    if (index_.needsGrowth(++live_)) {
        index_.grow();
        for (size_t i = 0; i < size_; i++) {
            const size_t p = (headPos_ + i) & kPosMask;
            if (at(p).live) index_.link(p, idAt());
        }
    } else {
        index_.link(pos, idAt());
    }
}

void HomaSender::LingerTable::makeRoom() {
    if (chunkCap_ == kChunk) {
        chunks_.push_back(std::make_unique<Lingering[]>(kChunk));
        return;
    }
    // The one small chunk (if any) is full up to its end: slide the
    // records to its front, into a chunk twice its size if they fill more
    // than half. Positions count from the oldest record, so none changes.
    if (chunks_.empty()) {
        chunkCap_ = 2;
        chunks_.push_back(std::make_unique<Lingering[]>(chunkCap_));
    } else {
        Lingering* from = chunks_[0].get();
        Lingering* to = from;
        if (2 * size_ > chunkCap_) {
            chunkCap_ *= 2;
            chunks_.push_back(std::make_unique<Lingering[]>(chunkCap_));
            to = chunks_.back().get();
        }
        std::copy(from + headOff_, from + headOff_ + size_, to);
        if (to != from) chunks_.erase(chunks_.begin());
    }
    headOff_ = 0;
}

void HomaSender::LingerTable::erase(MsgId id) {
    const size_t pos = index_.find(id, idAt());
    assert(pos != IdIndex<uint32_t>::kNotFound);
    index_.unlink(pos, idAt());
    at(pos).live = false;
    live_--;
}

void HomaSender::LingerTable::expire(Time now, Duration linger) {
    while (size_ > 0) {
        const Lingering& rec = chunks_[0][headOff_];
        if (rec.live) {
            if (rec.lastSend + linger > now) break;
            index_.unlink(headPos_, idAt());
            live_--;
        }
        headPos_ = (headPos_ + 1) & kPosMask;
        size_--;
        if (++headOff_ == chunkCap_ && size_ > 0) {
            // The front chunk is spent: reuse it after the last one.
            std::rotate(chunks_.begin(), chunks_.begin() + 1, chunks_.end());
            headOff_ = 0;
        }
    }
    if (size_ == 0) headOff_ = 0;
}

}  // namespace homa
