#include "baselines/streaming.h"

#include <algorithm>
#include <cassert>

namespace homa {

StreamingTransport::StreamingTransport(HostServices& host, StreamingConfig cfg)
    : host_(host), cfg_(cfg) {}

void StreamingTransport::sendMessage(const Message& m) {
    Connection* conn = nullptr;
    if (!cfg_.multiConnection) {
        for (auto& c : connections_) {
            if (c.peer == m.dst) {
                conn = &c;
                break;
            }
        }
    }
    if (conn == nullptr) {
        connections_.push_back(Connection{nextConn_++, m.dst, {}, 0, 0});
        conn = &connections_.back();
    }
    conn->sendQueue.push_back(m);
    host_.kickNic();
}

StreamingTransport::Connection* StreamingTransport::pickConnection() {
    // Multi-connection mode creates a connection per message; sweep retired
    // ones so state stays bounded over long runs.
    if (cfg_.multiConnection && connections_.size() > 64) {
        std::erase_if(connections_, [this](const Connection& c) {
            return c.sendQueue.empty() &&
                   (cfg_.windowBytes == 0 || c.inFlight == 0);
        });
        rrCursor_ = 0;
    }
    // Round-robin across connections with sendable bytes (fair sharing, the
    // scheduling TCP-like stacks effectively provide).
    const size_t n = connections_.size();
    for (size_t step = 0; step < n; step++) {
        Connection& c = connections_[(rrCursor_ + step) % n];
        if (c.sendQueue.empty()) continue;
        if (cfg_.windowBytes > 0 && c.inFlight >= cfg_.windowBytes) continue;
        rrCursor_ = (rrCursor_ + step + 1) % n;
        return &c;
    }
    return nullptr;
}

std::optional<Packet> StreamingTransport::pullPacket() {
    Connection* c = pickConnection();
    if (c == nullptr) return std::nullopt;

    const Message& head = c->sendQueue.front();
    int64_t budget = static_cast<int64_t>(head.length) - c->headSent;
    if (cfg_.windowBytes > 0) {
        budget = std::min(budget, cfg_.windowBytes - c->inFlight);
    }
    const uint32_t chunk =
        static_cast<uint32_t>(std::min<int64_t>(kMaxPayload, budget));
    assert(chunk > 0);

    // Streams do not use network priorities: data stays at priority 0.
    Packet p = dataPacket(head, static_cast<uint32_t>(c->headSent), chunk);
    p.stream = static_cast<uint32_t>(c->connId);
    c->headSent += chunk;
    c->inFlight += chunk;
    if (c->headSent >= head.length) {
        c->sendQueue.pop_front();
        c->headSent = 0;
    }
    return p;
}

void StreamingTransport::handlePacket(const Packet& p) {
    if (p.type == PacketType::Ack) {
        for (auto& c : connections_) {
            if (c.connId == p.stream) {
                c.inFlight = std::max<int64_t>(0, c.inFlight - p.length);
                host_.kickNic();
                return;
            }
        }
        return;
    }
    if (p.type != PacketType::Data) return;

    if (cfg_.windowBytes > 0) {
        Packet ack;
        ack.type = PacketType::Ack;
        ack.dst = p.src;
        ack.msg = p.msg;
        ack.stream = p.stream;
        ack.length = p.length;
        ack.priority = 0;  // ACKs share the data path's (only) level
        host_.pushPacket(ack);
    }

    const auto stream = inbound_.try_emplace({p.src, p.stream}).first;
    std::deque<Inbound>& messages = stream->second;
    auto im = std::find_if(
        messages.begin(), messages.end(),
        [&p](const Inbound& m) { return m.meta.id == p.msg; });
    if (im == messages.end()) im = messages.emplace(messages.end(), p);
    im->add(p);
    tryDeliver(stream);
}

void StreamingTransport::tryDeliver(InboundStreams::iterator stream) {
    // Byte streams deliver strictly in order: only the head message can
    // complete (the stream HOL-blocking the paper measures).
    std::deque<Inbound>& messages = stream->second;
    while (!messages.empty() && messages.front().reasm.complete()) {
        const Message meta = messages.front().meta;
        const DeliveryInfo info =
            messages.front().delivered(host_.loop().now());
        messages.pop_front();
        notifyDelivered(meta, info);
    }
    // Drop empty stream state (essential in multi-connection mode where
    // every message brings a fresh stream id).
    if (messages.empty()) inbound_.erase(stream);
}

TransportFactory StreamingTransport::factory(StreamingConfig cfg) {
    return [cfg](HostServices& host) {
        return std::make_unique<StreamingTransport>(host, cfg);
    };
}

}  // namespace homa
