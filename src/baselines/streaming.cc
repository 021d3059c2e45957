#include "baselines/streaming.h"

#include <algorithm>
#include <cassert>

namespace homa {

StreamingTransport::StreamingTransport(HostServices& host,
                                       bool multiConnection)
    : host_(host), multiConnection_(multiConnection) {}

void StreamingTransport::sendMessage(const Message& m) {
    Connection* conn = nullptr;
    if (!multiConnection_) {
        for (auto& c : connections_) {
            if (c.peer == m.dst) {
                conn = &c;
                break;
            }
        }
    }
    if (conn == nullptr) {
        connections_.push_back(Connection{nextConn_++, m.dst, {}, 0});
        conn = &connections_.back();
    }
    conn->sendQueue.push_back(m);
    host_.kickNic();
}

StreamingTransport::Connection* StreamingTransport::pickConnection() {
    // Multi-connection mode creates a connection per message; sweep retired
    // ones so state stays bounded over long runs.
    if (multiConnection_ && connections_.size() > 64) {
        std::erase_if(connections_,
                      [](const Connection& c) { return c.sendQueue.empty(); });
        rrCursor_ = 0;
    }
    // Round-robin across connections with sendable bytes (fair sharing, the
    // scheduling TCP-like stacks effectively provide).
    const size_t n = connections_.size();
    for (size_t step = 0; step < n; step++) {
        Connection& c = connections_[(rrCursor_ + step) % n];
        if (c.sendQueue.empty()) continue;
        rrCursor_ = (rrCursor_ + step + 1) % n;
        return &c;
    }
    return nullptr;
}

std::optional<Packet> StreamingTransport::pullPacket() {
    Connection* c = pickConnection();
    if (c == nullptr) return std::nullopt;

    const Message& head = c->sendQueue.front();
    const uint32_t chunk = static_cast<uint32_t>(std::min<int64_t>(
        kMaxPayload, static_cast<int64_t>(head.length) - c->headSent));
    assert(chunk > 0);

    // Streams do not use network priorities: data stays at priority 0.
    Packet p = dataPacket(head, static_cast<uint32_t>(c->headSent), chunk);
    p.stream = static_cast<uint32_t>(c->connId);
    c->headSent += chunk;
    if (c->headSent >= head.length) {
        c->sendQueue.pop_front();
        c->headSent = 0;
    }
    return p;
}

void StreamingTransport::handlePacket(const Packet& p) {
    if (p.type != PacketType::Data) return;

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

TransportFactory StreamingTransport::factory(bool multiConnection) {
    return [multiConnection](HostServices& host) {
        return std::make_unique<StreamingTransport>(host, multiConnection);
    };
}

}  // namespace homa
