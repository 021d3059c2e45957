// Connection-oriented byte-stream transport (TCP / InfRC stand-in, §5.1).
//
// Messages multiplexed onto a per-destination stream serialize in FIFO
// order: a short message queued behind a long one waits for all of it —
// the head-of-line blocking that costs streaming transports 100x on tail
// latency (Figure 8's InfRC and TCP curves). Multi-connection mode gives
// every in-flight message its own connection (the paper's "-MC" variants),
// removing sender HOL but still lacking priorities and SRPT.
//
// Delivery respects stream order within a connection (a real byte stream
// cannot deliver message N+1 before N). Data travels at one priority, and
// in-flight bytes are unbounded (InfRC reliable connections), so no ACKs
// flow.
#pragma once

#include <deque>
#include <map>
#include <optional>
#include <vector>

#include "transport/transport.h"

namespace homa {

class StreamingTransport final : public Transport {
public:
    /// `multiConnection`: one connection per message instead of per peer.
    StreamingTransport(HostServices& host, bool multiConnection);

    void sendMessage(const Message& m) override;
    void handlePacket(const Packet& p) override;
    std::optional<Packet> pullPacket() override;

    static TransportFactory factory(bool multiConnection);

private:
    // Sender side: a connection is an ordered queue of messages; bytes of
    // message k+1 are only sent after all bytes of message k.
    struct Connection {
        uint64_t connId;
        HostId peer;
        std::deque<Message> sendQueue;
        int64_t headSent = 0;    // bytes of the head message already sent
    };

    // Receiver side: per-connection in-order delivery. Each stream, keyed
    // by (source host, connection id), holds its messages in send order.
    using InboundStreams =
        std::map<std::pair<HostId, uint32_t>, std::deque<Inbound>>;

    Connection* pickConnection();
    void tryDeliver(InboundStreams::iterator stream);

    HostServices& host_;
    bool multiConnection_;
    std::vector<Connection> connections_;
    size_t rrCursor_ = 0;
    uint32_t nextConn_ = 1;
    InboundStreams inbound_;
};

}  // namespace homa
