// Connectionless RPC on top of a message transport (§3.1, §3.6-§3.8).
//
// An RPC is a request message and a response message sharing an identifier:
// responseId = requestId | kRpcResponseBit. No connection state: a server
// forgets an RPC as soon as the response is handed to its transport (the
// transport's short linger window answers retransmissions). Lost responses
// are recovered by the client RESENDing the response; a server that no
// longer knows the RPC RESENDs the request, which re-executes the
// operation — at-least-once semantics, observable via Stats::reexecutions.
#pragma once

#include <functional>
#include <map>

#include "core/homa_transport.h"
#include "sim/network.h"

namespace homa {

using RpcId = MsgId;
constexpr MsgId kRpcResponseBit = 1ull << 63;

inline bool isResponseId(MsgId id) { return (id & kRpcResponseBit) != 0; }
inline MsgId requestIdOf(MsgId id) { return id & ~kRpcResponseBit; }

class RpcEndpoint {
public:
    /// Called on the client when a response arrives: (rpc, request size,
    /// response size, elapsed since call()).
    using ResponseCallback =
        std::function<void(RpcId, uint32_t, uint32_t, Duration)>;

    /// Server-side handler: request message -> response size in bytes.
    using Handler = std::function<uint32_t(const Message& request)>;

    struct Stats {
        uint64_t issued = 0;
        uint64_t completed = 0;
        uint64_t retries = 0;        // client-side RESENDs for responses
        uint64_t reexecutions = 0;   // server handler ran again for same RPC
        uint64_t aborted = 0;        // client gave up after max retries
        uint64_t cancelled = 0;      // caller cancelled (hedge lost the race)
    };

    /// Installs itself as the delivery callback of host `self`'s transport.
    RpcEndpoint(Network& net, HostId self);

    /// Default handler echoes the request (response size == request size).
    void setHandler(Handler h) { handler_ = std::move(h); }

    /// Throws std::invalid_argument (from Network::sendMessage) for a bad
    /// server or a zero requestSize, recording nothing.
    RpcId call(HostId server, uint32_t requestSize, ResponseCallback cb);

    /// Abandon a pending RPC without waiting for its response: the loser
    /// of a hedged request race. Drops the callback and stops the retry
    /// scan for this id; a response that still arrives is ignored like
    /// any duplicate (the server may well have executed the operation —
    /// at-least-once semantics are unchanged). Returns false when the id
    /// is no longer pending (already answered, aborted, or cancelled).
    bool cancel(RpcId id);

    size_t outstanding() const { return pending_.size(); }
    const Stats& stats() const { return stats_; }

    /// Incast control (§3.6): requests issued while at least `t` RPCs are
    /// outstanding carry kFlagIncastMark (default 25).
    void setIncastThreshold(int t) { incastThreshold_ = t; }

private:
    struct PendingRpc {
        HostId server;
        uint32_t requestSize;
        Time issued;
        ResponseCallback cb;
        int retries = 0;
    };

    void onDelivered(const Message& m, const DeliveryInfo& info);
    void onUnknownResend(const Packet& p);
    void checkTimeouts();
    void respond(const Message& request, uint32_t responseSize);

    Network& net_;
    HostId self_;
    Handler handler_;
    std::map<RpcId, PendingRpc> pending_;
    // Recently answered requests: responseId -> response size, so a lost
    // response can be regenerated without re-execution while fresh.
    std::map<MsgId, uint32_t> answered_;
    Stats stats_;
    int incastThreshold_ = 25;
    Duration responseTimeout_ = milliseconds(4);
    int maxRetries_ = 5;
    Timer scan_;
};

}  // namespace homa
