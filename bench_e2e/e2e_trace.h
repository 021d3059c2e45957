// Layer tracer for bench_e2e: spans at the simulator's public seams.
//
// The tracer works from outside the program. It times calls into each
// layer through decorators installed at seams the library already has:
//   * TracedQdisc     — NetworkConfig::switchQdisc; times enqueue/dequeue
//                       and copies the inner qdisc's QdiscStats after every
//                       call, so drop counts (switchDrops) stay exact;
//   * TracedTransport — TransportFactory; times sendMessage, handlePacket
//                       and pullPacket, and (through TracedServices, the
//                       HostServices it hands the inner transport) the
//                       NIC pushPacket;
//   * Span            — any other call the bench makes itself (the
//                       delivery callback that records stats, the
//                       FluidEngine::offer interceptor).
//
// Spans nest strictly within one thread: a span's self time is its
// duration minus the time of its child spans (rx -> delivery, rx -> push ->
// pull). Each thread keeps its own stack and per-layer totals; worker
// threads of the parallel engine register on first use, and totals are
// summed after the run has joined them. A span whose message id hashes to
// 0 mod 1024 is also kept in memory (name, start, end, parent, message), so
// every span of a sampled message is kept.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "sim/qdisc.h"
#include "sim/random.h"
#include "transport/transport.h"

namespace homa::e2e {

enum Layer : int {
    kQdiscEnqueue,
    kQdiscDequeue,
    kTransportSend,
    kTransportRx,
    kTransportPull,
    kNicPush,
    kStatsRecord,
    kFluidOffer,
    kLayerCount,
};

inline const char* layerName(int layer) {
    static constexpr const char* kNames[kLayerCount] = {
        "sim.qdisc.enq", "sim.qdisc.deq",  "transport.send",
        "transport.rx",  "transport.pull", "sim.nic.push",
        "stats.record",  "sim.fluid.offer"};
    return kNames[layer];
}

inline int64_t nowNs() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/// Deterministic span sampling: all spans of one message share the verdict.
inline bool sampledMessage(MsgId id) { return mix64(id) % 1024 == 0; }

struct SpanRecord {
    int thread = 0;
    int64_t id = 0;
    int64_t parent = -1;  // -1: no enclosing span, or it was not sampled
    int layer = 0;
    int64_t startNs = 0;
    int64_t endNs = 0;
    MsgId msg = 0;
};

struct LayerTotals {
    uint64_t calls = 0;
    int64_t selfNs = 0;
};

/// Counts taken at the same boundaries as the spans.
struct BoundaryCounts {
    uint64_t rxData = 0;     // DATA packets handed to a transport
    uint64_t rxGrant = 0;    // GRANT packets handed to a transport
    uint64_t pullHits = 0;   // pullPacket calls that returned a packet
    uint64_t qdiscDrops = 0; // enqueues the switch qdisc rejected
    uint64_t fluidAdmitted = 0;
};

class ThreadTrace {
public:
    explicit ThreadTrace(int thread) : thread_(thread) {}

    /// Open a span at time t. `id` >= 0 marks a span that will be kept.
    void open(int64_t t, int64_t id) { stack_.push_back(Open{t, 0, id}); }

    /// Close the innermost span at time t, charging its self time to
    /// `layer`. `sampled` (decided here for spans whose message is known
    /// only at the end, like a dequeue) keeps a span opened without an id.
    void close(int layer, int64_t t, MsgId msg, bool sampled) {
        const Open o = stack_.back();
        stack_.pop_back();
        const int64_t dur = t - o.start;
        totals_[layer].calls++;
        totals_[layer].selfNs += dur - o.childNs;
        if (!stack_.empty()) stack_.back().childNs += dur;
        int64_t id = o.id;
        if (id < 0 && sampled) id = nextId_++;
        if (id >= 0) {
            spans_.push_back(SpanRecord{thread_, id, parentId(), layer, o.start,
                                        t, msg});
        }
    }

    int64_t newId() { return nextId_++; }

    /// Id of the innermost open span, or -1.
    int64_t parentId() const { return stack_.empty() ? -1 : stack_.back().id; }

    void reset() {
        stack_.clear();
        totals_ = {};
        spans_.clear();
        counts = {};
    }

    const std::array<LayerTotals, kLayerCount>& totals() const {
        return totals_;
    }
    const std::vector<SpanRecord>& spans() const { return spans_; }
    bool idle() const { return stack_.empty(); }

    BoundaryCounts counts;

private:
    struct Open {
        int64_t start;
        int64_t childNs;
        int64_t id;
    };
    int thread_;
    std::vector<Open> stack_;
    std::array<LayerTotals, kLayerCount> totals_{};
    std::vector<SpanRecord> spans_;
    int64_t nextId_ = 0;
};

/// Process-wide registry of per-thread traces. Threads register on first
/// use and their traces outlive them, so totals can be read after the
/// parallel engine has joined its workers.
class Tracer {
public:
    static Tracer& instance() {
        static Tracer t;
        return t;
    }

    ThreadTrace& local() {
        thread_local ThreadTrace* mine = nullptr;
        if (mine == nullptr) {
            std::lock_guard<std::mutex> lock(mu_);
            threads_.push_back(std::make_unique<ThreadTrace>(
                static_cast<int>(threads_.size())));
            mine = threads_.back().get();
        }
        return *mine;
    }

    /// Zero every thread's trace; call only while no traced run is active.
    void reset() {
        std::lock_guard<std::mutex> lock(mu_);
        for (auto& t : threads_) t->reset();
    }

    std::array<LayerTotals, kLayerCount> totals() const {
        std::lock_guard<std::mutex> lock(mu_);
        std::array<LayerTotals, kLayerCount> sum{};
        for (const auto& t : threads_) {
            for (int l = 0; l < kLayerCount; l++) {
                sum[l].calls += t->totals()[l].calls;
                sum[l].selfNs += t->totals()[l].selfNs;
            }
        }
        return sum;
    }

    BoundaryCounts counts() const {
        std::lock_guard<std::mutex> lock(mu_);
        BoundaryCounts sum;
        for (const auto& t : threads_) {
            sum.rxData += t->counts.rxData;
            sum.rxGrant += t->counts.rxGrant;
            sum.pullHits += t->counts.pullHits;
            sum.qdiscDrops += t->counts.qdiscDrops;
            sum.fluidAdmitted += t->counts.fluidAdmitted;
        }
        return sum;
    }

    std::vector<SpanRecord> spans() const {
        std::lock_guard<std::mutex> lock(mu_);
        std::vector<SpanRecord> all;
        for (const auto& t : threads_) {
            all.insert(all.end(), t->spans().begin(), t->spans().end());
        }
        return all;
    }

private:
    mutable std::mutex mu_;
    std::vector<std::unique_ptr<ThreadTrace>> threads_;
};

/// RAII span whose message is known when it opens.
class Span {
public:
    Span(Layer layer, MsgId msg)
        : t_(Tracer::instance().local()), layer_(layer), msg_(msg) {
        t_.open(nowNs(), sampledMessage(msg) ? t_.newId() : -1);
    }
    ~Span() { t_.close(layer_, nowNs(), msg_, false); }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

private:
    ThreadTrace& t_;
    Layer layer_;
    MsgId msg_;
};

/// Span whose message is known only when it closes (dequeue, pull).
class LateSpan {
public:
    explicit LateSpan(Layer layer)
        : t_(Tracer::instance().local()), layer_(layer) {
        t_.open(nowNs(), -1);
    }
    ThreadTrace& trace() { return t_; }
    void close(const std::optional<Packet>& p) {
        t_.close(layer_, nowNs(), p ? p->msg : 0, p && sampledMessage(p->msg));
    }

private:
    ThreadTrace& t_;
    Layer layer_;
};

class TracedQdisc final : public Qdisc {
public:
    explicit TracedQdisc(std::unique_ptr<Qdisc> inner)
        : inner_(std::move(inner)) {}

    bool enqueue(Packet& p) override {
        Span s(kQdiscEnqueue, p.msg);
        const bool ok = inner_->enqueue(p);
        stats_ = inner_->stats();
        if (!ok) Tracer::instance().local().counts.qdiscDrops++;
        return ok;
    }

    std::optional<Packet> dequeue() override {
        LateSpan s(kQdiscDequeue);
        std::optional<Packet> p = inner_->dequeue();
        stats_ = inner_->stats();
        s.close(p);
        return p;
    }

    int64_t queuedBytes() const override { return inner_->queuedBytes(); }
    size_t queuedPackets() const override { return inner_->queuedPackets(); }

private:
    std::unique_ptr<Qdisc> inner_;
};

/// Wraps a switch qdisc factory so every queue it makes is traced.
inline std::function<std::unique_ptr<Qdisc>()> tracedQdiscFactory(
    std::function<std::unique_ptr<Qdisc>()> inner) {
    return [inner = std::move(inner)] {
        return std::make_unique<TracedQdisc>(inner());
    };
}

/// The HostServices a traced transport sees: the host's own, with
/// pushPacket timed (it runs the NIC, which may pull the next packet).
class TracedServices final : public HostServices {
public:
    explicit TracedServices(HostServices& host) : host_(host) {}
    EventLoop& loop() override { return host_.loop(); }
    HostId id() const override { return host_.id(); }
    void pushPacket(Packet p) override {
        Span s(kNicPush, p.msg);
        host_.pushPacket(std::move(p));
    }
    void kickNic() override { host_.kickNic(); }
    Rng& rng() override { return host_.rng(); }

private:
    HostServices& host_;
};

class TracedTransport final : public Transport {
public:
    TracedTransport(std::unique_ptr<TracedServices> services,
                    std::unique_ptr<Transport> inner)
        : services_(std::move(services)), inner_(std::move(inner)) {
        // Network::setDeliveryCallback lands on this decorator; the inner
        // transport delivers through it.
        inner_->setDeliveryCallback(
            [this](const Message& m, const DeliveryInfo& info) {
                notifyDelivered(m, info);
            });
    }

    void sendMessage(const Message& m) override {
        Span s(kTransportSend, m.id);
        inner_->sendMessage(m);
    }

    void handlePacket(const Packet& p) override {
        Span s(kTransportRx, p.msg);
        BoundaryCounts& c = Tracer::instance().local().counts;
        if (p.type == PacketType::Data) c.rxData++;
        if (p.type == PacketType::Grant) c.rxGrant++;
        inner_->handlePacket(p);
    }

    std::optional<Packet> pullPacket() override {
        LateSpan s(kTransportPull);
        std::optional<Packet> p = inner_->pullPacket();
        if (p) s.trace().counts.pullHits++;
        s.close(p);
        return p;
    }

    bool hasWithheldWork() const override { return inner_->hasWithheldWork(); }

private:
    // Declared first so it outlives the inner transport holding it.
    std::unique_ptr<TracedServices> services_;
    std::unique_ptr<Transport> inner_;
};

/// Wraps a transport factory so every host's transport is traced.
inline TransportFactory tracedTransportFactory(TransportFactory inner) {
    return [inner = std::move(inner)](HostServices& host)
               -> std::unique_ptr<Transport> {
        auto services = std::make_unique<TracedServices>(host);
        std::unique_ptr<Transport> t = inner(*services);
        return std::make_unique<TracedTransport>(std::move(services),
                                                 std::move(t));
    };
}

}  // namespace homa::e2e
