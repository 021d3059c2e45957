// Byte streams over Homa vs. the TCP way.
//
// §3.1 of the paper: traditional socket applications can run over Homa via
// a thin stream layer. The killer difference from TCP: streams between the
// same pair of hosts are independent — a bulk transfer does not delay a
// small request. This example times exactly that scenario on Homa streams
// and on the TCP-like streaming transport.
#include <cstdio>

#include "baselines/streaming.h"
#include "core/stream_adapter.h"
#include "workload/workloads.h"

using namespace homa;

namespace {

// Scenario: host 0 sends a 5 MB bulk stream to host 1, and 10 us later a
// 300-byte "request" on a second stream to the same host. Report when
// each completes.
struct Result {
    double bulkMs;
    double requestUs;
};

Result overHoma() {
    NetworkConfig cfg = NetworkConfig::singleRack16();
    Network net(cfg,
                HomaTransport::factory({}, cfg, &workload(WorkloadId::W4)));
    StreamMux tx(net, 0), rx(net, 1);
    const uint32_t bulk = tx.openStream(1);
    const uint32_t request = tx.openStream(1);

    Time bulkDone = 0, requestDone = 0;
    rx.setReadCallback([&](HostId, uint32_t stream, const std::vector<uint8_t>&) {
        if (stream == bulk && rx.bytesRead(0, bulk) == 5'000'000) {
            bulkDone = net.loop().now();
        }
        if (stream == request && rx.bytesRead(0, request) == 300) {
            requestDone = net.loop().now();
        }
    });
    tx.write(bulk, 5'000'000);
    net.loop().at(microseconds(10), [&] { tx.write(request, 300); });
    net.loop().run();
    return {toSeconds(bulkDone) * 1e3,
            toMicros(requestDone - microseconds(10))};
}

Result overTcpLikeStream() {
    NetworkConfig cfg = NetworkConfig::singleRack16();
    Network net(cfg, StreamingTransport::factory(/*multiConnection=*/false));
    Time bulkDone = 0, requestDone = 0;
    Time requestStart = microseconds(10);
    net.setDeliveryCallback([&](const Message& m, const DeliveryInfo& info) {
        if (m.length == 5'000'000) bulkDone = info.completed;
        if (m.length == 300) requestDone = info.completed;
    });
    Message bulk;
    bulk.id = net.nextMsgId();
    bulk.src = 0;
    bulk.dst = 1;
    bulk.length = 5'000'000;
    net.sendMessage(bulk);
    net.loop().at(requestStart, [&] {
        Message req;
        req.id = net.nextMsgId();
        req.src = 0;
        req.dst = 1;
        req.length = 300;
        net.sendMessage(req);
    });
    net.loop().run();
    return {toSeconds(bulkDone) * 1e3, toMicros(requestDone - requestStart)};
}

}  // namespace

int main() {
    std::printf("5 MB bulk stream + 300 B request to the same host:\n\n");
    Result homa = overHoma();
    Result tcp = overTcpLikeStream();
    std::printf("%-22s %-14s %s\n", "", "bulk done", "request latency");
    std::printf("%-22s %.2f ms        %.1f us\n", "Homa streams", homa.bulkMs,
                homa.requestUs);
    std::printf("%-22s %.2f ms        %.1f us   <- head-of-line blocked\n",
                "TCP-like (one conn)", tcp.bulkMs, tcp.requestUs);
    std::printf(
        "\nThe bulk transfer costs the same either way; the request pays\n"
        "~the full bulk serialization time on a shared TCP connection and\n"
        "almost nothing on an independent Homa stream (§3.1, Figure 8).\n");
    return 0;
}
