// What the network keeps per host, pinned in bytes of live heap.
//
// Fixed per-host cost sets the peak memory of the large topologies the
// fluid path and the parallel engine exist for (10,240 hosts on
// fluid_10k), so an empty container or an unused state block added to a
// host, a NIC, a qdisc or a downlink port is paid thousands of times.
// docs/ARCHITECTURE.md ("What the network keeps per host") has the table.
#include <gtest/gtest.h>

#include <malloc.h>

#include <memory>

#include "driver/experiment.h"
#include "sim/network.h"
#include "workload/workloads.h"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define HOMA_MALLOC_REPLACED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define HOMA_MALLOC_REPLACED 1
#endif
#endif

namespace homa {
namespace {

TEST(NetworkFootprint, HeapPerHostUnderBudget) {
#ifdef HOMA_MALLOC_REPLACED
    GTEST_SKIP() << "the sanitizer replaces malloc; mallinfo2 reads nothing";
#else
    // Bytes glibc's malloc has handed out and not taken back, mmapped
    // blocks included.
    const auto heapInUse = [] {
        const struct mallinfo2 mi = mallinfo2();
        return mi.uordblks + mi.hblkhd;
    };
    NetworkConfig cfg = NetworkConfig::fatTree144();
    cfg.racks = 64;
    cfg.hostsPerRack = 40;
    ProtocolConfig proto;  // Homa
    cfg.switchQdisc = switchQdiscFor(proto);
    const TransportFactory factory =
        makeTransportFactory(proto, cfg, &workload(WorkloadId::W4));

    const size_t before = heapInUse();
    auto net = std::make_unique<Network>(cfg, factory);
    const size_t after = heapInUse();
    ASSERT_EQ(net->hostCount(), 64 * 40);

    const double perHost = static_cast<double>(after - before) /
                           static_cast<double>(net->hostCount());
    // Reads 2,574 B a host (glibc 2.36, x86-64). The budget fails the
    // 3,953 B of a deque per host for the software delay, ring-buffer
    // FIFOs per qdisc level, in-line degrade state and a 112-byte Packet.
    EXPECT_LE(perHost, 2800.0) << "network heap per host grew";
#endif
}

}  // namespace
}  // namespace homa
