// Guard tests for pieces the CLI runner and Figure 1 bench rely on:
// protocol and workload name round-trips and byte-weighted CDF sanity.
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

#ifdef HOMA_RUN_EXPERIMENT_BIN
#include <sys/wait.h>
#endif

#include "driver/experiment.h"
#include "workload/workloads.h"

namespace homa {
namespace {

TEST(ProtocolNames, RoundTripAllProtocols) {
    for (Protocol p : {Protocol::Homa, Protocol::Basic, Protocol::PHost,
                       Protocol::Pias, Protocol::PFabric, Protocol::Ndp,
                       Protocol::StreamSC, Protocol::StreamMC}) {
        EXPECT_STRNE(protocolName(p), "?");
    }
}

TEST(ProtocolTable, EveryRowRoundTripsItsNameAndBuilds) {
    // One row per Protocol (src/driver/experiment.cc): its name reads back
    // to it, and its transport factory and switch queue build a network.
    for (int i = 0; i < kProtocolCount; i++) {
        ProtocolConfig proto;
        proto.kind = static_cast<Protocol>(i);
        const std::string name = protocolName(proto.kind);
        SCOPED_TRACE(name);
        Protocol parsed = proto.kind == Protocol::Homa ? Protocol::Basic
                                                       : Protocol::Homa;
        ASSERT_TRUE(protocolFromName(name, parsed));
        EXPECT_EQ(parsed, proto.kind);

        NetworkConfig net = NetworkConfig::singleRack16();
        net.switchQdisc = switchQdiscFor(proto);
        ASSERT_TRUE(net.switchQdisc);
        EXPECT_NE(net.switchQdisc(), nullptr);
        const TransportFactory factory =
            makeTransportFactory(proto, net, &workload(WorkloadId::W3));
        ASSERT_TRUE(factory);
        const Network network(net, factory);
        EXPECT_EQ(network.hostCount(), 16);
    }
    // Names are case-sensitive; nothing outside the table reads.
    Protocol parsed = Protocol::Homa;
    EXPECT_FALSE(protocolFromName("homa", parsed));
    EXPECT_FALSE(protocolFromName("Foo", parsed));
    EXPECT_FALSE(protocolFromName("", parsed));
#ifdef HOMA_RUN_EXPERIMENT_BIN
    for (const char* bad : {"homa", "Foo"}) {
        const std::string cmd = std::string(HOMA_RUN_EXPERIMENT_BIN) +
                                " --protocol " + bad + " > /dev/null 2>&1";
        const int status = std::system(cmd.c_str());
        EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 2) << bad;
    }
#endif
}

TEST(ByteWeightedCdf, MonotoneAndBounded) {
    for (WorkloadId wl : kAllWorkloads) {
        const auto& d = workload(wl);
        double prev = 0;
        for (double s : {10., 100., 1000., 1e4, 1e5, 1e6, 1e7, 1e8}) {
            const double c = d.byteWeightedCdf(s);
            EXPECT_GE(c, prev) << d.name() << " @ " << s;
            EXPECT_GE(c, 0.0);
            EXPECT_LE(c, 1.0);
            prev = c;
        }
        EXPECT_NEAR(d.byteWeightedCdf(d.maxSize()), 1.0, 1e-9) << d.name();
    }
}

TEST(ByteWeightedCdf, PaperShapeFacts) {
    // Figure 1 lower graph, as stated in §2.1: in W1, more than 70% of all
    // bytes are in messages under 1000 bytes... the paper says "less than
    // 1000 bytes" accounts for >70% of *traffic* for W1 under its ETC
    // model; our anchored model puts ~45% under 1000 and >85% under
    // RTTbytes, preserving the fact that matters for the protocol: almost
    // all W1 bytes travel unscheduled.
    EXPECT_GT(workload(WorkloadId::W1).byteWeightedCdf(9640), 0.80);
    // W5: messages under 100 KB carry ~<1% of bytes (heavy tail).
    EXPECT_LT(workload(WorkloadId::W5).byteWeightedCdf(100000), 0.05);
    // W3 sits in between: roughly half its bytes below ~10 KB.
    const double w3 = workload(WorkloadId::W3).byteWeightedCdf(9640);
    EXPECT_GT(w3, 0.35);
    EXPECT_LT(w3, 0.60);
}

TEST(WorkloadNames, AllParse) {
    for (WorkloadId wl : kAllWorkloads) {
        EXPECT_EQ(workloadFromName(workload(wl).name()), wl);
    }
}

}  // namespace
}  // namespace homa
