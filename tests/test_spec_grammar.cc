// The spec grammars (topo, fault, dag, tenants, replicas, and the
// `+`-segment scenario spec) share one reader (sim/parse.h): every pair is
// `k=v`, every key comes from the grammar's table and appears at most
// once, numbers are whole tokens, and every rejection says why. This suite
// checks those shared rules in each grammar, feeds the parsers seeded
// mutants of valid specs (each is rejected with a reason or round-trips
// through its printer), and parses every example in docs/SCENARIOS.md.
#include <gtest/gtest.h>

#include <fstream>
#include <functional>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/fault.h"
#include "sim/topology.h"
#include "workload/scenario.h"
#include "workload/serving.h"

namespace homa {
namespace {

// One parser under test: false with a reason, or true, the printer's
// canonical form ("" where the grammar has no printer) and `value`, the
// parsed fields written out exactly (durations in picoseconds, doubles in
// hex), so equal values mean equal configs.
struct Grammar {
    const char* name;
    std::function<bool(const std::string&, std::string& canonical,
                       std::string& value, std::string* err)>
        parse;
};

std::string fields(const FaultSpec& f) {
    char b[256];
    std::snprintf(b, sizeof(b), "%d %d %d at=%lld for=%lld %a %lld %a %d %lld",
                  static_cast<int>(f.kind), static_cast<int>(f.targetKind),
                  f.targetIndex, static_cast<long long>(f.at),
                  static_cast<long long>(f.duration), f.bwFactor,
                  static_cast<long long>(f.extraDelay), f.dropProb, f.count,
                  static_cast<long long>(f.gap));
    return b;
}

std::string fields(const std::vector<TenantConfig>& tenants) {
    std::string out;
    for (const TenantConfig& t : tenants) {
        char b[160];
        std::snprintf(b, sizeof(b), "%d %d %a %d %lld %d;",
                      static_cast<int>(t.workload), static_cast<int>(t.mode),
                      t.load, t.window, static_cast<long long>(t.think),
                      t.clients);
        out += t.name + " " + t.group + " " + b;
    }
    return out;
}

std::string fields(const std::vector<ReplicaGroupConfig>& groups) {
    std::string out;
    for (const ReplicaGroupConfig& g : groups) {
        char b[160];
        std::snprintf(b, sizeof(b), "%d %d %a %lld %d;", g.replicas,
                      static_cast<int>(g.policy), g.hedgePercentile,
                      static_cast<long long>(g.hedgeFloor),
                      g.hedgeMinSamples);
        out += g.name + " " + b;
    }
    return out;
}

const Grammar kGrammars[] = {
    {"scenario",
     [](const std::string& s, std::string& canonical, std::string& value,
        std::string* err) {
         ScenarioConfig sc;
         canonical.clear();
         value.clear();
         return scenarioFromSpec(s, sc, err);
     }},
    {"topo",
     [](const std::string& s, std::string& canonical, std::string& value,
        std::string* err) {
         NetworkConfig net = NetworkConfig::fatTree144();
         canonical.clear();
         value.clear();
         return parseTopoSpec(s, net, err);
     }},
    {"fault",
     [](const std::string& s, std::string& canonical, std::string& value,
        std::string* err) {
         FaultSpec f;
         if (!parseFaultSpec(s, f, err)) return false;
         canonical = faultSpecToString(f);
         value = fields(f);
         return true;
     }},
    {"tenants",
     [](const std::string& s, std::string& canonical, std::string& value,
        std::string* err) {
         std::vector<TenantConfig> t;
         if (!parseTenantsSpec(s, t, err)) return false;
         canonical = tenantsSpecToString(t);
         value = fields(t);
         return true;
     }},
    {"replicas",
     [](const std::string& s, std::string& canonical, std::string& value,
        std::string* err) {
         std::vector<ReplicaGroupConfig> g;
         if (!parseReplicasSpec(s, g, err)) return false;
         canonical = replicasSpecToString(g);
         value = fields(g);
         return true;
     }},
};

const Grammar& grammar(const std::string& name) {
    for (const Grammar& g : kGrammars) {
        if (name == g.name) return g;
    }
    throw std::invalid_argument("no grammar " + name);
}

std::string rejection(const std::string& grammarName,
                      const std::string& spec) {
    std::string canonical, value, err;
    EXPECT_FALSE(grammar(grammarName).parse(spec, canonical, value, &err))
        << grammarName << " accepted '" << spec << "'";
    EXPECT_FALSE(err.empty()) << spec;
    return err;
}

// Valid specs from the tests and docs/SCENARIOS.md, by grammar.
const std::pair<const char*, const char*> kSeeds[] = {
    {"scenario", "uniform"},
    {"scenario", "incast+on-off"},
    {"scenario", "dag:fanout=40,depth=2+on-off"},
    {"scenario",
     "dag:fanout=8,depth=1,window=2,roots=4,req=100,resp=16000/2000,"
     "straggler=0.1,factor=20+on-off"},
    {"scenario", "dag:fanout=3,depth=3,join=0.4"},
    {"scenario",
     "uniform+ecmp+fault:flap=aggr0,at=50us,for=10us+fault:degrade=host1,"
     "at=0ns,drop=0.01"},
    {"scenario", "permutation+topo:racks=8,aggr=2,core=2,oversub=4"},
    {"scenario", "incast+fluid:0+on-off"},
    {"scenario",
     "uniform+tenants:name=web,wl=W1,load=0.4,clients=4;name=batch,wl=W2,"
     "mode=closed,window=4,clients=2+replicas:name=pool,n=0,lb=p2c,"
     "hedge=p90"},
    {"topo", "racks=8,hosts=4,aggr=2,core=2,oversub=4,pods=2"},
    {"topo", "racks=256,hosts=40"},
    {"fault", "flap=aggr0,at=50ms,for=10ms"},
    {"fault", "kill=tor2,at=30ms"},
    {"fault", "degrade=host5,at=1ms,for=5ms,bw=0.25,delay=10us,drop=0.01"},
    {"fault", "flap-train=aggr1,at=10ms,count=5,gap=2ms,for=500us"},
    // Sub-nanosecond and not-quite-exact durations.
    {"fault", "flap=aggr0,at=1.009us,for=0.4ns"},
    {"fault", "flap-train=tor1,at=2.5ns,count=3,gap=0.2ns,for=1.0005us"},
    // Seven significant digits, one past what "%g" prints.
    {"fault", "degrade=host2,at=1ms,bw=0.1234567,drop=0.01234567"},
    {"tenants",
     "name=web,wl=W1,load=0.6,clients=4;name=batch,wl=W5,mode=closed,"
     "window=8,think_us=12.5,clients=2,group=bulk"},
    {"replicas",
     "name=fast,n=2,lb=p2c,hedge=p95,hedge_floor_us=15,hedge_min=16;"
     "name=bulk,n=0,lb=rr"},
    {"tenants",
     "name=web,wl=W1,load=0.1234567,clients=4;name=batch,wl=W2,mode=closed,"
     "window=2,think_us=12.34567,clients=2"},
    {"replicas", "name=fast,n=2,lb=p2c,hedge=p95,hedge_floor_us=15.123456"},
};

TEST(SpecGrammar, SeedsParse) {
    for (const auto& [name, spec] : kSeeds) {
        std::string canonical, value, err;
        EXPECT_TRUE(grammar(name).parse(spec, canonical, value, &err))
            << name << " '" << spec << "': " << err;
    }
}

TEST(SpecGrammar, RepeatedKeysAreRejectedInEveryGrammar) {
    // A repeated key used to keep its last value silently.
    EXPECT_EQ(rejection("topo", "racks=2,racks=3,hosts=4,aggr=1"),
              "repeated topo key 'racks' in 'racks=3' (each key may appear "
              "once)");
    EXPECT_EQ(rejection("fault", "degrade=host3,at=1ms,at=2ms,drop=0.01"),
              "repeated fault key 'at' in 'at=2ms' (each key may appear "
              "once)");
    EXPECT_NE(rejection("scenario", "dag:fanout=4,depth=2,fanout=8")
                  .find("repeated dag key 'fanout' in 'fanout=8'"),
              std::string::npos);
    EXPECT_EQ(rejection("tenants", "name=a,clients=2,clients=5"),
              "repeated tenant key 'clients' in 'clients=5' (each key may "
              "appear once)");
    EXPECT_EQ(rejection("replicas", "name=g;name=h,lb=rr,lb=p2c"),
              "repeated replica key 'lb' in 'lb=p2c' (each key may appear "
              "once)");
    // So are repeated scenario segments, all but fault:.
    EXPECT_NE(rejection("scenario", "uniform+on-off+on-off")
                  .find("at most one on-off segment"),
              std::string::npos);
    EXPECT_NE(rejection("scenario", "uniform+topo:racks=2+topo:racks=3")
                  .find("at most one topo: segment"),
              std::string::npos);
    std::string canonical, value;
    EXPECT_TRUE(grammar("scenario").parse(
        "uniform+fault:kill=aggr0,at=1ms+fault:kill=aggr1,at=2ms", canonical,
        value, nullptr));
}

TEST(SpecGrammar, NumbersAreWholeTokens) {
    // strtol/strtod used to skip a leading space and accept a sign or a
    // hex float; counts never take a sign.
    EXPECT_EQ(rejection("topo", "racks=+2,hosts=4,aggr=1"),
              "topo key racks: expected a count in [0, 1000000], got '+2'");
    EXPECT_EQ(rejection("topo", "racks= 2,hosts=4,aggr=1"),
              "topo key racks: expected a count in [0, 1000000], got ' 2'");
    EXPECT_EQ(rejection("topo", "racks=8,oversub=0x1p1"),
              "topo key oversub: expected a number, got '0x1p1'");
    EXPECT_EQ(rejection("scenario", "dag:straggler=0x1p-2"),
              "bad dag spec 'straggler=0x1p-2': dag key straggler: expected "
              "a number, got '0x1p-2'");
    EXPECT_EQ(rejection("scenario", "dag:fanout= 8"),
              "bad dag spec 'fanout= 8': dag key fanout: expected a count in "
              "[0, 2147483647], got ' 8'");
    EXPECT_NE(rejection("tenants", "name=a,clients=-2")
                  .find("tenant key clients: expected a count"),
              std::string::npos);
    EXPECT_NE(rejection("scenario", "uniform+fluid: 20000")
                  .find("bad fluid spec ' 20000'"),
              std::string::npos);
}

TEST(SpecGrammar, DagRejectionsGiveTheRule) {
    // The dag grammar used to answer every error with its key list.
    EXPECT_EQ(rejection("scenario", "dag:fanout=0"),
              "bad dag spec 'fanout=0': fanout must be >= 1");
    EXPECT_EQ(rejection("scenario", "dag:fanout=100,depth=3"),
              "bad dag spec 'fanout=100,depth=3': fanout^depth exceeds the "
              "per-tree node cap");
    // The key list comes from the table, so it names join too.
    EXPECT_NE(rejection("scenario", "dag:fanot=4")
                  .find("unknown dag key 'fanot' in 'fanot=4' (known: "
                        "fanout, depth, window, roots, req, resp, straggler, "
                        "factor, join)"),
              std::string::npos);
    DagConfig dag;
    std::string err;
    EXPECT_FALSE(parseDagSpec("depth=0", dag, &err));
    EXPECT_EQ(err, "depth must be >= 1");
}

TEST(SpecGrammar, SegmentRulesComeFromOneTable) {
    for (const char* first : {"on-off", "ecmp", "topo:racks=2",
                              "fluid:100", "fault:kill=aggr0",
                              "tenants:name=a", "replicas:name=g"}) {
        EXPECT_NE(rejection("scenario", first).find("cannot come first"),
                  std::string::npos)
            << first;
    }
    EXPECT_NE(rejection("scenario", "uniform+onoff")
                  .find("unknown scenario modifier 'onoff' (known: on-off, "
                        "ecmp, topo:, fluid:, fault:, tenants:, replicas:)"),
              std::string::npos);
}

// Every maximal run of characters between ",;+:" that holds a '=', as
// [begin, end) offsets: the k=v pairs of a spec of any grammar.
std::vector<std::pair<size_t, size_t>> pairsOf(const std::string& spec) {
    std::vector<std::pair<size_t, size_t>> out;
    size_t begin = 0;
    for (size_t i = 0; i <= spec.size(); i++) {
        if (i == spec.size() || std::string(",;+:").find(spec[i]) !=
                                    std::string::npos) {
            if (spec.substr(begin, i - begin).find('=') != std::string::npos) {
                out.emplace_back(begin, i);
            }
            begin = i + 1;
        }
    }
    return out;
}

TEST(SpecGrammar, EveryRepeatedPairOfTheSeedsIsRejected) {
    int repeats = 0;
    for (const auto& [name, spec] : kSeeds) {
        const std::string s = spec;
        for (const auto& [begin, end] : pairsOf(s)) {
            const std::string mutant = s.substr(0, end) + "," +
                                       s.substr(begin, end - begin) +
                                       s.substr(end);
            rejection(name, mutant);
            repeats++;
        }
    }
    EXPECT_GT(repeats, 50);
}

// One random edit: delete, duplicate or swap a character, or insert one
// of the characters the grammars give meaning to (or a space).
std::string mutate(const std::string& s, std::mt19937_64& rng) {
    static const std::string kInserts = ",=;+:/.-e09 ";
    auto pick = [&rng](size_t n) {
        return static_cast<size_t>(rng() % static_cast<uint64_t>(n));
    };
    std::string m = s;
    switch (pick(4)) {
        case 0:
            if (!m.empty()) m.erase(pick(m.size()), 1);
            break;
        case 1:
            if (!m.empty()) {
                const size_t i = pick(m.size());
                m.insert(i, 1, m[i]);
            }
            break;
        case 2:
            if (m.size() >= 2) {
                const size_t i = pick(m.size() - 1);
                std::swap(m[i], m[i + 1]);
            }
            break;
        default:
            m.insert(pick(m.size() + 1), 1, kInserts[pick(kInserts.size())]);
            break;
    }
    return m;
}

TEST(SpecGrammar, MutantsAreRejectedWithAReasonOrRoundTrip) {
    std::mt19937_64 rng(20261019);
    int accepted = 0, rejected = 0;
    for (const auto& [seedGrammar, spec] : kSeeds) {
        for (int n = 0; n < 300; n++) {
            std::string mutant = mutate(spec, rng);
            if (rng() % 2 == 0) mutant = mutate(mutant, rng);
            for (const Grammar& g : kGrammars) {
                std::string canonical, value, err;
                if (!g.parse(mutant, canonical, value, &err)) {
                    EXPECT_FALSE(err.empty())
                        << g.name << " '" << mutant << "' (from "
                        << seedGrammar << " seed)";
                    rejected++;
                    continue;
                }
                accepted++;
                if (canonical.empty()) continue;  // no printer
                std::string again, againValue, why;
                ASSERT_TRUE(g.parse(canonical, again, againValue, &why))
                    << g.name << " '" << mutant << "' printed '" << canonical
                    << "', which does not parse: " << why;
                EXPECT_EQ(again, canonical) << g.name << " '" << mutant << "'";
                EXPECT_EQ(againValue, value)
                    << g.name << " '" << mutant << "' printed '" << canonical
                    << "', which reads back as other values";
            }
        }
    }
    // Mutants land on both sides.
    EXPECT_GT(accepted, 100);
    EXPECT_GT(rejected, 5000);
}

#ifdef HOMA_DOCS_DIR

TEST(SpecGrammar, EveryScenarioDocExampleParses) {
    std::ifstream in(std::string(HOMA_DOCS_DIR) + "/SCENARIOS.md");
    ASSERT_TRUE(in) << HOMA_DOCS_DIR;
    std::stringstream doc;
    doc << in.rdbuf();
    const std::string text = doc.str();
    const std::pair<std::string, const char*> kFlags[] = {
        {"HOMA_SCENARIO=", "scenario"}, {"--topo ", "topo"},
        {"--fault ", "fault"},          {"--tenants ", "tenants"},
        {"--replicas ", "replicas"}};
    for (const auto& [flag, name] : kFlags) {
        int found = 0;
        for (size_t at = text.find(flag); at != std::string::npos;
             at = text.find(flag, at + 1)) {
            size_t begin = at + flag.size();
            if (begin < text.size() && text[begin] == '\'') begin++;
            const size_t end = text.find_first_of(" \t\n'`", begin);
            const std::string spec = text.substr(begin, end - begin);
            // A placeholder such as `--topo <spec>` is not an example.
            if (spec.empty() || spec[0] == '<') continue;
            std::string canonical, value, err;
            EXPECT_TRUE(grammar(name).parse(spec, canonical, value, &err))
                << flag << spec << ": " << err;
            found++;
        }
        EXPECT_GE(found, 1) << "no " << flag << " example in SCENARIOS.md";
    }
}

#endif  // HOMA_DOCS_DIR

}  // namespace
}  // namespace homa
