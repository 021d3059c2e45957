#include "workload/rpc_dag.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <string>

#include "sim/parse.h"

namespace homa {

int64_t dagTreeNodeCount(const DagConfig& cfg) {
    int64_t total = 0;
    int64_t level = 1;
    for (int d = 1; d <= cfg.depth; d++) {
        level *= cfg.fanout;
        total += level;
        if (total > kMaxDagNodes) return kMaxDagNodes + 1;
    }
    return total;
}

const char* validateDagConfig(const DagConfig& cfg) {
    if (cfg.fanout < 1) return "fanout must be >= 1";
    if (cfg.depth < 1) return "depth must be >= 1";
    if (cfg.window < 1) return "window must be >= 1";
    if (cfg.roots < 0) return "roots must be >= 0";
    if (cfg.requestBytes < 1) return "request bytes must be >= 1";
    for (uint32_t b : cfg.stageResponseBytes) {
        if (b < 1) return "response bytes must be >= 1";
    }
    if (cfg.stragglerFraction < 0 || cfg.stragglerFraction > 1) {
        return "straggler fraction must be in [0, 1]";
    }
    if (cfg.stragglerFactor < 1) return "straggler factor must be >= 1";
    if (cfg.joinFraction < 0 || cfg.joinFraction > 1) {
        return "join fraction must be in [0, 1]";
    }
    if (dagTreeNodeCount(cfg) > kMaxDagNodes) {
        return "fanout^depth exceeds the per-tree node cap";
    }
    return nullptr;
}

int dagRootCount(const DagConfig& cfg, int hostCount) {
    if (cfg.roots <= 0) return hostCount;
    return std::min(cfg.roots, hostCount);
}

namespace {

const SpecKey<DagConfig> kDagKeys[] = {
    {"fanout",
     [](DagConfig& c, const std::string& v) { return count(v, c.fanout); }},
    {"depth",
     [](DagConfig& c, const std::string& v) { return count(v, c.depth); }},
    {"window",
     [](DagConfig& c, const std::string& v) { return count(v, c.window); }},
    {"roots",
     [](DagConfig& c, const std::string& v) { return count(v, c.roots); }},
    // Sizes of 0 are validateDagConfig's to reject.
    {"req",
     [](DagConfig& c, const std::string& v) {
         return count(v, c.requestBytes);
     }},
    {"resp",
     [](DagConfig& c, const std::string& v) {
         for (const std::string& stage : split(v, '/')) {
             std::string why =
                 count(stage, c.stageResponseBytes.emplace_back());
             if (!why.empty()) return why;
         }
         return std::string();
     }},
    {"straggler",
     [](DagConfig& c, const std::string& v) {
         return number(v, c.stragglerFraction);
     }},
    {"factor",
     [](DagConfig& c, const std::string& v) {
         return number(v, c.stragglerFactor);
     }},
    {"join",
     [](DagConfig& c, const std::string& v) {
         return number(v, c.joinFraction);
     }},
};

}  // namespace

bool parseDagSpec(const std::string& body, DagConfig& out, std::string* err) {
    DagConfig cfg;
    std::string why = readSpec("dag", body, kDagKeys, cfg);
    if (why.empty()) {
        if (const char* rule = validateDagConfig(cfg)) why = rule;
    }
    if (!why.empty()) {
        if (err) *err = why;
        return false;
    }
    out = cfg;
    return true;
}

DagTreeSpec sampleDagTree(
    const DagConfig& cfg, const SizeDistribution* sizes, Rng& rng,
    HostId root, const std::function<HostId(HostId, Rng&)>& pickChild) {
    assert(validateDagConfig(cfg) == nullptr);
    assert(sizes != nullptr || !cfg.stageResponseBytes.empty());
    DagTreeSpec tree;
    tree.nodes.reserve(static_cast<size_t>(dagTreeNodeCount(cfg)) + 1);
    DagNodeSpec rootNode;
    rootNode.host = root;
    tree.nodes.push_back(rootNode);

    auto respBytesFor = [&](int stage) -> uint32_t {
        if (cfg.stageResponseBytes.empty()) {
            return std::max<uint32_t>(1, sizes->sample(rng));
        }
        const size_t i = std::min<size_t>(static_cast<size_t>(stage - 1),
                                          cfg.stageResponseBytes.size() - 1);
        return cfg.stageResponseBytes[i];
    };

    // BFS level by level: children are appended contiguously, so each
    // parent records [firstChild, firstChild + childCount).
    size_t levelBegin = 0, levelEnd = 1;
    for (int stage = 1; stage <= cfg.depth; stage++) {
        for (size_t p = levelBegin; p < levelEnd; p++) {
            tree.nodes[p].firstChild = static_cast<int>(tree.nodes.size());
            tree.nodes[p].childCount = cfg.fanout;
            for (int c = 0; c < cfg.fanout; c++) {
                DagNodeSpec n;
                n.host = pickChild(tree.nodes[p].host, rng);
                assert(n.host != tree.nodes[p].host);
                n.parent = static_cast<int>(p);
                n.stage = stage;
                n.respBytes = respBytesFor(stage);
                if (stage == cfg.depth && cfg.stragglerFraction > 0 &&
                    rng.chance(cfg.stragglerFraction)) {
                    const double inflated =
                        static_cast<double>(n.respBytes) * cfg.stragglerFactor;
                    n.respBytes = static_cast<uint32_t>(std::min(
                        inflated, static_cast<double>(1u << 30)));
                }
                tree.nodes.push_back(n);
            }
        }
        levelBegin = levelEnd;
        levelEnd = tree.nodes.size();
    }

    // Join edges are sampled *after* the full tree build: joinFraction = 0
    // draws nothing, so pure-tree shapes replay byte-identically to the
    // pre-join sampler. Candidates for node i's extra parent: the previous
    // stage, minus its own parent and any node on i's host (a node never
    // queries itself).
    if (cfg.joinFraction > 0 && cfg.depth >= 2) {
        // Stages are contiguous in BFS order: stage s occupies
        // [stageFirst[s], stageFirst[s + 1]).
        std::vector<size_t> stageFirst(static_cast<size_t>(cfg.depth) + 2,
                                       tree.nodes.size());
        for (size_t i = tree.nodes.size(); i-- > 0;) {
            stageFirst[static_cast<size_t>(tree.nodes[i].stage)] = i;
        }
        std::vector<int> candidates;
        for (size_t i = 1; i < tree.nodes.size(); i++) {
            const DagNodeSpec& n = tree.nodes[i];
            if (n.stage < 2) continue;
            if (!rng.chance(cfg.joinFraction)) continue;
            candidates.clear();
            for (size_t p = stageFirst[static_cast<size_t>(n.stage) - 1];
                 p < stageFirst[static_cast<size_t>(n.stage)]; p++) {
                if (static_cast<int>(p) == n.parent) continue;
                if (tree.nodes[p].host == n.host) continue;
                candidates.push_back(static_cast<int>(p));
            }
            if (candidates.empty()) continue;
            const int extra =
                candidates[rng.below(static_cast<int>(candidates.size()))];
            tree.joins.push_back(DagJoinEdge{extra, static_cast<int>(i)});
        }
    }
    return tree;
}

std::vector<std::vector<int>> dagJoinChildren(const DagTreeSpec& tree) {
    std::vector<std::vector<int>> kids(tree.nodes.size());
    for (const DagJoinEdge& e : tree.joins) kids[e.parent].push_back(e.child);
    return kids;
}

int64_t dagTreeBytes(const DagConfig& cfg, const DagTreeSpec& tree) {
    int64_t total = 0;
    for (size_t i = 1; i < tree.nodes.size(); i++) {
        total += static_cast<int64_t>(cfg.requestBytes) + tree.nodes[i].respBytes;
    }
    for (const DagJoinEdge& e : tree.joins) {
        total += static_cast<int64_t>(cfg.requestBytes) +
                 tree.nodes[e.child].respBytes;
    }
    return total;
}

Duration dagTreeIdeal(const DagTreeSpec& tree, uint32_t requestBytes,
                      const DagCostFn& cost) {
    if (!cost) return 0;
    // Absolute-time formulation (the old relative recursion cannot express
    // a node with two parents). Forward pass: arrive[n] = earliest any
    // parent's request reaches n (parents precede children in BFS order,
    // and join parents sit one stage up, so arrive[parent] is final when
    // n is visited). Reverse pass: done[n] = time n's subtree completes =
    // max over children/join-children c of the time c's response reaches
    // n, where c answers n at max(n's request arrival at c, done[c]) plus
    // the response edge. Integer arithmetic throughout, so pure trees
    // produce bit-identical results to the old slowest-child recursion.
    const size_t count = tree.nodes.size();
    std::vector<std::vector<int>> extraParents(count);
    for (const DagJoinEdge& e : tree.joins) {
        extraParents[e.child].push_back(e.parent);
    }
    std::vector<Duration> arrive(count, 0);
    for (size_t i = 1; i < count; i++) {
        const DagNodeSpec& n = tree.nodes[i];
        Duration a = arrive[n.parent] +
                     cost(tree.nodes[n.parent].host, n.host, requestBytes);
        for (int p : extraParents[i]) {
            a = std::min(a, arrive[p] +
                                cost(tree.nodes[p].host, n.host, requestBytes));
        }
        arrive[i] = a;
    }
    std::vector<Duration> done(count, 0);
    auto foldResponse = [&](size_t child, int parent) {
        const DagNodeSpec& c = tree.nodes[child];
        const HostId parentHost = tree.nodes[parent].host;
        const Duration reqAt =
            arrive[parent] + cost(parentHost, c.host, requestBytes);
        const Duration respAt = std::max(reqAt, done[child]) +
                                cost(c.host, parentHost, c.respBytes);
        done[parent] = std::max(done[parent], respAt);
    };
    for (size_t i = count; i-- > 1;) {
        foldResponse(i, tree.nodes[i].parent);
        for (int p : extraParents[i]) foldResponse(i, p);
    }
    return done[0];
}

DagEngine::DagEngine(const DagConfig& cfg, const SizeDistribution* sizes,
                     int hostCount, EventLoop& loop, AllocIdFn allocId,
                     EmitFn emit)
    : cfg_(cfg),
      sizes_(sizes),
      hostCount_(hostCount),
      loop_(loop),
      allocId_(std::move(allocId)),
      emit_(std::move(emit)) {
    if (const char* why = validateDagConfig(cfg_)) {
        throw std::invalid_argument(std::string("DagEngine: ") + why);
    }
    if (hostCount_ < 2) {
        throw std::invalid_argument("DagEngine: needs at least two hosts");
    }
    assert(allocId_ && emit_);
}

void DagEngine::issueTree(HostId root, Rng& rng) {
    const uint64_t id = nextTree_++;
    TreeState st;
    st.root = root;
    st.issued = loop_.now();
    st.spec = sampleDagTree(
        cfg_, sizes_, rng, root, [this](HostId parent, Rng& r) {
            return uniformHostExcept(hostCount_, parent, r);
        });
    st.pending.resize(st.spec.nodes.size());
    for (size_t i = 0; i < st.spec.nodes.size(); i++) {
        st.pending[i] = st.spec.nodes[i].childCount;
    }
    st.joinKids = dagJoinChildren(st.spec);
    for (const DagJoinEdge& e : st.spec.joins) st.pending[e.parent]++;
    st.fanned.assign(st.spec.nodes.size(), 0);
    st.waiting.resize(st.spec.nodes.size());
    st.bytes = dagTreeBytes(cfg_, st.spec);
    issued_++;
    TreeState& placed = trees_.emplace(id, std::move(st)).first->second;
    // The root's fan-out: requests to every stage-1 child, sent now (the
    // caller already bounced through the event loop). The root never has
    // join children (their extra parents sit at stage >= 1).
    placed.fanned[0] = 1;
    const DagNodeSpec& rootNode = placed.spec.nodes[0];
    for (int c = 0; c < rootNode.childCount; c++) {
        sendRequest(id, placed, rootNode.firstChild + c, /*parent=*/0);
    }
}

void DagEngine::send(uint64_t tree, int node, int parent, bool response,
                     HostId src, HostId dst, uint32_t bytes) {
    Message m;
    m.id = allocId_();
    m.src = src;
    m.dst = dst;
    m.length = bytes;
    // Register before emitting so creation-time observers can resolve it.
    byMsg_.emplace(m.id, MsgRole{tree, node, parent, response});
    emit_(m);
}

void DagEngine::sendRequest(uint64_t tree, TreeState& st, int node,
                            int parent) {
    const DagNodeSpec& n = st.spec.nodes[node];
    send(tree, node, parent, /*response=*/false, st.spec.nodes[parent].host,
         n.host, cfg_.requestBytes);
}

void DagEngine::sendResponse(uint64_t tree, TreeState& st, int node,
                             int parent) {
    const DagNodeSpec& n = st.spec.nodes[node];
    send(tree, node, parent, /*response=*/true, n.host,
         st.spec.nodes[parent].host, n.respBytes);
}

void DagEngine::onDelivered(const Message& m) {
    const auto it = byMsg_.find(m.id);
    if (it == byMsg_.end()) return;  // not one of ours
    const MsgRole role = it->second;
    byMsg_.erase(it);
    const auto treeIt = trees_.find(role.tree);
    assert(treeIt != trees_.end());
    TreeState& st = treeIt->second;

    if (!role.response) {
        // Request arrived at the node. Bounce through the loop so nothing
        // is emitted from inside the transport's delivery callback (and to
        // model a minimal software hand-off).
        loop_.after(1, [this, tree = role.tree, node = role.node,
                        parent = role.parent] {
            onRequestAt(tree, node, parent);
        });
        return;
    }
    // Response delivered at the parent it was addressed to: fan-in
    // accounting there (a join child decrements each parent once, via its
    // per-parent response).
    nodeAnswered(role.tree, st, role.parent);
}

void DagEngine::onRequestAt(uint64_t tree, int node, int parent) {
    const auto tIt = trees_.find(tree);
    assert(tIt != trees_.end());
    TreeState& ts = tIt->second;
    const DagNodeSpec& n = ts.spec.nodes[node];
    if (n.childCount == 0) {
        // Leaves answer every requesting parent immediately.
        sendResponse(tree, ts, node, parent);
        return;
    }
    if (!ts.fanned[node]) {
        // First request triggers the (single) fan-out: own children plus
        // any join children this node is the extra parent of. The
        // requesting parent waits for the subtree.
        ts.fanned[node] = 1;
        ts.waiting[node].push_back(parent);
        for (int c = 0; c < n.childCount; c++) {
            sendRequest(tree, ts, n.firstChild + c, node);
        }
        for (int jc : ts.joinKids[node]) {
            sendRequest(tree, ts, jc, node);
        }
        return;
    }
    if (ts.pending[node] == 0) {
        // Subtree already complete (a later parent's request arrived after
        // the fan-in finished): answer from the completed state.
        sendResponse(tree, ts, node, parent);
        return;
    }
    ts.waiting[node].push_back(parent);
}

void DagEngine::nodeAnswered(uint64_t tree, TreeState& st, int node) {
    assert(st.pending[node] > 0);
    if (--st.pending[node] > 0) return;
    if (node == 0) {
        // The last stage-1 response reached the root: the tree is done.
        DagTreeResult r;
        r.root = st.root;
        r.issued = st.issued;
        r.completed = loop_.now();
        r.nodes = static_cast<int>(st.spec.nodes.size()) - 1;
        r.bytes = st.bytes;
        r.ideal = dagTreeIdeal(st.spec, cfg_.requestBytes, cost_);
        completed_++;
        trees_.erase(tree);
        if (onComplete_) onComplete_(r);
        return;
    }
    // All children (and join children) answered: answer every parent
    // whose request has arrived so far; any parent requesting later gets
    // answered straight from onRequestAt's completed-subtree branch.
    loop_.after(1, [this, tree, node] {
        const auto tIt = trees_.find(tree);
        assert(tIt != trees_.end());
        TreeState& ts = tIt->second;
        for (int parent : ts.waiting[node]) {
            sendResponse(tree, ts, node, parent);
        }
        ts.waiting[node].clear();
    });
}

std::optional<DagEngine::MsgRole> DagEngine::roleOf(MsgId id) const {
    const auto it = byMsg_.find(id);
    if (it == byMsg_.end()) return std::nullopt;
    return it->second;
}

const DagTreeSpec* DagEngine::treeSpec(uint64_t tree) const {
    const auto it = trees_.find(tree);
    return it == trees_.end() ? nullptr : &it->second.spec;
}

}  // namespace homa
