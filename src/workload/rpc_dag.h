// Fan-out/fan-in RPC dependency DAGs (partition-aggregate trees).
//
// The paper's motivating applications (§1, §2.1) are built from short-RPC
// trees: a coordinator fans a query out to N workers, each worker may fan
// out again, and a node can answer its parent only after *all* of its
// children have answered it — so tree latency is the latency of the
// slowest leaf-to-root path, exactly the incast + tail-latency regime
// receiver-driven SRPT scheduling targets. None of the flat patterns
// (uniform, incast, closed-loop) can express that dependency structure;
// this module does.
//
// `DagEngine` orchestrates the trees inside `TrafficGenerator`
// (`TrafficPatternKind::Dag`): every edge is a one-way request message
// down and a response message up, so every transport in the repo runs the
// workload unmodified and `runExperiment`/`SweepRunner`/
// `resultFingerprint` apply as-is.
//
// Trees are closed-loop: each root keeps `DagConfig::window` trees in
// flight and issues the next one when a tree completes, riding the same
// `TrafficGenerator::onDelivered` refill machinery (and ON-OFF gating) as
// the closed-loop pattern. Everything is deterministic given (config,
// seed): tree shapes and sizes are fixed when the root issues the tree.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "sim/event_loop.h"
#include "sim/random.h"
#include "transport/message.h"
#include "workload/distribution.h"

namespace homa {

/// Shape and sizing of a partition-aggregate request tree. Everything is
/// deterministic given (config, seed); validateDagConfig() checks ranges
/// and the kMaxDagNodes cap.
struct DagConfig {
    int fanout = 8;   ///< children per internal node (>= 1)
    int depth = 2;    ///< levels of fan-out below the root (>= 1)
    int window = 1;   ///< trees each root keeps outstanding (>= 1)
    int roots = 0;    ///< coordinator hosts [0, roots); 0 = every host
    uint32_t requestBytes = 320;  ///< query size on every downward edge

    /// Response size of a node at stage d (1..depth; the last entry covers
    /// deeper stages). Empty = sample each node's response from the
    /// experiment's workload size distribution instead.
    std::vector<uint32_t> stageResponseBytes;

    /// Straggler/skew knobs: each *leaf* independently becomes a straggler
    /// with probability `stragglerFraction`, inflating its response size by
    /// `stragglerFactor` — one slow shard then dominates the whole tree.
    double stragglerFraction = 0.0;
    double stragglerFactor = 10.0;  ///< response-size multiplier (> 0)

    /// General DAGs beyond trees: each node at stage >= 2 independently
    /// gains a second parent (uniform over the previous stage, excluding
    /// its own parent and same-host nodes) with this probability. The
    /// extra parent also queries the node and waits for its answer — a
    /// shared subtree / multi-parent join. 0 = pure trees, and samples no
    /// extra randomness, so existing tree goldens are unperturbed. Joins
    /// only materialize when depth >= 2 (stage-1 nodes' only possible
    /// extra parent is the root itself).
    double joinFraction = 0.0;
};

/// Nodes per tree (excluding the root): sum of fanout^d for d in
/// [1, depth]. Saturates at kMaxDagNodes + 1 instead of overflowing.
int64_t dagTreeNodeCount(const DagConfig& cfg);

/// Hard cap on nodes per tree; validateDagConfig rejects larger trees.
constexpr int64_t kMaxDagNodes = 200000;

/// Returns nullptr when `cfg` is valid, else a static string describing
/// the first problem (range checks plus the kMaxDagNodes cap).
const char* validateDagConfig(const DagConfig& cfg);

/// Number of coordinator hosts for a cluster of `hostCount` hosts.
int dagRootCount(const DagConfig& cfg, int hostCount);

/// Uniform pick over [0, hostCount) excluding `exclude` — the skip-one
/// sampling shared by the flat patterns (scenario.cc) and sampleDagTree.
/// Requires hostCount >= 2 and exclude in range.
inline HostId uniformHostExcept(int hostCount, HostId exclude, Rng& rng) {
    HostId h = static_cast<HostId>(rng.below(hostCount - 1));
    if (h >= exclude) h++;
    return h;
}

/// Parses the body of a "dag:<body>" scenario spec — comma-separated
/// key=value pairs: fanout, depth, window, roots, req (request bytes),
/// resp (per-stage response bytes, '/'-separated, e.g. resp=16000/2000),
/// straggler (leaf fraction), factor (size multiplier), join (fraction of
/// depth >= 2 nodes that gain a second parent). Returns false and leaves
/// `out` untouched on unknown or repeated keys, malformed values, or a
/// config validateDagConfig rejects, with the reason (the spec reader's
/// or validateDagConfig's) in *err (if given).
bool parseDagSpec(const std::string& body, DagConfig& out,
                  std::string* err = nullptr);

/// One node of a sampled tree. Nodes are stored in BFS order (root at
/// index 0, children after their parent), so a parent's index is always
/// lower than its children's.
struct DagNodeSpec {
    HostId host = kNoHost;   ///< host this node runs on
    int parent = -1;         ///< index into nodes; -1 for the root
    int stage = 0;           ///< 0 = root, depth = leaves
    uint32_t respBytes = 0;  ///< response this node sends its parent (root: 0)
    int firstChild = -1;     ///< index of the first child; -1 for leaves
    int childCount = 0;      ///< number of children (contiguous from firstChild)
};

/// A join edge: `parent` is an *additional* parent of `child` (on top of
/// nodes[child].parent). The extra parent sends `child` its own request
/// and `child` answers it with its own copy of the response; the extra
/// parent's fan-in then also waits on `child`. Always stage(parent) ==
/// stage(child) - 1, so edges never form cycles and parent < child in
/// BFS order.
struct DagJoinEdge {
    int parent = 0;
    int child = 0;
};

/// A fully sampled tree — or DAG when `joins` is non-empty: shape,
/// placement, and sizes, fixed at issue time (see sampleDagTree).
struct DagTreeSpec {
    std::vector<DagNodeSpec> nodes;  ///< BFS order; parent index < child index
    std::vector<DagJoinEdge> joins;  ///< extra parent edges, child-ascending
};

/// Adjacency of the join edges: result[p] lists the join children of
/// node p, in edge order. Nodes with no joins get empty lists.
std::vector<std::vector<int>> dagJoinChildren(const DagTreeSpec& tree);

/// Samples one tree: shape from `cfg`, each node's host uniform over
/// [0, hostCount) except its parent's (uniformHostExcept), response sizes
/// from `cfg.stageResponseBytes` or — when that is empty — from `sizes`
/// (required in that case). All randomness draws from `rng`.
DagTreeSpec sampleDagTree(const DagConfig& cfg, const SizeDistribution* sizes,
                          Rng& rng, HostId root, int hostCount);

/// Payload bytes the tree moves end-to-end: one request per edge plus
/// every node's response — join edges carry their own request and
/// response copy.
int64_t dagTreeBytes(const DagConfig& cfg, const DagTreeSpec& tree);

/// Best-case transfer time of `bytes` from `src` to `dst` on an unloaded
/// network (an Oracle::bestOneWay wrapper, injected by the driver).
using DagCostFn = std::function<Duration(HostId src, HostId dst, uint32_t bytes)>;

/// Unloaded critical path of the tree (or DAG): the slowest chain of
/// request/response transfers from the root back to the root, assuming
/// perfect pipelining of siblings (a lower bound — it ignores the
/// serialization of a node's fan-out on its own uplink, which is part of
/// what the experiment measures). With join edges a node answers an
/// extra parent no earlier than max(that parent's request arrival, its
/// own subtree completion). 0 when `cost` is empty.
Duration dagTreeIdeal(const DagTreeSpec& tree, uint32_t requestBytes,
                      const DagCostFn& cost);

/// What a completed tree looked like; feeds DagTracker.
struct DagTreeResult {
    HostId root = kNoHost;  ///< coordinator host that issued the tree
    Time issued = 0;        ///< when the root issued the tree
    Time completed = 0;     ///< when the last child's response reached the root
    int nodes = 0;          ///< node count, excluding the root
    int64_t bytes = 0;      ///< payload moved (requests + responses)
    Duration ideal = 0;     ///< unloaded critical path; 0 when no cost fn
};

/// Message-level tree orchestration for `TrafficGenerator`.
///
/// The engine owns the trees' control flow but not the clock or the wire:
/// it sends through `SendFn` (which creates the message, emits it, and
/// returns its id) and advances on `onDelivered` feedback. Cascade sends
/// bounce through the event loop (1 ps) so no message is emitted from
/// inside a transport's delivery callback.
class DagEngine {
public:
    using AllocIdFn = std::function<MsgId()>;
    using EmitFn = std::function<void(const Message& m)>;
    using CompleteFn = std::function<void(const DagTreeResult&)>;

    /// `sizes` may be null when cfg.stageResponseBytes is non-empty.
    /// Ids come from `allocId` *before* the message reaches `emit`, so an
    /// emit-side observer can already resolve roleOf(m.id). Throws
    /// std::invalid_argument when validateDagConfig rejects `cfg` or the
    /// cluster has fewer than two hosts.
    DagEngine(const DagConfig& cfg, const SizeDistribution* sizes,
              int hostCount, EventLoop& loop, AllocIdFn allocId, EmitFn emit);

    void setCost(DagCostFn cost) { cost_ = std::move(cost); }
    void setOnComplete(CompleteFn fn) { onComplete_ = std::move(fn); }

    /// Issue one tree rooted at `root` now; shape/sizes drawn from `rng`.
    void issueTree(HostId root, Rng& rng);

    /// Delivery feed; advances the owning tree (child requests, responses,
    /// fan-in completion). Every message the engine sent is consumed here
    /// exactly once.
    void onDelivered(const Message& m);

    uint64_t treesCompleted() const { return completed_; }

    /// Introspection for the fan-in semantics tests. `parent` is the node
    /// index the message pairs with: the parent that sent the request /
    /// the parent the response is addressed to (join children exchange
    /// one request+response pair per parent).
    struct MsgRole {
        uint64_t tree = 0;
        int node = 0;
        int parent = -1;
        bool response = false;
    };
    std::optional<MsgRole> roleOf(MsgId id) const;
    /// Null once the tree completed (its state is reclaimed).
    const DagTreeSpec* treeSpec(uint64_t tree) const;

private:
    struct TreeState {
        DagTreeSpec spec;
        std::vector<int> pending;  // unanswered children (+ joins) per node
        std::vector<std::vector<int>> joinKids;  // dagJoinChildren(spec)
        std::vector<char> fanned;  // node already fanned out
        // Parents whose request arrived before the node's subtree was
        // done; all answered at once when the last child answers.
        std::vector<std::vector<int>> waiting;
        HostId root = kNoHost;
        Time issued = 0;
        int64_t bytes = 0;
    };

    void send(uint64_t tree, int node, int parent, bool response, HostId src,
              HostId dst, uint32_t bytes);
    void sendRequest(uint64_t tree, TreeState& st, int node, int parent);
    void sendResponse(uint64_t tree, TreeState& st, int node, int parent);
    void onRequestAt(uint64_t tree, int node, int parent);
    void nodeAnswered(uint64_t tree, TreeState& st, int node);

    DagConfig cfg_;
    const SizeDistribution* sizes_;
    int hostCount_;
    EventLoop& loop_;
    AllocIdFn allocId_;
    EmitFn emit_;
    DagCostFn cost_;
    CompleteFn onComplete_;
    std::unordered_map<uint64_t, TreeState> trees_;
    std::unordered_map<MsgId, MsgRole> byMsg_;
    uint64_t nextTree_ = 1;
    uint64_t completed_ = 0;
};

}  // namespace homa
