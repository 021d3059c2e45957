// Conservative parallel discrete-event engine.
//
// The network is partitioned by rack into shards (see sim/network.h), one
// EventLoop and one worker thread per shard; aggregation and core switches
// are dealt round-robin across the same shards. All shards advance in
// lock-stepped lookahead windows of width L = the switch internal delay:
//
//   1. each shard runs its own events in [W, W+L) — cross-shard links
//      (TOR<->aggr and, on three-tier topologies, aggr<->core) park
//      completed packets in per-(src,dst)-shard outboxes;
//   2. barrier; each shard drains the outboxes addressed to it, inserting
//      the packets into their target switches' canonical transit queues
//      (Switch::injectArrival);
//   3. barrier; the next window starts at the earliest pending event
//      across all shards (clamped to [W+L, end]), so idle stretches — the
//      drain grace, OFF periods — are skipped in one hop.
//
// Why L = switch delay is a safe lookahead: a cross-shard packet finishes
// arriving at some t in [W, W+L), so the earliest event it can cause on
// the receiving shard is its routing at t + L >= W+L — always a future
// window. Why results are byte-identical to serial: every cross-shard
// influence enters a shard either as a transit insertion ordered by the
// canonical (arrival time, link id) key — a pure function of packet
// content — or as an idempotent routeDue() kick; given identical inputs,
// each shard's own (time, seq) event order reproduces the serial order of
// that shard's events. See ARCHITECTURE.md "Parallel engine".
#pragma once

#include "sim/network.h"

namespace homa {

/// Thread-count knob for the parallel engine, carried by ExperimentConfig
/// (a sweep may override every point's: SweepOptions::simThreads).
struct ParallelConfig {
    /// Number of event-loop shards (worker threads) to aim for; values
    /// <= 1 select the classic serial engine. The effective shard count is
    /// further capped by the rack count, and scenarios with zero-lookahead
    /// feedback (closed-loop, DAG) or whole-network probes always run
    /// serially regardless.
    int threads = 1;
};

/// Advance every shard of `net` to exactly time `end`. With one shard this
/// is net.loop().runUntil(end); with more it runs the windowed engine
/// above. Either way, every shard's clock reads `end` on return.
void runNetworkUntil(Network& net, Time end);

}  // namespace homa
