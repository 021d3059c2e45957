// Tunables of the Homa protocol (§3 of the paper).
#pragma once

#include <cstdint>
#include <vector>

#include "sched/grant_scheduler.h"
#include "sim/time.h"

namespace homa {

struct HomaConfig {
    /// Grant scheduling policy of the receiver (src/sched/). Srpt is the
    /// paper's receiver; Unlimited turns Homa into the "basic transport"
    /// strawman; Fifo/RoundRobin are ordering ablations approximating the
    /// fair-share baselines.
    GrantPolicy grantPolicy = GrantPolicy::Srpt;

    /// Bandwidth-delay product of the grant control loop: a sender may
    /// transmit this many bytes of a message blindly (§2.2); receivers keep
    /// this many bytes granted-but-not-received per active message (§3.3).
    /// <= 0 means "derive from the topology" (~9.7 KB on the fat-tree).
    int64_t rttBytes = 0;

    /// Logical priority levels Homa's algorithms work with (the paper uses
    /// all 8 switch levels).
    int logicalPriorities = 8;

    /// Wire priority levels actually emitted. The HomaPx variants of
    /// Figures 8/9 collapse adjacent logical levels onto x wire levels;
    /// the internal allocation (and thus the overcommitment degree) is
    /// unchanged, only the packet markings coarsen.
    int wirePriorities = 8;

    /// Unscheduled priority levels. <= 0 means "allocate by measured
    /// unscheduled byte fraction" (Figure 4): round(F * logicalPriorities),
    /// clamped to [1, logicalPriorities - 1].
    int unschedPriorities = 0;

    /// Degree of overcommitment. <= 0 means "number of scheduled priority
    /// levels", the paper's default policy (§3.5).
    int overcommitDegree = 0;

    /// Max unscheduled bytes per message. <= 0 means rttBytes (the paper's
    /// default); Figure 20 sweeps this.
    int64_t unschedBytesLimit = 0;

    /// Explicit unscheduled cutoffs for sweeps (Figure 18); empty means
    /// "balance unscheduled bytes across levels" (the paper's policy).
    std::vector<uint32_t> explicitCutoffs;

    /// Loss recovery (§3.7). Timeouts are a few milliseconds in the paper.
    Duration resendTimeout = milliseconds(2);
    int maxResends = 5;

    /// Incast control (§3.6): messages the RPC layer marks (past
    /// RpcEndpoint's outstanding-RPC threshold) cap their unscheduled bytes.
    bool incastControl = true;
    int64_t incastUnschedBytes = 320;

    /// Keep sender state around after the last byte is sent so RESENDs can
    /// be answered (§3.8 discards on response *transmission*; we linger a
    /// little to serve retransmissions of one-way messages). That state is
    /// a 40-byte record per message (HomaSender::Lingering). 10 ms is at
    /// least as long as the traffic window of bench_e2e's homa_w3 (4 ms),
    /// fluid_10k (1 ms) and serving_hedged (10 ms), so a run that short
    /// still holds nearly every message it sent when generation stops.
    Duration senderLinger = milliseconds(10);

    /// Future-work extension the paper sketches in §5.1: dedicate a small
    /// fraction of receiver downlink bandwidth to the *oldest* incomplete
    /// message, so SRPT cannot starve the very largest messages (their
    /// 99th-percentile slowdown is 100x+ under plain SRPT). 0 disables;
    /// 0.1 reserves ~10% of the grant window for the oldest message.
    double oldestReservation = 0.0;
};

}  // namespace homa
