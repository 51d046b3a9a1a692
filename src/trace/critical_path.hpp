#pragma once
// Critical-path analysis of a simulation's causal event graph (ISSUE 5).
//
// Figure 1 measures how fast each synchronization family *is*; the critical
// path says how fast any of them *could be*. The analyzer replays the
// partitioned simulation on an idealized machine — one processor per batch,
// zero communication cost, every batch at its best-case execution time — and
// computes the earliest possible finish of every batch under the causal
// dependencies no scheduler can break:
//
//   - intra-LP order: a block's batches execute in event-time order, so each
//     batch starts no earlier than the block's previous batch finished;
//   - message edges: a batch that consumes a cross-block message starts no
//     earlier than the sending batch finished.
//
// The longest finish time over all batches is the critical-path time; the
// modelled sequential work divided by it is the maximum achievable speedup
// for this circuit, stimulus and partition. Every point of the Figure 1
// sweep must sit at or below this bound (bench/c12_critical_path.cpp
// enforces that), because each real engine pays at least the best-case
// batch cost along some causal chain, plus barriers, blocking, messages or
// rollbacks on top.
//
// The replay runs the real BlockSimulators (the batch decomposition must
// match what the engines execute), so it costs one sequential simulation.

#include <cstdint>
#include <vector>

#include "netlist/circuit.hpp"
#include "partition/partition.hpp"
#include "stim/stimulus.hpp"
#include "vp/cost.hpp"

namespace plsim {

struct CriticalPathResult {
  /// Length of the longest causal chain in best-case batch-cost units: a
  /// lower bound on every executor's makespan for this (c, stim, p).
  double cp_time = 0.0;
  /// Modelled sequential event-driven work (the speedup numerator used by
  /// the Figure 1 sweep).
  double seq_work = 0.0;
  /// seq_work / cp_time: the maximum achievable speedup.
  double bound_speedup = 0.0;
  /// Total batches in the causal graph.
  std::uint64_t batches = 0;
  /// Batches on the longest chain (the critical path's length in hops).
  std::uint64_t cp_batches = 0;
  /// Messages crossing blocks (the edges that could serialize execution).
  std::uint64_t messages = 0;
  /// Per-block earliest finish of the block's last batch on the idealized
  /// machine ([n_blocks]; 0 for blocks that never ran a batch).
  std::vector<double> lp_finish;
  /// cp_time - lp_finish[b]: how far block b sits off the critical path. An
  /// LP with large slack can be delayed (throttled, checkpointed sparsely)
  /// by up to its slack without moving the makespan bound.
  std::vector<double> lp_slack;
  /// Per-block total batch cost ([n_blocks]): the block's own modelled work,
  /// ignoring dependencies. On streaming stimulus every block runs batches
  /// right up to the horizon, so finish times (and with them lp_slack)
  /// converge even when the load is wildly unequal — the work vector is what
  /// still exposes that imbalance.
  std::vector<double> lp_work;
};

/// Per-LP speculation-control knobs derived from critical-path slack, in the
/// format EngineConfig/VpConfig::lp_optimism and VpConfig::lp_save_interval
/// consume.
struct CpGuidance {
  /// Optimism window per LP: 0 = unthrottled (on or near the critical path),
  /// `window` ticks for off-path LPs.
  std::vector<Tick> lp_optimism;
  /// Checkpoint interval per LP: 1 for on-path LPs, `save_interval` batches
  /// for off-path LPs (their deeper rollbacks are affordable — they have
  /// slack to burn — so the saved per-batch fixed cost is a net win).
  std::vector<std::uint32_t> lp_save_interval;
};

/// Classify each LP as off-path when it clears either margin:
///   - finish slack:  lp_slack / cp_time > slack_threshold, or
///   - work deficit:  lp_slack > 0 and lp_work < (1 - slack_threshold) *
///     max(lp_work) — the LP carries meaningfully less load than the
///     heaviest LP, which gates the makespan regardless of what the light
///     LPs speculate. Applied only when that heaviest LP carries at least
///     twice its fair share of the total work: on balanced partitions the
///     work ratios are noise and the margin stays off.
/// Off-path LPs get (window, save_interval); the rest run unthrottled with
/// per-batch checkpoints. On a balanced partition neither margin fires and
/// the guidance is a no-op, so the 0.25 threshold fig1 and c14 pass is safe
/// everywhere. Throws plsim::Error unless window >= 1, save_interval >= 1
/// and slack_threshold lies in [0, 1].
CpGuidance derive_cp_guidance(const CriticalPathResult& cp, Tick window,
                              std::uint32_t save_interval,
                              double slack_threshold);

/// Replay (c, stim, p) and return the critical-path bound. Batches are
/// costed at `cost_scale` times their modelled cost; pass `1.0 -
/// VpConfig::exec_jitter` so the bound under-approximates every possible
/// noise draw (the VP multiplies each batch by a factor >= 1 - exec_jitter),
/// or 1.0 for the noise-free bound.
CriticalPathResult analyze_critical_path(const Circuit& c,
                                         const Stimulus& stim,
                                         const Partition& p,
                                         const CostModel& cost,
                                         double cost_scale = 1.0);

}  // namespace plsim
