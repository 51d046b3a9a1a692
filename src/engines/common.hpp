#pragma once
// Shared scaffolding for the threaded engines: block construction, stimulus
// feeds, staged-message heaps, result merging.

#include <memory>
#include <queue>
#include <vector>

#include "analyze/opt.hpp"
#include "core/block.hpp"
#include "core/types.hpp"
#include "engines/engine.hpp"
#include "engines/routing.hpp"
#include "partition/partition.hpp"
#include "stim/stimulus.hpp"
#include "trace/trace.hpp"

namespace plsim {

/// Min-heap of messages by (time, gate): the staging area for externally
/// received but not yet processed messages of one block.
struct MessageLater {
  bool operator()(const Message& a, const Message& b) const {
    if (a.time != b.time) return a.time > b.time;
    return a.gate > b.gate;
  }
};
using StagedMessages =
    std::priority_queue<Message, std::vector<Message>, MessageLater>;

struct BlockRig {
  /// The compiled evaluation plan every block runs on — built once per run,
  /// shared read-only across engine threads.
  std::shared_ptr<const SimPlan> plan;
  std::vector<std::unique_ptr<BlockSimulator>> blocks;
  /// Environment (stimulus) feed per block, sorted by time; consumed by index.
  std::vector<std::vector<Message>> env;
  Routing routing;
  /// Non-null when compile_rig ran the optimizer and it changed the netlist:
  /// the plan/blocks/routing above live in opt->circuit's GateId space and
  /// merge_results translates results back to the original circuit's ids.
  std::shared_ptr<const OptimizedCircuit> opt;
  /// Simulated horizon (BlockOptions::horizon), kept for translating folded
  /// constants whose onset falls outside the run.
  Tick horizon = 0;
};

/// The stimulus-independent (and therefore cacheable) half of a BlockRig:
/// everything a rig holds that depends only on the circuit, the
/// partition and the compile knobs. Immutable once built and freely shared
/// across concurrent runs — the unit the service's plan cache keeps hot.
struct CompiledRig {
  /// The compiled evaluation plan, shared read-only across engine threads.
  std::shared_ptr<const SimPlan> plan;
  Routing routing;
  /// Non-null when the optimizer ran and changed the netlist; plan/routing
  /// and `partition` then live in opt->circuit's GateId space.
  std::shared_ptr<const OptimizedCircuit> opt;
  /// Plan-space partition (remapped + fix_empty_blocks when optimized).
  Partition partition;
  /// The partition the caller compiled against, in the original circuit's
  /// GateId space — what must be passed back to run_* alongside this rig.
  Partition source;
};

/// Compile the reusable half: optimize (opt != None), remap the partition
/// onto the survivors (each inherits its original gate's block, then
/// fix_empty_blocks), build routing and the SimPlan. Optimization is skipped
/// when it changes nothing or would leave fewer gates than blocks. The
/// default PlanOpt::None keeps the netlist as given, which is what the VP
/// executors and critical-path analysis compile at. `clock_period` feeds
/// the optimizer's folding pass, so it is a compile-time input (part of the
/// cache key), not a per-run knob.
CompiledRig compile_rig(const Circuit& c, const Partition& p,
                        Tick clock_period, PlanOpt opt = PlanOpt::None,
                        std::span<const GateId> keep = {});

/// Instantiate the per-run half on a compiled rig: fresh BlockSimulators
/// and per-block environment feeds for this stimulus. Cheap relative to
/// compile_rig — this is all a warm-cache service job pays. The only
/// constructor of a BlockRig.
BlockRig instantiate_rig(const Circuit& c, const Stimulus& stim,
                         const CompiledRig& compiled,
                         const BlockOptions& base);

/// The rig path shared by the threaded engines: instantiate cfg.compiled
/// when the caller supplied one (checking it was compiled for `p`),
/// otherwise a fresh compile_rig at cfg.plan_opt.
BlockRig build_rig(const Circuit& c, const Stimulus& stim, const Partition& p,
                   const BlockOptions& base, const EngineConfig& cfg);

/// Merge per-block results into one RunResult (trace sorted by time/gate).
/// Results are reported in the *original* circuit's GateId space: when the
/// rig was optimized, final values of eliminated gates come from the
/// translation table (folded constants inside the horizon; X otherwise) and
/// trace records are mapped through new_to_old.
RunResult merge_results(const Circuit& c, const BlockRig& rig,
                        bool record_trace);

/// Append per-gate activity summary records (Kind::GateEval / Kind::NetMsg,
/// original-circuit gate ids) to an armed trace session — the data
/// activity_from_trace() feeds back into partitioning. Extras bypass the
/// ring buffers, so call once per run after every worker joined; a no-op
/// when the session is disarmed. Gates with zero activity are omitted.
void flush_block_activity(trace::Session& tsn, const BlockRig& rig);

}  // namespace plsim
