#pragma once
// Threaded parallel engines — one per time-synchronization family of paper
// §IV. Each runs the partition's blocks as logical processes on real threads
// (one thread per block) and must reproduce the golden simulator's results
// bit-exactly. Planning happens before the call: activity-weighted
// repartitioning (partition/activity.hpp), block scheduling
// (partition/schedule.hpp) and critical-path guidance
// (trace/critical_path.hpp) each return a partition or a per-LP vector the
// caller passes in. An engine runs once on the partition and config it is
// given.

#include <memory>
#include <string>
#include <vector>

#include "analyze/opt.hpp"
#include "core/types.hpp"
#include "netlist/circuit.hpp"
#include "partition/partition.hpp"
#include "stim/stimulus.hpp"

namespace plsim {

struct CompiledRig;  // engines/common.hpp

struct EngineConfig {
  bool record_trace = false;

  /// Netlist optimization level applied at plan-compile time (src/analyze):
  /// constant folding, structural hashing, dead-gate elimination. Safe (the
  /// default) preserves the waveform of every surviving gate bit-exactly;
  /// results for eliminated gates are reconstructed from the translation
  /// table (folded constants) or read X (dead logic). Pass None to simulate
  /// the netlist exactly as written — the golden/interpretive oracles and
  /// the legacy paper experiments run at None.
  PlanOpt plan_opt = PlanOpt::Safe;
  /// Extra gates that must survive optimization with waveforms intact
  /// (watched/VCD signals). Primary inputs/outputs and DFFs always survive.
  std::vector<GateId> keep;

  /// Precompiled evaluation rig (engines/common.hpp) built by compile_rig
  /// for exactly this circuit/partition/plan_opt/keep/clock_period. When
  /// set, the engine skips optimization, routing and plan compilation and
  /// instantiates its blocks straight from it — the hot-cache path of the
  /// simulation service (src/server). plan_opt and keep are then ignored
  /// (they were baked in at compile time), and the partition passed to the
  /// engine must be the rig's source partition. A planned partition
  /// (partition_with_activity, schedule_partition) is compiled like any
  /// other: plan first, then compile_rig on the result.
  std::shared_ptr<const CompiledRig> compiled;

  /// Run the invariant auditor (src/check) alongside the engine: causality,
  /// GVT monotonicity/safety, CMB lookahead, message conservation, trace
  /// order. Also forced on for every run by the PLSIM_AUDIT env variable.
  /// Violations throw plsim::AuditViolation after the threads join.
  bool audit = false;

  // --- Conservative knobs ---
  /// Adaptive lookahead: promise each channel max(classic, per-channel
  /// structural distance bound) — see engines/lookahead.hpp. Bit-exact;
  /// cuts null messages and blocked waits when exported gates sit deep in
  /// the source block or the near-term frontier is only a clock edge.
  bool adaptive_lookahead = false;

  /// Ignored; goes once bench/suite stops assigning it.
  bool packed_plane = false;

  // --- Synchronous knobs ---
  /// Bounded-window steps: process a full lookahead window of event times
  /// per barrier pair instead of a single time (paper §VI, Steinman/Noble).
  /// Exact for any circuit; pays off when delays are heterogeneous.
  bool time_buckets = false;

  // --- Time Warp knobs ---
  SaveMode save = SaveMode::Incremental;
  bool lazy_cancellation = false;  ///< Gafni's lazy cancellation (§IV)
  Tick optimism_window = 0;        ///< LVT may lead GVT by at most this (0 = unbounded)
  /// Per-LP optimism windows overriding optimism_window ([n_blocks]; entry 0
  /// = that LP is unbounded). Mutually exclusive with a global window.
  /// derive_cp_guidance (trace/critical_path.hpp) computes one from a
  /// critical-path analysis.
  std::vector<Tick> lp_optimism;
};

/// Reject contradictory knob combinations with a structured plsim::Error
/// (message prefixed "EngineConfig[<engine>]") instead of letting them
/// silently misbehave. Called by every threaded engine on entry; `n_blocks`
/// checks per-LP vector sizes.
void validate_engine_config(const EngineConfig& cfg, std::uint32_t n_blocks,
                            const char* engine);

/// Synchronous (global-clock) engine: barrier per distinct event time.
RunResult run_synchronous(const Circuit& c, const Stimulus& stim,
                          const Partition& p, const EngineConfig& cfg = {});

/// Conservative asynchronous engine (Chandy-Misra-Bryant null messages).
RunResult run_conservative(const Circuit& c, const Stimulus& stim,
                           const Partition& p, const EngineConfig& cfg = {});

/// Optimistic asynchronous engine (Jefferson's Time Warp).
RunResult run_timewarp(const Circuit& c, const Stimulus& stim,
                       const Partition& p, const EngineConfig& cfg = {});

/// Parallel oblivious engine: levelized sweep, parallel within each level.
RunResult run_oblivious_parallel(const Circuit& c, const Stimulus& stim,
                                 const Partition& p,
                                 const EngineConfig& cfg = {});

/// Named engine registry for sweep tests/benchmarks.
struct NamedEngine {
  std::string name;
  RunResult (*run)(const Circuit&, const Stimulus&, const Partition&,
                   const EngineConfig&);
};
std::vector<NamedEngine> standard_engines();

}  // namespace plsim
