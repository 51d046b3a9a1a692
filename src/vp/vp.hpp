#pragma once
// Virtual multiprocessor platform (DESIGN.md, substitution 1).
//
// Each executor runs the *real* simulation semantics — the same
// BlockSimulators as the threaded engines, so final values and waveform
// digests still match the golden simulator — while a deterministic
// discrete-event model of P processors charges explicit costs for every
// operation. Speedups reported by the benchmark harness are ratios of
// modelled times, independent of the host machine (this build host has one
// core). The methodology follows the performance-prediction line of work of
// the paper's own group (ref [23]).

#include "core/block.hpp"
#include "core/types.hpp"
#include "netlist/circuit.hpp"
#include "partition/partition.hpp"
#include "stim/stimulus.hpp"
#include "vp/cost.hpp"

namespace plsim {

class MetricsRun;  // util/metrics.hpp
struct BlockRig;   // engines/common.hpp

struct VpConfig {
  CostModel cost;

  /// Run the invariant auditor (src/check) alongside the executor. The VP
  /// executors are single-threaded, so the auditor additionally tracks the
  /// exact in-flight message multiset (GVT may never overtake an undelivered
  /// message). Also forced on by the PLSIM_AUDIT environment variable.
  /// Violations throw plsim::AuditViolation at the end of the run.
  bool audit = false;

  /// LP granularity (paper §III): blocks (LPs) may be many-to-one mapped
  /// onto processors — "only one LP per processor can result in
  /// unnecessarily blocked computation or high rollback overheads".
  /// Empty = one block per processor (identity mapping).
  std::vector<std::uint32_t> block_to_proc;

  /// Resolve the mapping for a partition with `n_blocks` blocks; returns the
  /// processor of each block and sets `n_procs`.
  std::vector<std::uint32_t> resolve_mapping(std::uint32_t n_blocks,
                                             std::uint32_t& n_procs) const;

  /// Per-batch execution-time noise (fraction, uniform in ±exec_jitter),
  /// modelling OS/memory interference on the real machines. Synchronous
  /// executions absorb noise linearly at the next barrier; optimistic
  /// executions can amplify it into rollback cascades — the instability the
  /// paper attributes to Time Warp (§V, ref [18]). Deterministic per seed.
  double exec_jitter = 0.10;
  /// Rare long stalls (page fault / preemption, ref [18]): with probability
  /// burst_prob a batch costs an extra burst_factor batch-times. A stalled
  /// synchronous step stretches once; a stalled optimistic LP resurfaces
  /// behind its neighbours and triggers a rollback cascade.
  double burst_prob = 0.001;
  double burst_factor = 25.0;
  std::uint64_t jitter_seed = 1;

  /// Multiplier applied to one batch's execution cost.
  template <typename RngT>
  double noise(RngT& rng) const {
    double f = 1.0 + exec_jitter * (2.0 * rng.real() - 1.0);
    if (burst_prob > 0 && rng.chance(burst_prob)) f += burst_factor;
    return f;
  }

  // --- Synchronous knobs ---
  /// Bounded-window ("time bucket") synchronous execution (paper §VI,
  /// Steinman's SPEEDES / Noble's synchronous extensions): one barrier per
  /// lookahead window instead of per distinct event time. The window equals
  /// the circuit's global export lookahead, so results stay exact.
  bool sync_time_buckets = false;

  /// Dynamic load balancing (paper §VI): every remap_interval windows,
  /// re-assign blocks to processors by measured recent load (requires a
  /// many-blocks-per-processor mapping to have any freedom). Migration pays
  /// for moving block state through the memory system.
  bool sync_dynamic_remap = false;
  std::uint32_t remap_interval = 50;

  // --- Conservative knobs ---
  /// Deadlock handling: null messages (true) or deadlock detection and
  /// recovery via a circulating marker (false) — the two classic options of
  /// paper §IV.
  bool cons_null_messages = true;
  /// Charge null messages per cut *wire* (signal crossing the partition), as
  /// the surveyed CMB implementations did, rather than one null per
  /// block-pair channel (the aggregated "modern" variant). Safe times are
  /// identical either way; only the null traffic volume differs.
  bool cons_wire_channels = true;
  /// Adaptive per-channel lookahead (engines/lookahead.hpp): promises carry
  /// the per-destination shortest residual delay chain instead of one global
  /// export lookahead, shrinking modelled blocked time. Results stay exact —
  /// only the promise (null-message) schedule changes.
  bool cons_adaptive_lookahead = false;

  // --- Hybrid (hierarchical) knobs ---
  /// Blocks per cluster for run_hybrid_vp: each cluster is an SMP node whose
  /// blocks run synchronously in lockstep; clusters synchronize with each
  /// other via Time Warp (paper §VI: "hierarchical synchronization ...
  /// especially attractive for networks of workstations where the individual
  /// workstations are bus-based multiprocessors").
  std::uint32_t hybrid_cluster_size = 4;
  /// Inter-cluster (network) latency as a multiple of the base msg_latency.
  double inter_latency_factor = 4.0;

  // --- Time Warp knobs ---
  SaveMode save = SaveMode::Incremental;
  bool lazy_cancellation = false;
  Tick optimism_window = 0;      ///< 0 = unbounded optimism
  /// Per-LP optimism windows (critical-path throttling): empty = use the
  /// uniform optimism_window; otherwise one window per block, 0 = unbounded.
  /// Off-critical-path LPs get small windows, on-path LPs run free.
  std::vector<Tick> lp_optimism;
  /// Per-LP sparse checkpointing in the *cost model*: LP b pays the fixed
  /// state-saving charge (save_fixed) only on every lp_save_interval[b]-th
  /// batch; the real undo log stays dense, so rollback remains exact. Empty
  /// = every LP saves every batch. Entries are >= 1, and > 1 only under
  /// incremental saving. Throttled (high-slack) LPs rarely roll back, so
  /// they can afford longer intervals; derive_cp_guidance computes them.
  std::vector<std::uint32_t> lp_save_interval;
  double gvt_period = 1500.0;    ///< virtual time units between GVT rounds
};

struct VpResult {
  double makespan = 0.0;        ///< modelled parallel completion time
  double busy = 0.0;            ///< summed busy time over all processors
  std::uint32_t procs = 0;
  EngineStats stats;
  std::vector<Logic4> final_values;
  std::uint64_t wave_digest = 0;

  double utilization() const {
    return makespan > 0 ? busy / (makespan * procs) : 0.0;
  }
};

/// Cost of the sequential event-driven reference on the same cost model —
/// the numerator of every modelled speedup.
SequentialCost sequential_cost(const Circuit& c, const Stimulus& stim,
                               const CostModel& cost);

/// Cost of a sequential *oblivious* (non-event-driven) run: every gate
/// evaluated every cycle. Used by the C3 crossover experiment.
double oblivious_sequential_cost(const Circuit& c, const Stimulus& stim,
                                 const CostModel& cost);

/// Synchronous global-clock execution on P = partition.n_blocks processors.
VpResult run_sync_vp(const Circuit& c, const Stimulus& stim,
                     const Partition& p, const VpConfig& cfg);

/// Conservative (CMB null-message) execution.
VpResult run_conservative_vp(const Circuit& c, const Stimulus& stim,
                             const Partition& p, const VpConfig& cfg);

/// Optimistic (Time Warp) execution.
VpResult run_timewarp_vp(const Circuit& c, const Stimulus& stim,
                         const Partition& p, const VpConfig& cfg);

/// Hybrid hierarchical execution (paper §VI): blocks are grouped into
/// clusters of hybrid_cluster_size; each cluster steps synchronously on its
/// own processors while clusters interact optimistically (cluster-granular
/// rollback, aggressive cancellation). One processor per block.
VpResult run_hybrid_vp(const Circuit& c, const Stimulus& stim,
                       const Partition& p, const VpConfig& cfg);

/// Parallel oblivious execution (zero-delay cycle semantics; its baseline is
/// oblivious_sequential_cost, not sequential_cost).
VpResult run_oblivious_vp(const Circuit& c, const Stimulus& stim,
                          const Partition& p, const VpConfig& cfg);

/// Shared per-batch cost rule. `checkpoint` = false skips an incremental
/// batch's fixed state-saving charge (VpConfig::lp_save_interval).
double batch_cost(const CostModel& cost, const BatchStats& bs, SaveMode save,
                  bool checkpoint = true);

/// Shared result tail of the rig-based executors: merge the rig's blocks and
/// copy final values, waveform digest and the block-level counters (wire
/// events, evaluations, DFF samples, batches, save bytes, undo entries) into
/// `r`. Executor-level counters already in `r` are left alone.
void collect_rig_results(const Circuit& c, const BlockRig& rig, VpResult& r);

/// Serialize a VP result into the benchmark metrics layer: makespan, busy
/// time, processor count, utilization and every EngineStats counter — all
/// deterministic, so all regression-comparable (src/vp/metrics_io.cpp).
void record_result(MetricsRun& run, const VpResult& r);

/// Same, plus the modelled speedup against a sequential reference work.
void record_result(MetricsRun& run, const VpResult& r, double seq_work);

/// Round-robin mapping of `n_blocks` LPs onto `n_procs` processors — the
/// standard way to run a finer-grain partition on fewer processors.
std::vector<std::uint32_t> round_robin_mapping(std::uint32_t n_blocks,
                                               std::uint32_t n_procs);

}  // namespace plsim
