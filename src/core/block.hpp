#pragma once
// BlockSimulator: event-driven gate-level evaluation of one block of a
// partitioned circuit — the paper's logical process (§II): it "manages local
// state information for its components, processes simulation events, and
// maintains a local simulated time reference".
//
// Every execution strategy in plsim (sequential golden, synchronous,
// conservative, optimistic, threaded or virtual-platform) drives the same
// BlockSimulator and differs only in *when* each block is allowed to advance
// and how messages travel. That single shared semantics is what makes
// bit-identical cross-engine equivalence testable.
//
// Since PR 4 the block runs on a compiled evaluation plan (sim/plan.hpp): a
// BlockPlan view with partition-local value arrays, fanins/fanouts resolved
// to local indices at plan-build time, and table-driven gate evaluation
// (sim/tables.hpp) instead of interpretive switch dispatch. Internal events
// carry *local* gate indices; global GateIds appear only on the
// message/trace/waveform boundary.
//
// Semantics per timestamp batch at time t:
//   phase A  on a clock edge, every owned DFF samples its D input using
//            pre-t values and schedules Q at t + delay(dff);
//   phase B  all wire changes at t (internal events and external messages)
//            are applied;
//   phase C  affected owned combinational gates are evaluated once each; an
//            output change is scheduled at t + delay(gate) unless it equals
//            the gate's already-projected output (selective trace), and is
//            emitted immediately as a Message when the gate is exported.
// Phase ordering makes the result independent of message arrival order.

#include <functional>
#include <memory>
#include <queue>
#include <span>
#include <vector>

#include "core/types.hpp"
#include "event/ladder_queue.hpp"
#include "logic/value.hpp"
#include "netlist/circuit.hpp"
#include "sim/plan.hpp"

namespace plsim {

struct BlockOptions {
  Tick clock_period = 10;
  Tick horizon = 0;        ///< simulate changes strictly before this time
  SaveMode save = SaveMode::None;
  bool record_trace = false;
  /// Maintain next_wire_time()/next_clock_time() for adaptive conservative
  /// lookahead. Requires SaveMode::None: rollback re-inserts events without
  /// updating the wire-time heap, so the two are mutually exclusive.
  bool track_lookahead = false;
};

/// Per-batch work counters, the currency of the virtual-platform cost model.
struct BatchStats {
  std::uint32_t wire_events = 0;
  std::uint32_t evaluations = 0;
  std::uint32_t dff_samples = 0;
  std::uint32_t messages_out = 0;
  std::uint64_t save_bytes = 0;
  std::uint32_t undo_entries = 0;
};

class BlockSimulator {
 public:
  /// Run block `block` of a shared compiled plan (the engines' path: one
  /// SimPlan per run, one BlockPlan view per block).
  BlockSimulator(std::shared_ptr<const SimPlan> plan, std::uint32_t block,
                 const BlockOptions& opts);

  /// Convenience: compile a dedicated single-block plan for `owned` gates.
  /// `exported` — owned gates whose changes must be emitted as messages.
  BlockSimulator(const Circuit& circuit, std::span<const GateId> owned,
                 std::span<const GateId> exported, const BlockOptions& opts);

  /// Earliest pending internal event time (kTickInf if none).
  Tick next_internal_time() { return queue_.next_time(); }

  /// Process the single timestamp batch at time t. Preconditions:
  /// t <= next_internal_time(), every external has time == t, and t is the
  /// earliest unprocessed time for this block. Emitted messages are appended
  /// to `out`.
  BatchStats process_batch(Tick t, std::span<const Message> externals,
                           std::vector<Message>& out);

  /// Work performed by one rollback, for cost accounting.
  struct RollbackStats {
    std::uint32_t batches = 0;   ///< batches undone
    std::uint64_t entries = 0;   ///< incremental log entries replayed
    std::uint64_t bytes = 0;     ///< bytes restored (full-copy mode)
  };

  /// Undo every batch processed at time >= t (requires SaveMode != None and
  /// no fossil collection past t).
  RollbackStats rollback_to(Tick t);

  /// Discard saved history for batches with time < gvt (they can no longer
  /// roll back); commits their trace records. Returns batches discarded.
  std::size_t fossil_collect(Tick gvt);

  /// Number of batches still held in the rollback history.
  std::size_t history_depth() const {
    return save_ == SaveMode::Full ? snapshots_.size() : undo_batches_.size();
  }

  /// Current value of a gate in this block's scope (owned or boundary).
  Logic4 value(GateId g) const;

  /// True if `g` is owned by or a boundary input of this block — i.e. the
  /// block must be told about changes of `g`.
  bool in_scope(GateId g) const {
    return bp_->to_local[g] != BlockPlan::kNotLocal;
  }

  /// Copy owned gates' current values into a circuit-wide array.
  void harvest_values(std::vector<Logic4>& into) const;

  const WaveHash& wave() const { return wave_; }
  const Trace& trace() const { return trace_; }
  const EngineStats& stats() const { return stats_; }

  /// Times gate `g` (owned) was functionally evaluated or sampled — the
  /// "evaluation frequency" that pre-simulation partitioning measures
  /// (paper §III). Counts work performed, including rolled-back work.
  std::uint32_t eval_count(GateId g) const;

  /// Committed output changes of gate `g` (owned) — each is one potential
  /// cross-block message should `g`'s net be cut, the per-net weight the
  /// activity-weighted partitioners minimize. Deliberately counts *all*
  /// changes, not just exported ones: a count of actual sends would be
  /// biased by whatever partition produced it (interior hot nets would
  /// look free to cut). Includes changes later cancelled by rollback.
  std::uint32_t change_count(GateId g) const;

  /// Smallest gate delay among exported gates: the lookahead a conservative
  /// engine may promise on this block's outgoing channels.
  std::uint32_t export_lookahead() const { return bp_->export_lookahead; }

  /// Earliest pending *wire* event time (kTickInf if none) — the clock-free
  /// internal frontier that anchors adaptive lookahead's wire_dist term.
  /// Requires BlockOptions::track_lookahead.
  Tick next_wire_time();

  /// Time of the next clock edge this block will process (kTickInf when the
  /// block has no DFFs or the next edge falls at/after the horizon). Derived
  /// from the last processed batch time: valid for conservative execution,
  /// which processes batches in increasing time order.
  Tick next_clock_time() const;

  std::span<const GateId> owned() const {
    return {bp_->to_global.data(), bp_->n_owned};
  }

 private:
  enum class UndoKind : std::uint8_t {
    WireValue,   // restore values_[a] = old value b
    Projected,   // restore projected_[a] = old value b
    QueuePush,   // erase event with seq u
    QueuePop,    // re-push stored event
  };
  struct UndoEntry {
    UndoKind kind;
    std::uint32_t a = 0;   // local gate index
    Logic4 b = Logic4::X;  // old value
    Event event;           // for QueuePop / QueuePush (seq)
  };
  struct BatchUndo {
    Tick time;
    std::uint32_t first;   // first index into undo_log_
    std::uint32_t count;
    std::uint32_t trace_len;
    WaveHash wave_before;
  };
  struct FullSnapshot {
    Tick time;
    std::vector<Logic4> values;
    std::vector<Logic4> projected;
    std::vector<Event> queue;
    std::uint64_t seq_counter;
    std::uint32_t trace_len;
    WaveHash wave;
  };

  bool is_owned_local(std::uint32_t li) const { return li < bp_->n_owned; }

  void init_from_plan();
  void schedule(Tick when, std::uint32_t li, Logic4 v, EventKind kind);
  void log_wire(std::uint32_t li, Logic4 old_value);
  void log_projected(std::uint32_t li, Logic4 old_value);
  void apply_wire(std::uint32_t li, Logic4 v, Tick t);
  void take_full_snapshot(Tick t);

  std::shared_ptr<const SimPlan> plan_;
  const BlockPlan* bp_;                      // this block's compiled view
  const EvalTables4* tables_;
  BlockOptions opts_;
  SaveMode save_;

  std::vector<Logic4> values_;               // by local index
  std::vector<Logic4> projected_;            // by local index (owned only)
  std::vector<std::uint32_t> eval_counts_;   // by local index (owned only)
  std::vector<std::uint32_t> change_counts_;    // by local index (owned only)
  LadderQueue queue_;                        // pooled, allocation-free hot path
  std::uint64_t seq_counter_ = 0;

  // Adaptive-lookahead tracking (track_lookahead only): min-heap of pending
  // wire-event times, lazily pruned against the last processed batch time.
  std::priority_queue<Tick, std::vector<Tick>, std::greater<>> wire_heap_;
  Tick last_processed_ = 0;

  std::vector<Event> scratch_;               // popped events of current batch

  // Scratch for phase C deduplication (local indices).
  std::vector<std::uint32_t> eval_mark_;     // by local index
  std::uint32_t eval_epoch_ = 0;
  std::vector<std::uint32_t> eval_list_;

  // Rollback history.
  std::vector<UndoEntry> undo_log_;
  std::vector<BatchUndo> undo_batches_;
  std::vector<FullSnapshot> snapshots_;
  bool in_batch_ = false;

  WaveHash wave_;
  Trace trace_;
  std::uint32_t committed_trace_len_ = 0;
  EngineStats stats_;
};

}  // namespace plsim
