#include "core/block.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace plsim {

namespace {
std::shared_ptr<const SimPlan> make_single_plan(
    const Circuit& circuit, std::span<const GateId> owned,
    std::span<const GateId> exported) {
  std::vector<std::vector<GateId>> ob(1), ex(1);
  ob[0].assign(owned.begin(), owned.end());
  ex[0].assign(exported.begin(), exported.end());
  return SimPlan::build(circuit, ob, ex);
}
}  // namespace

BlockSimulator::BlockSimulator(std::shared_ptr<const SimPlan> plan,
                               std::uint32_t block, const BlockOptions& opts)
    : plan_(std::move(plan)),
      bp_(&plan_->block(block)),
      tables_(&eval_tables4()),
      opts_(opts),
      save_(opts.save) {
  PLSIM_CHECK(opts_.horizon > 0, "BlockSimulator: horizon must be positive");
  PLSIM_CHECK(opts_.clock_period >= 1, "BlockSimulator: bad clock period");
  PLSIM_CHECK(!opts_.track_lookahead || save_ == SaveMode::None,
              "BlockSimulator: track_lookahead requires SaveMode::None");
  init_from_plan();
}

Tick BlockSimulator::next_wire_time() {
  PLSIM_CHECK(opts_.track_lookahead,
              "next_wire_time: track_lookahead is off");
  // Lazy prune: batches are processed in increasing time order and gate
  // delays are >= 1, so every heap entry <= last_processed_ is stale.
  while (!wire_heap_.empty() && wire_heap_.top() <= last_processed_)
    wire_heap_.pop();
  return wire_heap_.empty() ? kTickInf : wire_heap_.top();
}

Tick BlockSimulator::next_clock_time() const {
  if (bp_->dffs.empty()) return kTickInf;
  const Tick base = last_processed_ - (last_processed_ % opts_.clock_period);
  const Tick next = tick_add(base, opts_.clock_period);
  return next >= opts_.horizon ? kTickInf : next;
}

BlockSimulator::BlockSimulator(const Circuit& circuit,
                               std::span<const GateId> owned,
                               std::span<const GateId> exported,
                               const BlockOptions& opts)
    : BlockSimulator(make_single_plan(circuit, owned, exported), 0, opts) {}

void BlockSimulator::init_from_plan() {
  values_.assign(bp_->init_values.begin(), bp_->init_values.end());
  projected_.assign(values_.begin(), values_.begin() + bp_->n_owned);
  eval_counts_.assign(bp_->n_owned, 0);
  change_counts_.assign(bp_->n_owned, 0);
  eval_mark_.assign(bp_->n_local, 0);

  if (!bp_->dffs.empty() && opts_.clock_period < opts_.horizon) {
    queue_.push(Event{opts_.clock_period, kNoGate, Logic4::X, EventKind::Clock,
                      seq_counter_++});
  }
}

std::uint32_t BlockSimulator::eval_count(GateId g) const {
  const std::uint32_t li = bp_->to_local[g];
  PLSIM_CHECK(li != BlockPlan::kNotLocal && li < bp_->n_owned,
              "eval_count: gate not owned by this block");
  return eval_counts_[li];
}

std::uint32_t BlockSimulator::change_count(GateId g) const {
  const std::uint32_t li = bp_->to_local[g];
  PLSIM_CHECK(li != BlockPlan::kNotLocal && li < bp_->n_owned,
              "change_count: gate not owned by this block");
  return change_counts_[li];
}

Logic4 BlockSimulator::value(GateId g) const {
  const std::uint32_t li = bp_->to_local[g];
  PLSIM_CHECK(li != BlockPlan::kNotLocal,
              "BlockSimulator::value: gate not in scope");
  return values_[li];
}

void BlockSimulator::harvest_values(std::vector<Logic4>& into) const {
  for (std::uint32_t i = 0; i < bp_->n_owned; ++i)
    into[bp_->to_global[i]] = values_[i];
}

void BlockSimulator::log_wire(std::uint32_t li, Logic4 old_value) {
  if (save_ == SaveMode::Incremental)
    undo_log_.push_back({UndoKind::WireValue, li, old_value, {}});
}

void BlockSimulator::log_projected(std::uint32_t li, Logic4 old_value) {
  if (save_ == SaveMode::Incremental)
    undo_log_.push_back({UndoKind::Projected, li, old_value, {}});
}

void BlockSimulator::schedule(Tick when, std::uint32_t li, Logic4 v,
                              EventKind kind) {
  if (when >= opts_.horizon) return;
  if (opts_.track_lookahead && kind == EventKind::Wire) wire_heap_.push(when);
  const Event e{when, li, v, kind, seq_counter_++};
  queue_.push(e);
  if (save_ == SaveMode::Incremental)
    undo_log_.push_back({UndoKind::QueuePush, 0, Logic4::X, e});
}

void BlockSimulator::take_full_snapshot(Tick t) {
  FullSnapshot snap;
  snap.time = t;
  snap.values = values_;
  snap.projected = projected_;
  queue_.collect(snap.queue);  // non-destructive, per-time FIFO order
  snap.seq_counter = seq_counter_;
  snap.trace_len = static_cast<std::uint32_t>(trace_.size());
  snap.wave = wave_;
  stats_.save_bytes += snap.values.size() * sizeof(Logic4) +
                       snap.projected.size() * sizeof(Logic4) +
                       snap.queue.size() * sizeof(Event) + sizeof(FullSnapshot);
  snapshots_.push_back(std::move(snap));
}

void BlockSimulator::apply_wire(std::uint32_t li, Logic4 v, Tick t) {
  log_wire(li, values_[li]);
  values_[li] = v;
  if (is_owned_local(li)) {
    wave_.add(bp_->to_global[li], t, static_cast<std::uint8_t>(v));
    if (opts_.record_trace)
      trace_.push_back({t, bp_->to_global[li], v});
  }
  // Precompiled mark set: owned combinational consumers only, in circuit
  // fanout order (DFFs sample on clock edges, never on fanin changes).
  for (std::uint32_t ls : bp_->fanouts(li)) {
    if (eval_mark_[ls] != eval_epoch_) {
      eval_mark_[ls] = eval_epoch_;
      eval_list_.push_back(ls);
    }
  }
}

BatchStats BlockSimulator::process_batch(Tick t,
                                         std::span<const Message> externals,
                                         std::vector<Message>& out) {
  PLSIM_ASSERT(!in_batch_);
  in_batch_ = true;
  PLSIM_ASSERT(t < opts_.horizon);
  PLSIM_ASSERT(t <= queue_.next_time());

  const std::uint32_t undo_first = static_cast<std::uint32_t>(undo_log_.size());
  const std::uint32_t trace_len = static_cast<std::uint32_t>(trace_.size());
  const WaveHash wave_before = wave_;
  if (save_ == SaveMode::Full) take_full_snapshot(t);

  BatchStats bs;
  const std::size_t out_before = out.size();

  ++eval_epoch_;
  eval_list_.clear();

  scratch_.clear();
  queue_.pop_all_at(t, scratch_);
  if (save_ == SaveMode::Incremental)
    for (const Event& e : scratch_)
      undo_log_.push_back({UndoKind::QueuePop, 0, Logic4::X, e});

  // Phase A: clock edge — sample every owned DFF with pre-t values.
  bool clock_edge = false;
  for (const Event& e : scratch_)
    if (e.kind == EventKind::Clock) clock_edge = true;
  if (clock_edge) {
    for (std::size_t i = 0; i < bp_->dffs.size(); ++i) {
      const std::uint32_t li = bp_->dffs[i];
      const Logic4 q = z_to_x(values_[bp_->dff_d[i]]);
      ++bs.dff_samples;
      ++eval_counts_[li];
      if (q != projected_[li]) {
        log_projected(li, projected_[li]);
        projected_[li] = q;
        const BlockPlan::Rec& rec = bp_->recs[li];
        const Tick when = tick_add(t, rec.delay);
        schedule(when, li, q, EventKind::Wire);
        ++change_counts_[li];
        if (rec.exported && when < opts_.horizon)
          out.push_back(Message{when, bp_->to_global[li], q});
      }
    }
    schedule(tick_add(t, opts_.clock_period), kNoGate, Logic4::X,
             EventKind::Clock);
  }

  // Phase B: apply all wire changes at t. Internal events already carry
  // local indices; external messages are translated on the boundary.
  for (const Event& e : scratch_) {
    if (e.kind != EventKind::Wire) continue;
    apply_wire(e.gate, e.value, t);
    ++bs.wire_events;
  }
  for (const Message& m : externals) {
    PLSIM_ASSERT(m.time == t);
    const std::uint32_t li = bp_->to_local[m.gate];
    PLSIM_ASSERT(li != BlockPlan::kNotLocal);
    apply_wire(li, m.value, t);
    ++bs.wire_events;
  }

  // Phase C: evaluate each affected owned gate once, gathering operands
  // straight from the partition-local value array through the compiled
  // fanin index list.
  for (const std::uint32_t li : eval_list_) {
    const BlockPlan::Rec& rec = bp_->recs[li];
    const Logic4 nv = plan_eval4_gather(
        *tables_, rec.op, values_.data(),
        bp_->fanin_locals.data() + rec.fanin_off, rec.fanin_count);
    ++bs.evaluations;
    ++eval_counts_[li];
    if (nv != projected_[li]) {
      log_projected(li, projected_[li]);
      projected_[li] = nv;
      const Tick when = tick_add(t, rec.delay);
      schedule(when, li, nv, EventKind::Wire);
      ++change_counts_[li];
      if (rec.exported && when < opts_.horizon)
        out.push_back(Message{when, bp_->to_global[li], nv});
    }
  }

  bs.messages_out = static_cast<std::uint32_t>(out.size() - out_before);
  if (save_ == SaveMode::Incremental) {
    bs.undo_entries = static_cast<std::uint32_t>(undo_log_.size() - undo_first);
    undo_batches_.push_back(
        {t, undo_first, bs.undo_entries, trace_len, wave_before});
    stats_.undo_entries += bs.undo_entries;
  } else if (save_ == SaveMode::Full) {
    bs.save_bytes = snapshots_.back().values.size() +
                    snapshots_.back().projected.size() +
                    snapshots_.back().queue.size() * sizeof(Event);
  }

  stats_.wire_events += bs.wire_events;
  stats_.evaluations += bs.evaluations;
  stats_.dff_samples += bs.dff_samples;
  stats_.messages += bs.messages_out;
  ++stats_.batches;

  last_processed_ = t;
  in_batch_ = false;
  return bs;
}

BlockSimulator::RollbackStats BlockSimulator::rollback_to(Tick t) {
  PLSIM_CHECK(save_ != SaveMode::None,
              "rollback_to: state saving is disabled");
  RollbackStats rs;
  if (save_ == SaveMode::Incremental) {
    while (!undo_batches_.empty() && undo_batches_.back().time >= t) {
      const BatchUndo& bu = undo_batches_.back();
      ++rs.batches;
      rs.entries += bu.count;
      for (std::uint32_t i = bu.first + bu.count; i-- > bu.first;) {
        const UndoEntry& u = undo_log_[i];
        switch (u.kind) {
          case UndoKind::WireValue: values_[u.a] = u.b; break;
          case UndoKind::Projected: projected_[u.a] = u.b; break;
          case UndoKind::QueuePush: {
            // The undo log is consistent: an event pushed by an undone batch
            // is either still pending or was re-inserted by a later (also
            // undone) batch's QueuePop entry — cancel must find it.
            const bool found = queue_.cancel(u.event);
            PLSIM_ASSERT(found);
            break;
          }
          case UndoKind::QueuePop: queue_.push(u.event); break;
        }
      }
      trace_.resize(bu.trace_len);
      wave_ = bu.wave_before;
      undo_log_.resize(bu.first);
      undo_batches_.pop_back();
      ++stats_.rolled_back_batches;
    }
  } else {
    // Full snapshots: restore the earliest snapshot with time >= t.
    std::size_t target = snapshots_.size();
    while (target > 0 && snapshots_[target - 1].time >= t) --target;
    if (target == snapshots_.size()) return rs;
    const FullSnapshot& snap = snapshots_[target];
    rs.batches = static_cast<std::uint32_t>(snapshots_.size() - target);
    rs.bytes = snap.values.size() + snap.projected.size() +
               snap.queue.size() * sizeof(Event);
    values_ = snap.values;
    projected_ = snap.projected;
    queue_.clear();
    for (const Event& e : snap.queue) queue_.push(e);
    seq_counter_ = snap.seq_counter;
    trace_.resize(snap.trace_len);
    wave_ = snap.wave;
    stats_.rolled_back_batches += snapshots_.size() - target;
    snapshots_.resize(target);
  }
  ++stats_.rollbacks;
  return rs;
}

std::size_t BlockSimulator::fossil_collect(Tick gvt) {
  if (save_ == SaveMode::Incremental) {
    std::size_t n = 0;
    while (n < undo_batches_.size() && undo_batches_[n].time < gvt) ++n;
    if (n == 0) return 0;
    const std::uint32_t cut = undo_batches_[n - 1].first +
                              undo_batches_[n - 1].count;
    undo_log_.erase(undo_log_.begin(), undo_log_.begin() + cut);
    undo_batches_.erase(undo_batches_.begin(), undo_batches_.begin() + n);
    for (auto& bu : undo_batches_) bu.first -= cut;
    return n;
  }
  if (save_ == SaveMode::Full) {
    std::size_t n = 0;
    while (n < snapshots_.size() && snapshots_[n].time < gvt) ++n;
    snapshots_.erase(snapshots_.begin(), snapshots_.begin() + n);
    return n;
  }
  return 0;
}

}  // namespace plsim
