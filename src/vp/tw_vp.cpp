// Virtual-platform optimistic executor: a deterministic DES (in processor
// time) of Time Warp. Each virtual processor greedily executes the
// lowest-timestamp unprocessed batch among its LPs, paying state-saving
// costs per batch; stragglers and anti-messages trigger rollbacks whose
// restore work is charged from the real undo logs / snapshots. GVT rounds
// run at fixed virtual-time intervals; because the platform is simulated,
// GVT is computed exactly (LP minima plus in-flight message timestamps) and
// each round charges a reduction cost to every processor. The protocol
// itself is engines/optimistic.hpp; this file is its processors, its
// message transport and its cost charges.
//
// LP granularity (paper §III): with several LPs per processor
// (VpConfig::block_to_proc), co-located LPs exchange messages through shared
// memory at event-insertion cost and the processor always runs its
// lowest-timestamp LP — the classic smallest-timestamp-first scheduling.

#include <functional>
#include <optional>

#include "check/auditor.hpp"
#include "core/block.hpp"
#include "engines/common.hpp"
#include "engines/optimistic.hpp"
#include "trace/trace.hpp"
#include "util/rng.hpp"
#include "vp/optimistic_des.hpp"
#include "vp/vp.hpp"

namespace plsim {

VpResult run_timewarp_vp(const Circuit& c, const Stimulus& stim,
                         const Partition& p, const VpConfig& cfg) {
  BlockOptions bopts;
  bopts.clock_period = stim.period;
  bopts.horizon = stim.horizon();
  bopts.save = cfg.save == SaveMode::None ? SaveMode::Incremental : cfg.save;
  bopts.record_trace = false;

  const std::uint32_t n_blocks = p.n_blocks;
  check_lp_optimism(cfg.lp_optimism, cfg.optimism_window, n_blocks);
  PLSIM_CHECK(
      cfg.lp_save_interval.empty() || cfg.lp_save_interval.size() == n_blocks,
      "VpConfig: lp_save_interval size does not match the partition");
  for (const std::uint32_t k : cfg.lp_save_interval) {
    PLSIM_CHECK(k >= 1, "VpConfig: lp_save_interval entries must be >= 1 "
                        "(checkpoint intervals count batches)");
    // Sparse full-copy saving is unsound (restore jumps to the earliest
    // snapshot at/after the rollback target, so a skipped one would leave
    // later batches applied), so the model must not price it.
    PLSIM_CHECK(k == 1 || bopts.save == SaveMode::Incremental,
                "VpConfig: sparse checkpoint intervals require "
                "SaveMode::Incremental");
  }

  BlockRig rig =
      instantiate_rig(c, stim, compile_rig(c, p, stim.period), bopts);
  const Tick horizon = bopts.horizon;
  const CostModel& cost = cfg.cost;

  std::uint32_t n_procs = 0;
  const std::vector<std::uint32_t> proc_of =
      cfg.resolve_mapping(n_blocks, n_procs);
  std::vector<std::vector<std::uint32_t>> lps_of(n_procs);
  for (std::uint32_t b = 0; b < n_blocks; ++b) lps_of[proc_of[b]].push_back(b);

  std::optional<Auditor> aud;
  if (cfg.audit || Auditor::env_enabled())
    aud.emplace("timewarp-vp", n_blocks, horizon);

  std::vector<OptimisticLp> lps;
  lps.reserve(n_blocks);
  for (std::uint32_t b = 0; b < n_blocks; ++b) {
    lps.emplace_back(b, cfg.lazy_cancellation, aud ? &*aud : nullptr);
    lps.back().add_block(b, *rig.blocks[b], rig.env[b]);
  }
  // Batches processed per LP, rollbacks not rewound: LP b checkpoints on
  // every lp_save_interval[b]-th (on each when the vector is empty).
  std::vector<std::uint64_t> batches(n_blocks, 0);
  std::vector<double> clock(n_procs, 0.0);
  OptimisticDes des(n_procs, aud ? &*aud : nullptr);  // wakes processors
  Tick gvt = 0;

  VpResult r;
  r.procs = n_procs;
  std::vector<Message> externals, outputs;
  std::vector<Rng> jitter;
  for (std::uint32_t pr = 0; pr < n_procs; ++pr)
    jitter.emplace_back(cfg.jitter_seed ^ (0x9e37u + pr));

  trace::Session tsn("timewarp-vp", n_blocks,
                     trace::ClockKind::VirtualMilliUnits);

  auto schedule_wake = [&](std::uint32_t pr) { des.wake(clock[pr], pr); };

  // Forward declarations for the mutually recursive send/deliver pair
  // (a local delivery can roll the receiver back, which sends more
  // messages, possibly again locally).
  std::function<void(std::uint32_t, const OptMsg&)> send;
  std::function<void(std::uint32_t, const OptMsg&)> deliver;
  std::function<void(std::uint32_t, Tick)> rollback;

  send = [&](std::uint32_t b, const OptMsg& m) {
    const std::uint32_t pr = proc_of[b];
    for (std::uint32_t dst : rig.routing.dests[m.msg.gate]) {
      if (m.anti)
        ++r.stats.anti_messages;
      else
        ++r.stats.messages;
      if (aud) aud->on_send(b, m.msg.time);
      if (m.anti)
        PLSIM_TRACE_VMARK(tsn.lane(b), AntiMsg, clock[pr], m.msg.time, dst);
      else
        PLSIM_TRACE_VMARK(tsn.lane(b), Send, clock[pr], m.msg.time, dst);
      if (proc_of[dst] == pr) {
        // Shared-memory neighbour: enqueue directly.
        clock[pr] += cost.event;
        r.busy += cost.event;
        deliver(dst, m);
      } else {
        clock[pr] += cost.msg_send;
        r.busy += cost.msg_send;
        des.send(clock[pr] + cost.msg_latency, dst, m);
      }
    }
  };

  rollback = [&](std::uint32_t b, Tick t) {
    const std::uint32_t pr = proc_of[b];
    double w = cost.rollback_fixed;
    std::uint32_t undone = 0;
    lps[b].rewind(t, [&](const BlockSimulator::RollbackStats& rs) {
      w += rs.entries * cost.undo_replay;
      w += static_cast<double>(rs.bytes) * cost.save_per_byte;
      undone += rs.batches;
    });
    PLSIM_TRACE_VSPAN(tsn.lane(b), Rollback, clock[pr], clock[pr] + w, t,
                      undone);
    clock[pr] += w;
    r.busy += w;
    lps[b].retract(t, [&](const OptMsg& anti) { send(b, anti); });
    r.stats.rolled_back_batches += undone;
  };

  deliver = [&](std::uint32_t b, const OptMsg& m) {
    if (aud) aud->on_deliver(b, m.msg.time);
    PLSIM_TRACE_VMARK(tsn.lane(b), Recv, clock[proc_of[b]], m.msg.time, 1);
    lps[b].receive(m, [&](Tick t) { rollback(b, t); });
    schedule_wake(proc_of[b]);
  };

  // Process at most one batch on processor pr (its lowest-timestamp LP);
  // reschedules itself while work remains.
  auto work = [&](std::uint32_t pr) {
    // Flush lazy cancellations for every local LP first: anything below an
    // LP's next batch time will never be regenerated.
    for (std::uint32_t b : lps_of[pr])
      lps[b].flush_lazy(lps[b].next_batch(horizon),
                        [&](const OptMsg& anti) { send(b, anti); });

    // Lowest-timestamp-first LP scheduling among the unthrottled. An LP
    // whose next batch is beyond its optimism window past GVT is skipped —
    // with per-LP windows a throttled low-timestamp LP lets a higher
    // (unthrottled) neighbour on the same processor run instead.
    std::uint32_t best = kNoGate;
    Tick best_nt = horizon;
    bool throttled_seen = false;
    for (std::uint32_t b : lps_of[pr]) {
      const Tick nt = lps[b].next_batch(horizon);
      if (nt >= horizon) continue;
      if (beyond_window(nt, gvt, optimism_window_of(cfg.lp_optimism,
                                                    cfg.optimism_window, b))) {
        throttled_seen = true;
        continue;
      }
      if (nt < best_nt) {
        best_nt = nt;
        best = b;
      }
    }
    if (best == kNoGate) {
      if (throttled_seen) {
        // All runnable LPs are throttled: the processor pays a poll and
        // sleeps until the next GVT round re-wakes it (GVT advancing is the
        // only thing that can unthrottle an LP here).
        clock[pr] += cost.throttle_poll;
        r.busy += cost.throttle_poll;
      }
      return;  // idle (or throttled until the next GVT round)
    }

    OptimisticLp& lp = lps[best];
    const Tick nt = best_nt;
    externals.clear();
    lp.gather(0, nt, externals);
    outputs.clear();
    if (aud) aud->on_batch(best, nt);
    const BatchStats bs = lp.block(0).process_batch(nt, externals, outputs);
    lp.processed(nt);
    const std::uint32_t every =
        cfg.lp_save_interval.empty() ? 1 : cfg.lp_save_interval[best];
    const bool checkpoint = batches[best]++ % every == 0;
    const double w =
        batch_cost(cost, bs, bopts.save, checkpoint) * cfg.noise(jitter[pr]);
    PLSIM_TRACE_VSPAN(tsn.lane(best), Eval, clock[pr], clock[pr] + w, nt,
                      outputs.size());
    clock[pr] += w;
    r.busy += w;

    for (const Message& m : outputs) {
      if (rig.routing.dests[m.gate].empty()) continue;
      if (!lp.reuse(nt, m)) send(best, lp.log_send(nt, m));
    }
    schedule_wake(pr);
  };

  for (std::uint32_t pr = 0; pr < n_procs; ++pr) schedule_wake(pr);
  des.gvt_round(cfg.gvt_period);

  while (!des.empty() && gvt < horizon) {
    const OptimisticDes::Ev ev = des.pop();
    switch (ev.kind) {
      case OptimisticDes::Kind::Wake:
        work(ev.target);
        break;
      case OptimisticDes::Kind::Arrival: {
        const std::uint32_t pr = proc_of[ev.target];
        clock[pr] = std::max(clock[pr], ev.at) + cost.msg_recv;
        r.busy += cost.msg_recv;
        deliver(ev.target, ev.msg);
        break;
      }
      case OptimisticDes::Kind::Gvt: {
        Tick new_gvt = des.inflight_min(horizon);
        for (std::uint32_t b = 0; b < n_blocks; ++b)
          new_gvt = std::min(new_gvt, lps[b].gvt_bound(horizon));
        gvt = std::max(gvt, new_gvt);
        if (aud) aud->on_gvt(gvt);
        ++r.stats.gvt_rounds;
        PLSIM_TRACE_VMARK(tsn.lane(0), GvtRound, ev.at, gvt,
                          r.stats.gvt_rounds);
        for (std::uint32_t pr = 0; pr < n_procs; ++pr) {
          double w = cost.barrier_cost(n_procs) + cost.gvt_per_proc;
          for (std::uint32_t b : lps_of[pr])
            lps[b].collect_fossils(gvt, [&](std::size_t dropped) {
              w += dropped * cost.fossil_per_batch;
            });
          clock[pr] = std::max(clock[pr], ev.at) + w;
          r.busy += w;
        }
        for (std::uint32_t pr = 0; pr < n_procs; ++pr) schedule_wake(pr);
        if (gvt < horizon)
          des.gvt_round(ev.at + cfg.gvt_period);
        break;
      }
    }
  }

  for (std::uint32_t pr = 0; pr < n_procs; ++pr)
    r.makespan = std::max(r.makespan, clock[pr]);

  des.settle(lps);
  for (const OptimisticLp& lp : lps) r.stats.rollbacks += lp.rollbacks();

  flush_block_activity(tsn, rig);

  collect_rig_results(c, rig, r);
  if (aud) aud->finalize();
  return r;
}

}  // namespace plsim
