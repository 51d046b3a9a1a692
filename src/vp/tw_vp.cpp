// Virtual-platform optimistic executor: a deterministic DES (in processor
// time) of Time Warp. Each virtual processor greedily executes the
// lowest-timestamp unprocessed batch among its LPs, paying state-saving
// costs per batch; stragglers and anti-messages trigger rollbacks whose
// restore work is charged from the real undo logs / snapshots. GVT rounds
// run at fixed virtual-time intervals; because the platform is simulated,
// GVT is computed exactly (LP minima plus in-flight message timestamps) and
// each round charges a reduction cost to every processor.
//
// LP granularity (paper §III): with several LPs per processor
// (VpConfig::block_to_proc), co-located LPs exchange messages through shared
// memory at event-insertion cost and the processor always runs its
// lowest-timestamp LP — the classic smallest-timestamp-first scheduling.

#include <functional>
#include <map>
#include <optional>
#include <queue>
#include <set>

#include "check/auditor.hpp"
#include "core/block.hpp"
#include "engines/common.hpp"
#include "trace/trace.hpp"
#include "util/rng.hpp"
#include "vp/vp.hpp"

namespace plsim {
namespace {

struct TwVpMsg {
  Message msg;
  std::uint64_t uid = 0;
  bool anti = false;
};

enum class EvKind : std::uint8_t { Arrival, Wake, Gvt };

struct Ev {
  double at;
  EvKind kind;
  std::uint32_t target = 0;  // LP for Arrival, processor for Wake
  TwVpMsg msg;
  std::uint64_t seq;
};
struct EvLater {
  bool operator()(const Ev& a, const Ev& b) const {
    if (a.at != b.at) return a.at > b.at;
    return a.seq > b.seq;
  }
};

}  // namespace

VpResult run_timewarp_vp(const Circuit& c, const Stimulus& stim,
                         const Partition& p, const VpConfig& cfg) {
  BlockOptions bopts;
  bopts.clock_period = stim.period;
  bopts.horizon = stim.horizon();
  bopts.save = cfg.save == SaveMode::None ? SaveMode::Incremental : cfg.save;
  bopts.record_trace = false;

  const std::uint32_t n_blocks = p.n_blocks;
  PLSIM_CHECK(cfg.lp_optimism.empty() || cfg.lp_optimism.size() == n_blocks,
              "VpConfig: lp_optimism size does not match the partition");
  PLSIM_CHECK(cfg.lp_optimism.empty() || cfg.optimism_window == 0,
              "VpConfig: lp_optimism and a global optimism_window are "
              "mutually exclusive (per-LP entry 0 already means unbounded)");
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

  // Per-LP optimism window; 0 = unbounded.
  auto lp_window = [&cfg](std::uint32_t b) -> Tick {
    return cfg.lp_optimism.empty() ? cfg.optimism_window : cfg.lp_optimism[b];
  };
  // Per-LP checkpoint interval in batches; 1 = save every batch.
  auto lp_save_interval = [&cfg](std::uint32_t b) -> std::uint32_t {
    return cfg.lp_save_interval.empty() ? 1 : cfg.lp_save_interval[b];
  };

  std::uint32_t n_procs = 0;
  const std::vector<std::uint32_t> proc_of =
      cfg.resolve_mapping(n_blocks, n_procs);
  std::vector<std::vector<std::uint32_t>> lps_of(n_procs);
  for (std::uint32_t b = 0; b < n_blocks; ++b) lps_of[proc_of[b]].push_back(b);

  struct Lp {
    std::multimap<Tick, TwVpMsg> input_queue;
    std::multimap<Tick, TwVpMsg> sent_log;
    std::multimap<Tick, TwVpMsg> lazy_pending;
    Tick processed_bound = 0;
    std::size_t env_pos = 0;
    std::uint64_t uid_counter = 0;
    std::uint64_t fossil_dropped = 0;  ///< input entries erased below GVT
    std::uint64_t batches = 0;  ///< batches processed, rollbacks not rewound
  };
  std::vector<Lp> lps(n_blocks);
  std::vector<double> clock(n_procs, 0.0);
  std::vector<std::uint8_t> wake_scheduled(n_procs, 0);

  std::priority_queue<Ev, std::vector<Ev>, EvLater> des;
  std::uint64_t des_seq = 0;
  std::multiset<Tick> inflight;  // timestamps of undelivered remote messages
  Tick gvt = 0;

  VpResult r;
  r.procs = n_procs;
  std::vector<Message> externals, outputs;
  std::vector<Rng> jitter;
  for (std::uint32_t pr = 0; pr < n_procs; ++pr)
    jitter.emplace_back(cfg.jitter_seed ^ (0x9e37u + pr));

  std::optional<Auditor> aud;
  if (cfg.audit || Auditor::env_enabled())
    aud.emplace("timewarp-vp", n_blocks, horizon);

  trace::Session tsn("timewarp-vp", n_blocks,
                     trace::ClockKind::VirtualMilliUnits);

  auto local_min = [&](std::uint32_t b) -> Tick {
    const Lp& lp = lps[b];
    Tick t = rig.blocks[b]->next_internal_time();
    const auto it = lp.input_queue.lower_bound(lp.processed_bound);
    if (it != lp.input_queue.end()) t = std::min(t, it->first);
    if (lp.env_pos < rig.env[b].size())
      t = std::min(t, rig.env[b][lp.env_pos].time);
    return std::min(t, horizon);
  };

  // GVT lower bound for one LP. Unlike local_min (batch scheduling), this
  // includes pending lazy cancellations: a pending entry at time bt can
  // still turn into an anti-message at bt, rolling its receivers back to
  // bt — GVT must never overtake it.
  auto gvt_min = [&](std::uint32_t b) -> Tick {
    Tick t = local_min(b);
    if (!lps[b].lazy_pending.empty())
      t = std::min(t, lps[b].lazy_pending.begin()->first);
    return t;
  };

  auto schedule_wake = [&](std::uint32_t pr) {
    if (wake_scheduled[pr]) return;
    wake_scheduled[pr] = 1;
    des.push(Ev{clock[pr], EvKind::Wake, pr, {}, des_seq++});
  };

  // Forward declarations for the mutually recursive send/deliver pair
  // (a local delivery can roll the receiver back, which sends more
  // messages, possibly again locally).
  std::function<void(std::uint32_t, const TwVpMsg&)> send;
  std::function<void(std::uint32_t, const TwVpMsg&)> deliver;
  std::function<void(std::uint32_t, Tick)> rollback;

  send = [&](std::uint32_t b, const TwVpMsg& m) {
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
        inflight.insert(m.msg.time);
        if (aud) aud->on_inflight_add(m.msg.time);
        des.push(Ev{clock[pr] + cost.msg_latency, EvKind::Arrival, dst, m,
                    des_seq++});
      }
    }
  };

  rollback = [&](std::uint32_t b, Tick t) {
    Lp& lp = lps[b];
    if (lp.processed_bound <= t) return;
    if (aud) aud->on_rollback(b, t);
    const std::uint32_t pr = proc_of[b];
    const auto rs = rig.blocks[b]->rollback_to(t);
    const double w = cost.rollback_fixed + rs.entries * cost.undo_replay +
                     static_cast<double>(rs.bytes) * cost.save_per_byte;
    PLSIM_TRACE_VSPAN(tsn.lane(b), Rollback, clock[pr], clock[pr] + w, t,
                      rs.batches);
    clock[pr] += w;
    r.busy += w;
    lp.processed_bound = t;
    while (lp.env_pos > 0 && rig.env[b][lp.env_pos - 1].time >= t)
      --lp.env_pos;
    // Detach the affected log first: cancellation sends may recurse into
    // this LP again.
    std::vector<std::pair<Tick, TwVpMsg>> undone(
        lp.sent_log.lower_bound(t), lp.sent_log.end());
    lp.sent_log.erase(lp.sent_log.lower_bound(t), lp.sent_log.end());
    for (auto& [bt, m] : undone) {
      if (cfg.lazy_cancellation) {
        lp.lazy_pending.emplace(bt, m);
      } else {
        TwVpMsg anti = m;
        anti.anti = true;
        send(b, anti);
      }
    }
    ++r.stats.rollbacks;
    r.stats.rolled_back_batches += rs.batches;
  };

  deliver = [&](std::uint32_t b, const TwVpMsg& m) {
    Lp& lp = lps[b];
    if (aud) aud->on_deliver(b, m.msg.time);
    PLSIM_TRACE_VMARK(tsn.lane(b), Recv, clock[proc_of[b]], m.msg.time, 1);
    if (m.msg.time < lp.processed_bound) rollback(b, m.msg.time);
    if (!m.anti) {
      lp.input_queue.emplace(m.msg.time, m);
      if (aud) aud->on_enqueue(b);
    } else {
      auto [lo, hi] = lp.input_queue.equal_range(m.msg.time);
      bool found = false;
      for (auto it = lo; it != hi; ++it) {
        if (it->second.uid == m.uid && !it->second.anti) {
          lp.input_queue.erase(it);
          found = true;
          break;
        }
      }
      PLSIM_ASSERT(found);
      if (aud) aud->on_cancel(b);
    }
    schedule_wake(proc_of[b]);
  };

  // Process at most one batch on processor pr (its lowest-timestamp LP);
  // reschedules itself while work remains.
  auto work = [&](std::uint32_t pr) {
    // Flush lazy cancellations for every local LP first: anything below an
    // LP's next batch time will never be regenerated.
    for (std::uint32_t b : lps_of[pr]) {
      Lp& lp = lps[b];
      const Tick nt = local_min(b);
      for (auto it = lp.lazy_pending.begin();
           it != lp.lazy_pending.end() && it->first < nt;) {
        TwVpMsg anti = it->second;
        anti.anti = true;
        it = lp.lazy_pending.erase(it);
        send(b, anti);
      }
    }

    // Lowest-timestamp-first LP scheduling among the unthrottled. An LP
    // whose next batch is beyond its optimism window past GVT is skipped —
    // with per-LP windows a throttled low-timestamp LP lets a higher
    // (unthrottled) neighbour on the same processor run instead.
    std::uint32_t best = kNoGate;
    Tick best_nt = horizon;
    bool throttled_seen = false;
    for (std::uint32_t b : lps_of[pr]) {
      const Tick nt = local_min(b);
      if (nt >= horizon) continue;
      const Tick window = lp_window(b);
      if (window > 0 && nt > gvt && nt - gvt > window) {
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

    Lp& lp = lps[best];
    const Tick nt = best_nt;
    externals.clear();
    auto& env = rig.env[best];
    while (lp.env_pos < env.size() && env[lp.env_pos].time == nt)
      externals.push_back(env[lp.env_pos++]);
    for (auto [lo, hi] = lp.input_queue.equal_range(nt); lo != hi; ++lo)
      externals.push_back(lo->second.msg);

    outputs.clear();
    if (aud) aud->on_batch(best, nt);
    const BatchStats bs =
        rig.blocks[best]->process_batch(nt, externals, outputs);
    lp.processed_bound = tick_add(nt, 1);
    const bool checkpoint = lp.batches++ % lp_save_interval(best) == 0;
    const double w =
        batch_cost(cost, bs, bopts.save, checkpoint) * cfg.noise(jitter[pr]);
    PLSIM_TRACE_VSPAN(tsn.lane(best), Eval, clock[pr], clock[pr] + w, nt,
                      outputs.size());
    clock[pr] += w;
    r.busy += w;

    for (const Message& m : outputs) {
      if (rig.routing.dests[m.gate].empty()) continue;
      bool reused = false;
      if (cfg.lazy_cancellation) {
        for (auto [lo, hi] = lp.lazy_pending.equal_range(nt); lo != hi; ++lo) {
          if (lo->second.msg == m) {
            lp.sent_log.emplace(nt, lo->second);
            lp.lazy_pending.erase(lo);
            reused = true;
            break;
          }
        }
      }
      if (reused) continue;
      TwVpMsg tm{m,
                 (static_cast<std::uint64_t>(best) << 40) | lp.uid_counter++,
                 false};
      lp.sent_log.emplace(nt, tm);
      send(best, tm);
    }
    schedule_wake(pr);
  };

  for (std::uint32_t pr = 0; pr < n_procs; ++pr) schedule_wake(pr);
  des.push(Ev{cfg.gvt_period, EvKind::Gvt, 0, {}, des_seq++});

  while (!des.empty() && gvt < horizon) {
    const Ev ev = des.top();
    des.pop();
    switch (ev.kind) {
      case EvKind::Wake: {
        wake_scheduled[ev.target] = 0;
        work(ev.target);
        break;
      }
      case EvKind::Arrival: {
        const std::uint32_t pr = proc_of[ev.target];
        inflight.erase(inflight.find(ev.msg.msg.time));
        if (aud) aud->on_inflight_remove(ev.msg.msg.time);
        clock[pr] = std::max(clock[pr], ev.at) + cost.msg_recv;
        r.busy += cost.msg_recv;
        deliver(ev.target, ev.msg);
        break;
      }
      case EvKind::Gvt: {
        Tick new_gvt = inflight.empty() ? horizon : *inflight.begin();
        for (std::uint32_t b = 0; b < n_blocks; ++b)
          new_gvt = std::min(new_gvt, gvt_min(b));
        gvt = std::max(gvt, new_gvt);
        if (aud) aud->on_gvt(gvt);
        ++r.stats.gvt_rounds;
        PLSIM_TRACE_VMARK(tsn.lane(0), GvtRound, ev.at, gvt,
                          r.stats.gvt_rounds);
        for (std::uint32_t pr = 0; pr < n_procs; ++pr) {
          double w = cost.barrier_cost(n_procs) + cost.gvt_per_proc;
          for (std::uint32_t b : lps_of[pr]) {
            const std::size_t dropped = rig.blocks[b]->fossil_collect(gvt);
            lps[b].sent_log.erase(lps[b].sent_log.begin(),
                                  lps[b].sent_log.lower_bound(gvt));
            // Processed inputs below GVT can never be replayed again.
            const auto fossil_end = lps[b].input_queue.lower_bound(
                std::min(gvt, lps[b].processed_bound));
            lps[b].fossil_dropped += static_cast<std::uint64_t>(
                std::distance(lps[b].input_queue.begin(), fossil_end));
            lps[b].input_queue.erase(lps[b].input_queue.begin(), fossil_end);
            w += dropped * cost.fossil_per_batch;
          }
          clock[pr] = std::max(clock[pr], ev.at) + w;
          r.busy += w;
        }
        for (std::uint32_t pr = 0; pr < n_procs; ++pr) schedule_wake(pr);
        if (gvt < horizon)
          des.push(Ev{ev.at + cfg.gvt_period, EvKind::Gvt, 0, {}, des_seq++});
        break;
      }
    }
  }

  for (std::uint32_t pr = 0; pr < n_procs; ++pr)
    r.makespan = std::max(r.makespan, clock[pr]);

  if (aud) {
    // The loop exits once GVT reaches the horizon; arrivals still in the DES
    // queue were sent but never delivered — account them as pending.
    std::vector<std::uint64_t> pending(n_blocks, 0);
    while (!des.empty()) {
      const Ev ev = des.top();
      des.pop();
      if (ev.kind != EvKind::Arrival) continue;
      ++pending[ev.target];
      aud->on_inflight_remove(ev.msg.msg.time);
    }
    for (std::uint32_t b = 0; b < n_blocks; ++b) {
      aud->set_pending(b, pending[b]);
      // Queue accounting: every enqueued positive was annihilated,
      // fossil-collected, or is still in the queue.
      aud->set_queue_left(b, lps[b].input_queue.size() + lps[b].fossil_dropped);
    }
  }

  flush_block_activity(tsn, rig);

  collect_rig_results(c, rig, r);
  if (aud) aud->finalize();
  return r;
}

}  // namespace plsim
