// Synchronous (global-clock) engine, paper §IV: all LPs share one simulated
// time; each step processes every block's events at that time, then a barrier
// plus min-reduction finds the next populated time. Two barrier episodes per
// step: one to agree on the time, one to make all routed messages visible
// before the next reduction.

#include <optional>

#include "check/auditor.hpp"
#include "core/block.hpp"
#include "engines/common.hpp"
#include "engines/engine.hpp"
#include "parallel/barrier.hpp"
#include "parallel/mailbox.hpp"
#include "parallel/threads.hpp"
#include "trace/trace.hpp"
#include "util/timer.hpp"

namespace plsim {

RunResult run_synchronous(const Circuit& c, const Stimulus& stim,
                          const Partition& p, const EngineConfig& cfg) {
  validate_engine_config(cfg, p.n_blocks, "synchronous");
  WallTimer timer;

  BlockOptions bopts;
  bopts.clock_period = stim.period;
  bopts.horizon = stim.horizon();
  bopts.save = SaveMode::None;
  bopts.record_trace = cfg.record_trace;
  BlockRig rig = build_rig(c, stim, p, bopts, cfg);

  const std::uint32_t n = p.n_blocks;
  MinReduceBarrier time_barrier(n);
  MinReduceBarrier deliver_barrier(n);
  std::vector<Mailbox<Message>> inbox(n);
  std::vector<std::uint64_t> barrier_count(n, 0);

  std::optional<Auditor> aud;
  if (cfg.audit || Auditor::env_enabled())
    aud.emplace("synchronous", n, bopts.horizon);

  trace::Session tsn("synchronous", n);

  // Bounded-window mode: one barrier pair covers a whole lookahead window —
  // any message generated inside the window lands at or beyond its end.
  Tick window = 1;
  if (cfg.time_buckets) {
    Tick lookahead = kTickInf;
    for (std::uint32_t b = 0; b < n; ++b)
      lookahead = std::min<Tick>(lookahead, rig.blocks[b]->export_lookahead());
    window = std::max<Tick>(1, lookahead == kTickInf ? bopts.horizon
                                                     : lookahead);
  }

  run_on_threads(n, [&](unsigned b) {
    BlockSimulator& blk = *rig.blocks[b];
    trace::Lane* tl = tsn.lane(b);
    const std::vector<Message>& env = rig.env[b];
    std::size_t env_pos = 0;
    StagedMessages staged;
    std::vector<Message> externals, outputs, drained;
    // Per-destination send buffers, reused across windows: messages are
    // batched locally and published with one mailbox lock per destination
    // per window instead of one per message.
    std::vector<std::vector<Message>> outbox(n);

    auto my_next = [&] {
      Tick t = blk.next_internal_time();
      if (env_pos < env.size()) t = std::min(t, env[env_pos].time);
      if (!staged.empty()) t = std::min(t, staged.top().time);
      return t;
    };

    for (;;) {
      Tick front;
      {
        PLSIM_TRACE_SCOPE(tl, BarrierWait, 0,
                          static_cast<std::uint32_t>(barrier_count[b]));
        front = time_barrier.arrive(my_next());
      }
      ++barrier_count[b];
      if (front >= bopts.horizon) break;
      const Tick window_end = std::min(bopts.horizon, tick_add(front, window));

      for (;;) {
        const Tick t = my_next();
        if (t >= window_end) break;
        externals.clear();
        while (env_pos < env.size() && env[env_pos].time == t)
          externals.push_back(env[env_pos++]);
        while (!staged.empty() && staged.top().time == t) {
          externals.push_back(staged.top());
          staged.pop();
        }
        outputs.clear();
        if (aud) aud->on_batch(b, t);
        {
          PLSIM_TRACE_NAMED_SCOPE(span, tl, Eval, t, 0);
          blk.process_batch(t, externals, outputs);
          span.set_aux(static_cast<std::uint32_t>(outputs.size()));
        }
        for (const Message& m : outputs)
          for (std::uint32_t dst : rig.routing.dests[m.gate]) {
            outbox[dst].push_back(m);
            if (aud) aud->on_send(b, m.time);
            PLSIM_TRACE_MARK(tl, Send, m.time, dst);
          }
      }

      // Flush the window's sends before the delivery barrier: push is
      // synchronous, so everything is visible once all threads arrive.
      for (std::uint32_t dst = 0; dst < n; ++dst)
        inbox[dst].push_many(std::move(outbox[dst]));

      {
        PLSIM_TRACE_SCOPE(tl, BarrierWait, window_end,
                          static_cast<std::uint32_t>(barrier_count[b]));
        deliver_barrier.arrive(0);
      }
      ++barrier_count[b];
      drained.clear();
      inbox[b].drain(drained);
      if (aud && !drained.empty())
        aud->on_deliver(b, drained.front().time, drained.size());
      if (!drained.empty())
        PLSIM_TRACE_MARK(tl, Recv, drained.front().time,
                         static_cast<std::uint32_t>(drained.size()));
      for (const Message& m : drained) staged.push(m);
    }
    if (aud) {
      // Messages staged past the horizon stay unprocessed but were delivered;
      // the transport itself must be empty at exit.
      drained.clear();
      aud->set_pending(b, inbox[b].drain(drained));
    }
  });

  flush_block_activity(tsn, rig);

  RunResult r = merge_results(c, rig, cfg.record_trace);
  for (std::uint64_t bc : barrier_count) r.stats.barriers += bc;
  r.wall_seconds = timer.seconds();
  if (aud) {
    aud->check_trace(r.trace);
    aud->finalize();
  }
  return r;
}

}  // namespace plsim
