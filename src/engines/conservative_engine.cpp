// Conservative asynchronous engine (paper §IV): Chandy-Misra-Bryant with
// null-message deadlock avoidance [11, 20]. Each block processes only events
// strictly below the minimum of its input channel clocks (the input waiting
// rule) and propagates lookahead promises downstream, blocking on its mailbox
// when it can make no progress.

#include <optional>
#include <unordered_map>

#include "check/auditor.hpp"
#include "core/block.hpp"
#include "engines/cmb.hpp"
#include "engines/common.hpp"
#include "engines/engine.hpp"
#include "engines/lookahead.hpp"
#include "parallel/mailbox.hpp"
#include "parallel/threads.hpp"
#include "trace/trace.hpp"
#include "util/timer.hpp"

namespace plsim {

RunResult run_conservative(const Circuit& c, const Stimulus& stim,
                           const Partition& p, const EngineConfig& cfg) {
  WallTimer timer;

  BlockOptions bopts;
  bopts.clock_period = stim.period;
  bopts.horizon = stim.horizon();
  bopts.save = SaveMode::None;
  bopts.record_trace = cfg.record_trace;
  bopts.track_lookahead = cfg.adaptive_lookahead;
  BlockRig rig = build_rig(c, stim, p, bopts, cfg);

  std::optional<ChannelBounds> bounds;
  if (cfg.adaptive_lookahead)
    bounds.emplace(build_channel_bounds(*rig.plan, rig.routing));

  const std::uint32_t n = p.n_blocks;
  const Tick horizon = bopts.horizon;
  std::vector<Mailbox<CmbMsg>> inbox(n);
  std::vector<std::uint64_t> nulls(n, 0), waits(n, 0);

  std::optional<Auditor> aud;
  if (cfg.audit || Auditor::env_enabled())
    aud.emplace("conservative", n, horizon);

  trace::Session tsn("conservative", n);

  run_on_threads(n, [&](unsigned b) {
    BlockSimulator& blk = *rig.blocks[b];
    trace::Lane* tl = tsn.lane(b);
    if (aud) aud->on_lookahead(b, blk.export_lookahead());

    std::vector<std::uint32_t> sources;
    for (std::uint32_t j = 0; j < n; ++j)
      if (j != b && rig.routing.has_channel(j, b)) sources.push_back(j);
    CmbInState in(sources);

    std::vector<CmbOutChannel> outs;
    std::unordered_map<std::uint32_t, std::size_t> out_index;
    for (std::uint32_t j = 0; j < n; ++j) {
      if (j != b && rig.routing.has_channel(b, j)) {
        out_index.emplace(j, outs.size());
        outs.emplace_back(j, blk.export_lookahead());
      }
    }

    const std::vector<Message>& env = rig.env[b];
    std::size_t env_pos = 0;
    std::vector<CmbMsg> drained;
    std::vector<CmbMsg> sendbuf;  // reused per-channel batch buffer
    std::vector<Message> externals, outputs;

    for (;;) {
      drained.clear();
      inbox[b].drain(drained);
      if (aud && !drained.empty())
        aud->on_deliver(b, drained.front().msg.time, drained.size());
      if (!drained.empty())
        PLSIM_TRACE_MARK(tl, Recv, drained.front().msg.time,
                         static_cast<std::uint32_t>(drained.size()));
      for (const CmbMsg& m : drained) in.receive(m);

      bool did_work = !drained.empty();
      const Tick safe = in.has_channels() ? in.safe(horizon) : horizon;

      // Process every locally known batch strictly below the safe time.
      for (;;) {
        Tick t = blk.next_internal_time();
        if (env_pos < env.size()) t = std::min(t, env[env_pos].time);
        if (!in.staged_empty()) t = std::min(t, in.staged_top_time());
        if (t >= safe || t >= horizon) break;

        externals.clear();
        while (env_pos < env.size() && env[env_pos].time == t)
          externals.push_back(env[env_pos++]);
        while (!in.staged_empty() && in.staged_top_time() == t)
          externals.push_back(in.pop_staged());

        outputs.clear();
        if (aud) aud->on_batch(b, t);
        {
          PLSIM_TRACE_NAMED_SCOPE(span, tl, Eval, t, 0);
          blk.process_batch(t, externals, outputs);
          span.set_aux(static_cast<std::uint32_t>(outputs.size()));
        }
        did_work = true;
        for (const Message& m : outputs)
          for (std::uint32_t dst : rig.routing.dests[m.gate])
            outs[out_index.at(dst)].buffer(m);
      }

      // Earliest time this block might still process anything.
      Tick frontier = safe;
      frontier = std::min(frontier, blk.next_internal_time());
      if (env_pos < env.size())
        frontier = std::min(frontier, env[env_pos].time);
      if (!in.staged_empty())
        frontier = std::min(frontier, in.staged_top_time());

      // Per-root frontiers for the adaptive per-channel bounds: each event
      // root — pending internal events, staged + unreceived channel input,
      // future stimulus, the next clock edge — pairs with its own static
      // distance to the destination instead of collapsing into one
      // block-wide frontier + minimum chain.
      Tick next_wire = kTickInf;
      Tick in_low = kTickInf;
      Tick env_next = kTickInf;
      Tick next_clock = kTickInf;
      if (bounds) {
        next_wire = blk.next_wire_time();
        in_low = safe;
        if (!in.staged_empty()) in_low = std::min(in_low, in.staged_top_time());
        if (env_pos < env.size()) env_next = env[env_pos].time;
        next_clock = blk.next_clock_time();
      }

      for (CmbOutChannel& ch : outs) {
        CmbOutChannel::Released rel;
        if (bounds) {
          const Tick classic =
              std::min(horizon, tick_add(frontier, blk.export_lookahead()));
          Tick adaptive = kTickInf;
          const Tick wd = bounds->wire(b, ch.dst());
          if (wd != kTickInf && next_wire != kTickInf)
            adaptive = std::min(adaptive, tick_add(next_wire, wd));
          const Tick rv = bounds->recv(b, ch.dst());
          if (rv != kTickInf && in_low != kTickInf)
            adaptive = std::min(adaptive, tick_add(in_low, rv));
          const Tick ed = bounds->env(b, ch.dst());
          if (ed != kTickInf && env_next != kTickInf)
            adaptive = std::min(adaptive, tick_add(env_next, ed));
          const Tick cd = bounds->clock(b, ch.dst());
          if (cd != kTickInf && next_clock != kTickInf)
            adaptive = std::min(adaptive, tick_add(next_clock, cd));
          // adaptive == kTickInf means no chain can ever message dst (e.g. a
          // channel that exists only for a primary input, which travels via
          // the environment): promise the horizon outright.
          rel = ch.release_at(std::max(classic, std::min(adaptive, horizon)),
                              horizon);
        } else {
          rel = ch.release(frontier, horizon);
        }
        sendbuf.clear();
        for (const Message& m : rel.real) {
          sendbuf.push_back(CmbMsg{m, b, false});
          if (aud) aud->on_send(b, m.time);
          PLSIM_TRACE_MARK(tl, Send, m.time, ch.dst());
        }
        if (rel.send_null) {
          sendbuf.push_back(
              CmbMsg{Message{rel.promise, kNoGate, Logic4::X}, b, true});
          ++nulls[b];
          if (aud) {
            aud->on_promise(b, ch.dst(), rel.promise);
            aud->on_send(b, rel.promise);
          }
          PLSIM_TRACE_MARK(tl, NullMsg, rel.promise, ch.dst());
        }
        // One mailbox lock (and one consumer wake) per channel release
        // instead of one per message.
        inbox[ch.dst()].push_many(sendbuf);
        did_work |= !sendbuf.empty();
      }

      if (frontier >= horizon) break;
      if (!did_work) {
        // Input waiting rule has us blocked; sleep until a message arrives.
        ++waits[b];
        drained.clear();
        {
          PLSIM_TRACE_SCOPE(tl, Blocked, frontier,
                            static_cast<std::uint32_t>(waits[b]));
          inbox[b].wait_and_drain(drained);
        }
        if (aud && !drained.empty())
          aud->on_deliver(b, drained.front().msg.time, drained.size());
        if (!drained.empty())
          PLSIM_TRACE_MARK(tl, Recv, drained.front().msg.time,
                           static_cast<std::uint32_t>(drained.size()));
        for (const CmbMsg& m : drained) in.receive(m);
      }
    }
  });

  if (aud) {
    // An LP exits as soon as its own frontier reaches the horizon; slower
    // upstreams may still push promises at it afterwards. Count those
    // leftovers (single-threaded: all workers have joined).
    std::vector<CmbMsg> leftovers;
    for (std::uint32_t b = 0; b < n; ++b) {
      leftovers.clear();
      aud->set_pending(b, inbox[b].drain(leftovers));
    }
  }

  flush_block_activity(tsn, rig);

  RunResult r = merge_results(c, rig, cfg.record_trace);
  for (std::uint32_t b = 0; b < n; ++b) {
    r.stats.null_messages += nulls[b];
    r.stats.blocked_waits += waits[b];
  }
  r.wall_seconds = timer.seconds();
  if (aud) {
    aud->check_trace(r.trace);
    aud->finalize();
  }
  return r;
}

}  // namespace plsim
