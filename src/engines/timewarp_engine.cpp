// Optimistic asynchronous engine: Jefferson's Time Warp (paper §IV) on
// threads, one LP per block.
//
// Each block processes its lowest-timestamp unprocessed batch immediately.
// A straggler (or anti-message) below local virtual time triggers rollback;
// the protocol itself (input queue, sent log, rollback, aggressive or lazy
// cancellation, fossil collection) lives in engines/optimistic.hpp. This file
// is its transport: per-LP mailboxes, and a GVT coordinator thread that
// computes a count-consistent snapshot (Mattern-style: a cut is valid only
// when the global sent and received message counts match, which any
// in-flight message breaks).

#include <atomic>
#include <optional>

#include "check/auditor.hpp"
#include "core/block.hpp"
#include "engines/common.hpp"
#include "engines/engine.hpp"
#include "engines/optimistic.hpp"
#include "parallel/guarded.hpp"
#include "parallel/mailbox.hpp"
#include "parallel/threads.hpp"
#include "trace/trace.hpp"
#include "util/error.hpp"
#include "util/timer.hpp"

namespace plsim {
namespace {

/// Per-LP record read by the GVT coordinator. `min_time` is the LP's GVT
/// bound (OptimisticLp::gvt_bound); counts are cumulative messages
/// sent/received, used to detect in-flight messages.
struct PublishedRec {
  Tick min_time = 0;
  std::uint64_t sent = 0;
  std::uint64_t received = 0;
};
struct alignas(64) PublishedSlot {
  Guarded<PublishedRec> rec;
};

}  // namespace

RunResult run_timewarp(const Circuit& c, const Stimulus& stim,
                       const Partition& p, const EngineConfig& cfg) {
  check_lp_optimism(cfg.lp_optimism, cfg.optimism_window, p.n_blocks);
  WallTimer timer;

  BlockOptions bopts;
  bopts.clock_period = stim.period;
  bopts.horizon = stim.horizon();
  bopts.save = cfg.save == SaveMode::None ? SaveMode::Incremental : cfg.save;
  bopts.record_trace = cfg.record_trace;
  BlockRig rig = build_rig(c, stim, p, bopts, cfg);

  const std::uint32_t n = p.n_blocks;
  const Tick horizon = bopts.horizon;
  std::vector<Mailbox<OptMsg>> inbox(n);
  std::vector<PublishedSlot> published(n);
  std::atomic<Tick> gvt{0};
  std::atomic<std::uint64_t> gvt_rounds{0};
  std::vector<std::uint64_t> lp_rollbacks(n, 0), lp_antis(n, 0);
  std::vector<std::uint64_t> queue_left(n, 0);

  std::optional<Auditor> aud;
  if (cfg.audit || Auditor::env_enabled())
    aud.emplace("timewarp", n, horizon);

  // Lane n belongs to the GVT coordinator thread.
  trace::Session tsn("timewarp", n + 1);

  // Thread ids 0..n-1 run the LPs; thread id n is the GVT coordinator.
  run_on_threads(n + 1, [&](unsigned tid) {
    // ---------------------------------------------------------------- GVT --
    if (tid == n) {
      trace::Lane* gl = tsn.lane(n);
      std::uint64_t rounds = 0;
      std::vector<PublishedRec> snap(n);
      for (;;) {
        // Two sweeps, seqlock style. The slots are read one at a time, so a
        // single sweep is a staggered cut: two messages crossing it in
        // opposite directions leave compensating +1/-1 count errors and the
        // aggregate sent == recv test matches with a straggler still in
        // flight. The counters are monotone, so if every slot shows the same
        // counts in both sweeps they were constant over the whole gap between
        // the sweeps, and the reads are equivalent to one instantaneous
        // snapshot taken in that gap.
        for (std::uint32_t b = 0; b < n; ++b)
          published[b].rec.with([&](const PublishedRec& pub) {
            snap[b] = pub;
          });
        Tick min_time = kTickInf;
        std::uint64_t sent = 0, recv = 0;
        bool stable = true;
        for (std::uint32_t b = 0; b < n && stable; ++b) {
          published[b].rec.with([&](const PublishedRec& pub) {
            stable = pub.sent == snap[b].sent &&
                     pub.received == snap[b].received;
            min_time = std::min(min_time, pub.min_time);
            sent += pub.sent;
            recv += pub.received;
          });
        }
        if (stable && sent == recv) {
          // Consistent cut: no message is in flight, so min_time is a valid
          // lower bound on all future processing.
          ++rounds;
          if (min_time > gvt.load(std::memory_order_relaxed)) {
            if (aud) aud->on_gvt(min_time);
            PLSIM_TRACE_MARK(gl, GvtRound, min_time,
                             static_cast<std::uint32_t>(rounds));
            gvt.store(min_time, std::memory_order_release);
            for (auto& mb : inbox) mb.wake();  // unblock throttled/idle LPs
          }
          if (min_time >= horizon) break;
        }
        yield_thread();
      }
      gvt_rounds.store(rounds, std::memory_order_relaxed);
      return;
    }

    // ---------------------------------------------------------------- LPs --
    const std::uint32_t b = tid;
    trace::Lane* tl = tsn.lane(b);
    OptimisticLp lp(b, cfg.lazy_cancellation, aud ? &*aud : nullptr);
    lp.add_block(b, *rig.blocks[b], rig.env[b]);
    const Tick window =
        optimism_window_of(cfg.lp_optimism, cfg.optimism_window, b);

    std::vector<OptMsg> drained;
    std::vector<Message> externals, outputs;
    // Per-destination send buffers, reused across iterations: send() batches
    // locally and publish() flushes, so each iteration pays one mailbox lock
    // per destination instead of one per message. Appending in send order
    // preserves the per-sender FIFO delivery that annihilation relies on.
    std::vector<std::vector<OptMsg>> outbuf(n);

    auto publish = [&](std::uint64_t d_sent, std::uint64_t d_recv) {
      // Count before flushing (Samadi's rule): the sent-count must be
      // published before the messages become visible in any mailbox. That
      // way `sent` over-approximates and `received` under-approximates the
      // messages actually delivered at every instant, so an instantaneous
      // sent == recv reading really does mean nothing is in flight. The
      // opposite order opens a window where a receiver has drained and
      // counted a message whose send is still unpublished, and the
      // coordinator can match a cut with a straggler in flight.
      const Tick lm = lp.gvt_bound(horizon);
      published[b].rec.with([&](PublishedRec& pub) {
        pub.min_time = lm;
        pub.sent += d_sent;
        pub.received += d_recv;
      });
      for (std::uint32_t dst = 0; dst < n; ++dst) {
        if (!outbuf[dst].empty()) {
          inbox[dst].push_many(outbuf[dst]);
          outbuf[dst].clear();
        }
      }
    };

    auto send = [&](const OptMsg& m) {
      std::uint64_t count = 0;
      for (std::uint32_t dst : rig.routing.dests[m.msg.gate]) {
        outbuf[dst].push_back(m);
        ++count;
        if (m.anti)
          PLSIM_TRACE_MARK(tl, AntiMsg, m.msg.time, dst);
        else
          PLSIM_TRACE_MARK(tl, Send, m.msg.time, dst);
      }
      if (aud && count > 0) aud->on_send(b, m.msg.time, count);
      return count;
    };

    // Roll the LP back so that every batch at time >= t is unprocessed, and
    // retract the messages those batches sent. Returns the number of
    // messages pushed (anti-messages).
    auto rollback = [&](Tick t) -> std::uint64_t {
      PLSIM_TRACE_NAMED_SCOPE(rbspan, tl, Rollback, t, 0);
      lp.rewind(t);
      std::uint64_t pushed = 0;
      lp.retract(t, [&](const OptMsg& anti) { pushed += send(anti); });
      rbspan.set_aux(static_cast<std::uint32_t>(pushed));
      return pushed;
    };

    // Integrate the drained messages, then publish them and the
    // anti-messages this LP pushed while rolling back.
    auto integrate = [&] {
      std::uint64_t pushed = 0;
      if (aud && !drained.empty())
        aud->on_deliver(b, drained.front().msg.time, drained.size());
      if (!drained.empty())
        PLSIM_TRACE_MARK(tl, Recv, drained.front().msg.time,
                         static_cast<std::uint32_t>(drained.size()));
      for (const OptMsg& m : drained)
        lp.receive(m, [&](Tick t) { pushed += rollback(t); });
      if (!drained.empty() || pushed > 0) publish(pushed, drained.size());
    };

    publish(0, 0);

    for (;;) {
      // ---- integrate incoming messages ----
      drained.clear();
      inbox[b].drain(drained);
      integrate();

      const Tick current_gvt = gvt.load(std::memory_order_acquire);
      if (current_gvt > 0) lp.collect_fossils(current_gvt);
      if (current_gvt >= horizon) break;

      // ---- pick the next unprocessed batch ----
      const Tick nt = lp.next_batch(horizon);

      std::uint64_t lazy_pushed = 0;
      lp.flush_lazy(nt, [&](const OptMsg& anti) { lazy_pushed += send(anti); });
      if (lazy_pushed > 0) publish(lazy_pushed, 0);

      const bool throttled = beyond_window(nt, current_gvt, window);

      if (nt >= horizon || throttled) {
        // Nothing (allowed) to do: wait for messages or a GVT advance.
        publish(0, 0);
        drained.clear();
        {
          PLSIM_TRACE_SCOPE(tl, Blocked, nt, throttled ? 1 : 0);
          inbox[b].wait_and_drain(drained);
        }
        integrate();
        continue;
      }

      // ---- process the batch at nt ----
      externals.clear();
      lp.gather(0, nt, externals);
      outputs.clear();
      if (aud) aud->on_batch(b, nt);
      {
        PLSIM_TRACE_NAMED_SCOPE(span, tl, Eval, nt, 0);
        lp.block(0).process_batch(nt, externals, outputs);
        span.set_aux(static_cast<std::uint32_t>(outputs.size()));
      }
      lp.processed(nt);

      std::uint64_t out_pushed = 0;
      for (const Message& m : outputs) {
        if (rig.routing.dests[m.gate].empty()) continue;
        if (!lp.reuse(nt, m)) out_pushed += send(lp.log_send(nt, m));
      }
      publish(out_pushed, 0);
    }

    lp_rollbacks[b] = lp.rollbacks();
    lp_antis[b] = lp.antis();
    queue_left[b] = lp.queue_left();
  });

  if (aud) {
    // All threads have joined: whatever is still in a mailbox was sent but
    // never integrated (possible only for wake-credit residue; count it).
    std::vector<OptMsg> leftovers;
    for (std::uint32_t b = 0; b < n; ++b) {
      leftovers.clear();
      aud->set_pending(b, inbox[b].drain(leftovers));
      aud->set_queue_left(b, queue_left[b]);
    }
  }

  flush_block_activity(tsn, rig);

  RunResult r = merge_results(c, rig, cfg.record_trace);
  for (std::uint32_t b = 0; b < n; ++b) {
    r.stats.rollbacks += lp_rollbacks[b];
    r.stats.anti_messages += lp_antis[b];
  }
  r.stats.gvt_rounds = gvt_rounds.load(std::memory_order_relaxed);
  r.wall_seconds = timer.seconds();
  if (aud) {
    aud->check_trace(r.trace);
    aud->finalize();
  }
  return r;
}

}  // namespace plsim
