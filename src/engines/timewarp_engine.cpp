// Optimistic asynchronous engine: Jefferson's Time Warp (paper §IV).
//
// Each block processes its lowest-timestamp unprocessed batch immediately.
// A straggler (or anti-message) below local virtual time triggers rollback:
// block state is restored (incremental undo log or full-copy snapshots) and
// previously sent messages are cancelled — eagerly (aggressive cancellation)
// or only once re-execution proves they were wrong (Gafni's lazy
// cancellation). Global virtual time is computed by a coordinator thread
// using a count-consistent snapshot (Mattern-style: a cut is valid only when
// the global sent and received message counts match, which any in-flight
// message breaks); storage below GVT is fossil-collected.

#include <atomic>
#include <map>
#include <optional>

#include "check/auditor.hpp"
#include "core/block.hpp"
#include "engines/common.hpp"
#include "engines/engine.hpp"
#include "parallel/guarded.hpp"
#include "parallel/mailbox.hpp"
#include "parallel/threads.hpp"
#include "trace/trace.hpp"
#include "util/error.hpp"
#include "util/timer.hpp"

namespace plsim {
namespace {

struct TwMsg {
  Message msg;
  std::uint64_t uid = 0;
  bool anti = false;
};

/// Per-LP record read by the GVT coordinator. `min_time` is the earliest
/// simulated time the LP could still (re)process — including pending lazy
/// cancellations, whose anti-messages can still roll a receiver back to
/// their timestamps; counts are cumulative messages sent/received, used to
/// detect in-flight messages.
struct PublishedRec {
  Tick min_time = 0;
  std::uint64_t sent = 0;
  std::uint64_t received = 0;
};
struct alignas(64) PublishedSlot {
  Guarded<PublishedRec> rec;
};

struct LpState {
  BlockSimulator* block = nullptr;
  const std::vector<Message>* env = nullptr;
  std::size_t env_pos = 0;
  /// All positive input messages, keyed by timestamp. Entries below
  /// `processed_bound` are processed; rollback moves the bound down.
  std::multimap<Tick, TwMsg> input_queue;
  Tick processed_bound = 0;
  /// Output history for cancellation, keyed by the batch time that sent it.
  std::multimap<Tick, TwMsg> sent_log;
  /// Lazy cancellation: messages from rolled-back batches awaiting
  /// regeneration or cancellation, keyed by original batch time.
  std::multimap<Tick, TwMsg> lazy_pending;
  std::uint64_t uid_counter = 0;
  std::uint64_t rollbacks = 0;
  std::uint64_t antis = 0;

  /// Next time this LP will actually process a batch at.
  Tick next_batch(Tick horizon) const {
    Tick t = block->next_internal_time();
    const auto it = input_queue.lower_bound(processed_bound);
    if (it != input_queue.end()) t = std::min(t, it->first);
    if (env_pos < env->size()) t = std::min(t, (*env)[env_pos].time);
    return std::min(t, horizon);
  }

  /// Lower bound published to the GVT coordinator. Unlike next_batch, this
  /// includes pending lazy cancellations: a pending entry at time bt can
  /// still turn into an anti-message at bt, rolling its receivers back to
  /// bt — GVT must not overtake it.
  Tick local_min(Tick horizon) const {
    Tick t = next_batch(horizon);
    if (!lazy_pending.empty()) t = std::min(t, lazy_pending.begin()->first);
    return t;
  }
};

}  // namespace

RunResult run_timewarp(const Circuit& c, const Stimulus& stim,
                       const Partition& p, const EngineConfig& cfg) {
  validate_engine_config(cfg, p.n_blocks, "timewarp");
  WallTimer timer;

  BlockOptions bopts;
  bopts.clock_period = stim.period;
  bopts.horizon = stim.horizon();
  bopts.save = cfg.save == SaveMode::None ? SaveMode::Incremental : cfg.save;
  bopts.record_trace = cfg.record_trace;
  BlockRig rig = build_rig(c, stim, p, bopts, cfg);

  const std::uint32_t n = p.n_blocks;
  const Tick horizon = bopts.horizon;
  std::vector<Mailbox<TwMsg>> inbox(n);
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
    LpState lp;
    lp.block = rig.blocks[b].get();
    lp.env = &rig.env[b];

    std::vector<TwMsg> drained;
    std::vector<Message> externals, outputs;
    // Per-destination send buffers, reused across iterations: send() batches
    // locally and publish() flushes, so each iteration pays one mailbox lock
    // per destination instead of one per message. Appending in send order
    // preserves the per-sender FIFO delivery that annihilation relies on.
    std::vector<std::vector<TwMsg>> outbuf(n);

    auto publish = [&](std::uint64_t d_sent, std::uint64_t d_recv) {
      // Count before flushing (Samadi's rule): the sent-count must be
      // published before the messages become visible in any mailbox. That
      // way `sent` over-approximates and `received` under-approximates the
      // messages actually delivered at every instant, so an instantaneous
      // sent == recv reading really does mean nothing is in flight. The
      // opposite order opens a window where a receiver has drained and
      // counted a message whose send is still unpublished, and the
      // coordinator can match a cut with a straggler in flight.
      const Tick lm = lp.local_min(horizon);
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

    auto send = [&](const TwMsg& m) {
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
    // cancel (or stage for lazy comparison) the messages those batches sent.
    // Returns the number of messages pushed (anti-messages).
    auto rollback = [&](Tick t) -> std::uint64_t {
      if (lp.processed_bound <= t) return 0;
      if (aud) aud->on_rollback(b, t);
      PLSIM_TRACE_NAMED_SCOPE(rbspan, tl, Rollback, t, 0);
      std::uint64_t pushed = 0;
      lp.block->rollback_to(t);
      lp.processed_bound = t;
      while (lp.env_pos > 0 && (*lp.env)[lp.env_pos - 1].time >= t)
        --lp.env_pos;
      for (auto it = lp.sent_log.lower_bound(t); it != lp.sent_log.end();) {
        if (cfg.lazy_cancellation) {
          lp.lazy_pending.emplace(it->first, it->second);
        } else {
          TwMsg anti = it->second;
          anti.anti = true;
          pushed += send(anti);
          ++lp.antis;
        }
        it = lp.sent_log.erase(it);
      }
      ++lp.rollbacks;
      rbspan.set_aux(static_cast<std::uint32_t>(pushed));
      return pushed;
    };

    // Integrate a drained batch of incoming messages; returns the number of
    // anti-messages this LP pushed while rolling back.
    auto integrate = [&](const std::vector<TwMsg>& batch) -> std::uint64_t {
      std::uint64_t pushed = 0;
      if (aud && !batch.empty())
        aud->on_deliver(b, batch.front().msg.time, batch.size());
      if (!batch.empty())
        PLSIM_TRACE_MARK(tl, Recv, batch.front().msg.time,
                         static_cast<std::uint32_t>(batch.size()));
      for (const TwMsg& m : batch) {
        if (m.msg.time < lp.processed_bound) pushed += rollback(m.msg.time);
        if (!m.anti) {
          lp.input_queue.emplace(m.msg.time, m);
          if (aud) aud->on_enqueue(b);
        } else {
          // Annihilate the matching positive (guaranteed delivered first:
          // mailboxes preserve per-sender FIFO order).
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
      }
      return pushed;
    };

    publish(0, 0);

    for (;;) {
      // ---- integrate incoming messages ----
      drained.clear();
      inbox[b].drain(drained);
      const std::uint64_t pushed = integrate(drained);
      if (!drained.empty() || pushed > 0) publish(pushed, drained.size());

      const Tick current_gvt = gvt.load(std::memory_order_acquire);
      if (current_gvt >= horizon) break;

      // ---- fossil collection ----
      if (current_gvt > 0) {
        lp.block->fossil_collect(current_gvt);
        lp.sent_log.erase(lp.sent_log.begin(),
                          lp.sent_log.lower_bound(current_gvt));
      }

      // ---- pick the next unprocessed batch ----
      const Tick nt = lp.next_batch(horizon);

      // ---- lazy cancellation: flush stale messages from batches that will
      // never be re-executed (everything below the next batch time) ----
      std::uint64_t lazy_pushed = 0;
      for (auto it = lp.lazy_pending.begin();
           it != lp.lazy_pending.end() && it->first < nt;) {
        TwMsg anti = it->second;
        anti.anti = true;
        lazy_pushed += send(anti);
        ++lp.antis;
        it = lp.lazy_pending.erase(it);
      }
      if (lazy_pushed > 0) publish(lazy_pushed, 0);

      const Tick window = cfg.lp_optimism.empty() ? cfg.optimism_window
                                                  : cfg.lp_optimism[b];
      const bool throttled =
          window > 0 && nt > current_gvt && nt - current_gvt > window;

      if (nt >= horizon || throttled) {
        // Nothing (allowed) to do: wait for messages or a GVT advance.
        publish(0, 0);
        drained.clear();
        {
          PLSIM_TRACE_SCOPE(tl, Blocked, nt, throttled ? 1 : 0);
          inbox[b].wait_and_drain(drained);
        }
        const std::uint64_t p2 = integrate(drained);
        if (!drained.empty() || p2 > 0) publish(p2, drained.size());
        continue;
      }

      // ---- process the batch at nt ----
      externals.clear();
      while (lp.env_pos < lp.env->size() &&
             (*lp.env)[lp.env_pos].time == nt)
        externals.push_back((*lp.env)[lp.env_pos++]);
      for (auto [lo, hi] = lp.input_queue.equal_range(nt); lo != hi; ++lo)
        externals.push_back(lo->second.msg);

      outputs.clear();
      if (aud) aud->on_batch(b, nt);
      {
        PLSIM_TRACE_NAMED_SCOPE(span, tl, Eval, nt, 0);
        lp.block->process_batch(nt, externals, outputs);
        span.set_aux(static_cast<std::uint32_t>(outputs.size()));
      }
      lp.processed_bound = tick_add(nt, 1);

      std::uint64_t out_pushed = 0;
      for (const Message& m : outputs) {
        if (rig.routing.dests[m.gate].empty()) continue;
        // Lazy reuse: identical message already stands at the receivers.
        bool reused = false;
        if (cfg.lazy_cancellation) {
          for (auto [lo, hi] = lp.lazy_pending.equal_range(nt); lo != hi;
               ++lo) {
            if (lo->second.msg == m) {
              lp.sent_log.emplace(nt, lo->second);
              lp.lazy_pending.erase(lo);
              reused = true;
              break;
            }
          }
        }
        if (reused) continue;
        TwMsg tm{m, (static_cast<std::uint64_t>(b) << 40) | lp.uid_counter++,
                 false};
        lp.sent_log.emplace(nt, tm);
        out_pushed += send(tm);
      }
      publish(out_pushed, 0);
    }

    lp_rollbacks[b] = lp.rollbacks;
    lp_antis[b] = lp.antis;
    queue_left[b] = lp.input_queue.size();
  });

  if (aud) {
    // All threads have joined: whatever is still in a mailbox was sent but
    // never integrated (possible only for wake-credit residue; count it).
    std::vector<TwMsg> leftovers;
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
