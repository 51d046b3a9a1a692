#pragma once
// The optimistic LP protocol (paper §IV: Jefferson's Time Warp with Gafni's
// lazy cancellation; §VI: the optimistic level of the hierarchical hybrid),
// shared by run_timewarp, run_timewarp_vp and run_hybrid_vp.
//
// An LP is a set of blocks that advance together: one block for a Time Warp
// LP, a lockstep cluster for the hybrid. It keeps an input queue (positive
// messages by timestamp; those below the processed bound are processed), a
// sent log (by the batch time that sent them) and, under lazy cancellation,
// the sends of rolled-back batches parked until re-execution regenerates or
// passes them. A send between two member blocks is the LP's own history: it
// joins the input queue directly and a rollback removes it in place.
//
// The core owns no transport and charges no cost: a driver moves the
// messages it hands out, charges costs from the statistics it reports, and
// decides when each LP runs.

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <map>
#include <utility>
#include <vector>

#include "check/auditor.hpp"
#include "core/block.hpp"
#include "core/types.hpp"
#include "util/error.hpp"

namespace plsim {

/// One optimistic message. `uid` is unique per sending LP; an anti-message
/// carries the uid of the positive it annihilates.
struct OptMsg {
  Message msg;
  std::uint64_t uid = 0;
  std::uint32_t dst = 0;  ///< receiving block; a one-block LP ignores it
  bool anti = false;
  bool local = false;  ///< sent between two blocks of the same LP
};

/// Reject per-LP optimism windows that do not fit the partition or sit
/// beside a global window. Both Time Warp drivers call this on entry.
inline void check_lp_optimism(const std::vector<Tick>& lp_optimism,
                              Tick optimism_window, std::uint32_t n_blocks) {
  PLSIM_CHECK(lp_optimism.empty() || lp_optimism.size() == n_blocks,
              "Time Warp: lp_optimism must have one entry per block");
  PLSIM_CHECK(lp_optimism.empty() || optimism_window == 0,
              "Time Warp: lp_optimism and a global optimism_window are "
              "mutually exclusive (per-LP entry 0 already means unbounded)");
}

/// LP b's optimism window (0 = unbounded): its per-LP entry when the vector
/// is given, otherwise the global window.
inline Tick optimism_window_of(const std::vector<Tick>& lp_optimism,
                               Tick optimism_window, std::uint32_t b) {
  return lp_optimism.empty() ? optimism_window : lp_optimism[b];
}

/// The optimism-window test: a batch at `nt` may run only while it leads
/// GVT by at most `window` (0 = unbounded).
inline bool beyond_window(Tick nt, Tick gvt, Tick window) {
  return window > 0 && nt > gvt && nt - gvt > window;
}

class OptimisticLp {
  struct Ignore {
    template <class T>
    void operator()(const T&) const {}
  };

 public:
  /// `id` names the LP in message uids and auditor calls; `aud` may be null.
  OptimisticLp(std::uint32_t id, bool lazy_cancellation, Auditor* aud)
      : id_(id), lazy_cancellation_(lazy_cancellation), aud_(aud) {}

  void add_block(std::uint32_t b, BlockSimulator& block,
                 const std::vector<Message>& env) {
    members_.push_back(Member{b, &block, &env, 0});
  }

  std::size_t size() const { return members_.size(); }
  BlockSimulator& block(std::size_t i) const { return *members_[i].block; }

  /// Time of the next batch this LP will process, clamped to `horizon`.
  Tick next_batch(Tick horizon) const {
    Tick t = kTickInf;
    for (const Member& mb : members_) {
      t = std::min(t, mb.block->next_internal_time());
      if (mb.env_pos < mb.env->size())
        t = std::min(t, (*mb.env)[mb.env_pos].time);
    }
    const auto it = input_.lower_bound(processed_bound_);
    if (it != input_.end()) t = std::min(t, it->first);
    return std::min(t, horizon);
  }

  /// This LP's lower bound on GVT. Unlike next_batch it counts parked lazy
  /// sends: one from batch bt can still become an anti-message at bt, so GVT
  /// must not pass it. In next_batch it would livelock the LP on a batch
  /// time with nothing to process.
  Tick gvt_bound(Tick horizon) const {
    Tick t = next_batch(horizon);
    if (!lazy_.empty()) t = std::min(t, lazy_.begin()->first);
    return t;
  }

  /// Append member i's inputs of the batch at `nt` to `out`: its stimulus
  /// vectors at nt, then its input-queue messages at nt.
  void gather(std::size_t i, Tick nt, std::vector<Message>& out) {
    Member& mb = members_[i];
    while (mb.env_pos < mb.env->size() && (*mb.env)[mb.env_pos].time == nt)
      out.push_back((*mb.env)[mb.env_pos++]);
    const bool all = members_.size() == 1;
    for (auto [lo, hi] = input_.equal_range(nt); lo != hi; ++lo)
      if (all || lo->second.dst == mb.id) out.push_back(lo->second.msg);
  }

  /// Every member has processed the batch at `nt`.
  void processed(Tick nt) { processed_bound_ = tick_add(nt, 1); }

  /// Lazy cancellation: if the batch at `nt` regenerated a parked send
  /// identical to `m`, that send already stands at its receivers; move it
  /// back to the sent log and return true.
  bool reuse(Tick nt, const Message& m) {
    for (auto [lo, hi] = lazy_.equal_range(nt); lo != hi; ++lo) {
      if (lo->second.msg == m) {
        sent_.emplace(nt, lo->second);
        lazy_.erase(lo);
        return true;
      }
    }
    return false;
  }

  /// Log output `m` of the batch at `nt`, for block `dst`, under a fresh
  /// uid. A local send (to a member block) is enqueued here; any other is
  /// returned for the driver to send.
  OptMsg log_send(Tick nt, const Message& m, std::uint32_t dst = 0,
                  bool local = false) {
    const OptMsg om{m, (std::uint64_t{id_} << 40) | uid_counter_++, dst,
                    false, local};
    sent_.emplace(nt, om);
    if (local) enqueue(om);
    return om;
  }

  /// Lazy cancellation: parked sends from batches below `nt`, the next batch
  /// time, will never be regenerated; each goes to `send_anti` as an
  /// anti-message after leaving the parked set.
  template <class SendAnti>
  void flush_lazy(Tick nt, SendAnti&& send_anti) {
    for (auto it = lazy_.begin(); it != lazy_.end() && it->first < nt;) {
      OptMsg anti = it->second;
      anti.anti = true;
      it = lazy_.erase(it);
      ++antis_;
      send_anti(anti);
    }
  }

  /// Take one delivered message. A straggler, below the processed bound,
  /// first calls `roll_back(t)`, which must rewind and retract to t. Then a
  /// positive joins the input queue and an anti-message annihilates its
  /// positive, which per-sender FIFO delivery guarantees is here.
  template <class RollBack>
  void receive(const OptMsg& m, RollBack&& roll_back) {
    if (m.msg.time < processed_bound_) roll_back(m.msg.time);
    if (m.anti)
      cancel(m);
    else
      enqueue(m);
  }

  /// First half of a straggler rollback to t < processed bound: rewind every
  /// member block and stimulus feed so that all batches at time >= t are
  /// unprocessed again. `on_block` sees each member's rollback statistics,
  /// in member order.
  template <class OnBlock = Ignore>
  void rewind(Tick t, OnBlock&& on_block = {}) {
    PLSIM_ASSERT(t < processed_bound_);
    if (aud_) aud_->on_rollback(id_, t);
    for (Member& mb : members_) {
      on_block(mb.block->rollback_to(t));
      while (mb.env_pos > 0 && (*mb.env)[mb.env_pos - 1].time >= t)
        --mb.env_pos;
    }
    processed_bound_ = t;
    ++rollbacks_;
  }

  /// Second half: take back the sends of batches at time >= t, in log order.
  /// Local sends leave the input queue; the others are parked under lazy
  /// cancellation, else handed to `send_anti` as anti-messages. The log is
  /// detached first, so a `send_anti` that re-enters this LP (a co-located
  /// receiver rolls back and cancels into it) finds them already gone.
  template <class SendAnti>
  void retract(Tick t, SendAnti&& send_anti) {
    const auto first = sent_.lower_bound(t);
    std::vector<std::pair<Tick, OptMsg>> undone(first, sent_.end());
    sent_.erase(first, sent_.end());
    for (auto& [bt, m] : undone) {
      if (m.local) {
        cancel(m);
      } else if (lazy_cancellation_) {
        lazy_.emplace(bt, m);
      } else {
        m.anti = true;
        ++antis_;
        send_anti(m);
      }
    }
  }

  /// Discard history below `gvt`, which no rollback can reach: each member
  /// block's saved state (`on_block` sees the batches it dropped, in member
  /// order), the sent log, and the processed inputs below
  /// min(gvt, processed bound).
  template <class OnBlock = Ignore>
  void collect_fossils(Tick gvt, OnBlock&& on_block = {}) {
    for (Member& mb : members_) on_block(mb.block->fossil_collect(gvt));
    sent_.erase(sent_.begin(), sent_.lower_bound(gvt));
    const auto end = input_.lower_bound(std::min(gvt, processed_bound_));
    fossil_inputs_ +=
        static_cast<std::uint64_t>(std::distance(input_.begin(), end));
    input_.erase(input_.begin(), end);
  }

  std::uint64_t rollbacks() const { return rollbacks_; }
  std::uint64_t antis() const { return antis_; }  ///< anti-messages created
  /// Enqueued and not annihilated: still queued or fossil-collected.
  std::uint64_t queue_left() const { return input_.size() + fossil_inputs_; }
  std::size_t queued() const { return input_.size(); }
  std::size_t sent_logged() const { return sent_.size(); }
  std::size_t parked() const { return lazy_.size(); }
  Tick processed_bound() const { return processed_bound_; }

 private:
  struct Member {
    std::uint32_t id;
    BlockSimulator* block;
    const std::vector<Message>* env;
    std::size_t env_pos;
  };

  void enqueue(const OptMsg& m) {
    input_.emplace(m.msg.time, m);
    if (aud_) aud_->on_enqueue(id_);
  }

  /// Remove the positive with m's uid from the input queue.
  void cancel(const OptMsg& m) {
    auto [lo, hi] = input_.equal_range(m.msg.time);
    const auto it = std::find_if(
        lo, hi, [&](const auto& e) { return e.second.uid == m.uid; });
    PLSIM_ASSERT(it != hi);
    input_.erase(it);
    if (aud_) aud_->on_cancel(id_);
  }

  std::uint32_t id_;
  bool lazy_cancellation_;
  Auditor* aud_;
  std::vector<Member> members_;
  std::multimap<Tick, OptMsg> input_;
  std::multimap<Tick, OptMsg> sent_;
  std::multimap<Tick, OptMsg> lazy_;
  Tick processed_bound_ = 0;
  std::uint64_t uid_counter_ = 0;
  std::uint64_t rollbacks_ = 0;
  std::uint64_t antis_ = 0;
  std::uint64_t fossil_inputs_ = 0;
};

}  // namespace plsim
