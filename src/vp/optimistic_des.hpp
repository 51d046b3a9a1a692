#pragma once
// The discrete-event loop under both optimistic VP executors (run_timewarp_vp
// and run_hybrid_vp): one (time, seq)-ordered queue of message arrivals,
// wake-ups of the units that run LPs (processors, clusters) and GVT rounds,
// plus the exact multiset of in-flight message timestamps. The platform is
// simulated, so GVT needs no snapshot protocol: it is the minimum of that
// multiset and every LP's bound.

#include <cstdint>
#include <queue>
#include <set>
#include <vector>

#include "check/auditor.hpp"
#include "engines/optimistic.hpp"

namespace plsim {

class OptimisticDes {
 public:
  enum class Kind : std::uint8_t { Arrival, Wake, Gvt };
  struct Ev {
    double at;
    Kind kind;
    std::uint32_t target;  ///< receiving LP (Arrival) or woken unit (Wake)
    OptMsg msg;
    std::uint64_t seq;
    bool operator<(const Ev& o) const {  // later first: a min-queue
      return at != o.at ? at > o.at : seq > o.seq;
    }
  };

  OptimisticDes(std::uint32_t units, Auditor* aud)
      : waking_(units, 0), aud_(aud) {}

  /// Wake unit `u` at `at`, unless a wake-up is already queued for it.
  void wake(double at, std::uint32_t u) {
    if (waking_[u]) return;
    waking_[u] = 1;
    queue_.push(Ev{at, Kind::Wake, u, {}, seq_++});
  }
  void gvt_round(double at) { queue_.push(Ev{at, Kind::Gvt, 0, {}, seq_++}); }
  /// Put `m` in flight to LP `lp`, arriving at `at`.
  void send(double at, std::uint32_t lp, const OptMsg& m) {
    inflight_.insert(m.msg.time);
    if (aud_) aud_->on_inflight_add(m.msg.time);
    queue_.push(Ev{at, Kind::Arrival, lp, m, seq_++});
  }

  bool empty() const { return queue_.empty(); }
  /// Take the next event; an arrival leaves the in-flight set.
  Ev pop() {
    const Ev ev = queue_.top();
    queue_.pop();
    if (ev.kind == Kind::Wake) waking_[ev.target] = 0;
    if (ev.kind == Kind::Arrival) {
      inflight_.erase(inflight_.find(ev.msg.msg.time));
      if (aud_) aud_->on_inflight_remove(ev.msg.msg.time);
    }
    return ev;
  }

  /// Earliest in-flight timestamp, or `horizon` when nothing is in flight.
  Tick inflight_min(Tick horizon) const {
    return inflight_.empty() ? horizon : *inflight_.begin();
  }

  /// After the run, report to the auditor each LP's queue-left figure and
  /// its arrivals still queued: sent, never delivered.
  void settle(const std::vector<OptimisticLp>& lps) {
    if (!aud_) return;
    std::vector<std::uint64_t> pending(lps.size(), 0);
    while (!empty()) {
      const Ev ev = pop();
      if (ev.kind == Kind::Arrival) ++pending[ev.target];
    }
    for (std::uint32_t k = 0; k < lps.size(); ++k) {
      aud_->set_pending(k, pending[k]);
      aud_->set_queue_left(k, lps[k].queue_left());
    }
  }

 private:
  std::vector<std::uint8_t> waking_;  ///< per unit: a wake-up is queued
  Auditor* aud_;
  std::priority_queue<Ev> queue_;
  std::uint64_t seq_ = 0;
  std::multiset<Tick> inflight_;
};

}  // namespace plsim
