#include "trace/critical_path.hpp"

#include <algorithm>
#include <queue>
#include <vector>

#include "core/block.hpp"
#include "engines/common.hpp"
#include "util/error.hpp"
#include "vp/vp.hpp"

namespace plsim {
namespace {

/// A cross-block message annotated with the causal readiness of its sender:
/// the consuming batch may not start before `ready`.
struct CpMsg {
  Message msg;
  double ready = 0.0;        ///< sender batch finish time
  std::uint64_t chain = 0;   ///< batches on the sender's longest chain
};

struct CpMsgLater {
  bool operator()(const CpMsg& a, const CpMsg& b) const {
    if (a.msg.time != b.msg.time) return a.msg.time > b.msg.time;
    return a.msg.gate > b.msg.gate;
  }
};
using CpStaged = std::priority_queue<CpMsg, std::vector<CpMsg>, CpMsgLater>;

}  // namespace

CriticalPathResult analyze_critical_path(const Circuit& c,
                                         const Stimulus& stim,
                                         const Partition& p,
                                         const CostModel& cost,
                                         double cost_scale) {
  BlockOptions bopts;
  bopts.clock_period = stim.period;
  bopts.horizon = stim.horizon();
  bopts.save = SaveMode::None;
  BlockRig rig =
      instantiate_rig(c, stim, compile_rig(c, p, stim.period), bopts);

  const std::uint32_t n_blocks = p.n_blocks;
  const Tick horizon = bopts.horizon;

  std::vector<CpStaged> staged(n_blocks);
  std::vector<std::size_t> env_pos(n_blocks, 0);
  // Earliest time block b can start its next batch (= previous batch finish)
  // and the chain length that produced it.
  std::vector<double> block_ready(n_blocks, 0.0);
  std::vector<std::uint64_t> block_chain(n_blocks, 0);
  std::vector<double> lp_work(n_blocks, 0.0);

  CriticalPathResult res;
  std::vector<Message> externals, outputs;

  auto block_next = [&](std::uint32_t b) {
    Tick mine = rig.blocks[b]->next_internal_time();
    if (env_pos[b] < rig.env[b].size())
      mine = std::min(mine, rig.env[b][env_pos[b]].time);
    if (!staged[b].empty()) mine = std::min(mine, staged[b].top().msg.time);
    return mine;
  };

  // Global event-time sweep, exactly the batch decomposition of the
  // synchronous executor: one batch per (block, distinct event time). Gate
  // delays are >= 1 tick, so messages produced at `front` always target a
  // later tick — one pass per front is complete.
  for (;;) {
    Tick front = kTickInf;
    for (std::uint32_t b = 0; b < n_blocks; ++b)
      front = std::min(front, block_next(b));
    if (front >= horizon || front == kTickInf) break;

    for (std::uint32_t b = 0; b < n_blocks; ++b) {
      if (block_next(b) != front) continue;
      externals.clear();
      double dep_ready = block_ready[b];
      std::uint64_t dep_chain = block_chain[b];
      auto& env = rig.env[b];
      while (env_pos[b] < env.size() && env[env_pos[b]].time == front)
        externals.push_back(env[env_pos[b]++]);
      while (!staged[b].empty() && staged[b].top().msg.time == front) {
        const CpMsg& m = staged[b].top();
        if (m.ready > dep_ready) {
          dep_ready = m.ready;
          dep_chain = m.chain;
        }
        externals.push_back(m.msg);
        staged[b].pop();
      }
      if (externals.empty() &&
          rig.blocks[b]->next_internal_time() != front)
        continue;

      outputs.clear();
      const BatchStats bs =
          rig.blocks[b]->process_batch(front, externals, outputs);
      const double bcost = cost_scale * batch_cost(cost, bs, SaveMode::None);
      lp_work[b] += bcost;
      const double finish = dep_ready + bcost;
      block_ready[b] = finish;
      block_chain[b] = dep_chain + 1;
      ++res.batches;
      for (const Message& m : outputs) {
        for (std::uint32_t dst : rig.routing.dests[m.gate]) {
          staged[dst].push(CpMsg{m, finish, block_chain[b]});
          ++res.messages;
        }
      }
    }
  }

  for (std::uint32_t b = 0; b < n_blocks; ++b) {
    if (block_ready[b] > res.cp_time) {
      res.cp_time = block_ready[b];
      res.cp_batches = block_chain[b];
    }
  }
  res.lp_finish = block_ready;
  res.lp_slack.resize(n_blocks);
  for (std::uint32_t b = 0; b < n_blocks; ++b)
    res.lp_slack[b] = res.cp_time - block_ready[b];
  res.lp_work = std::move(lp_work);
  res.seq_work = sequential_cost(c, stim, cost).work;
  res.bound_speedup = res.cp_time > 0.0 ? res.seq_work / res.cp_time : 0.0;
  return res;
}

CpGuidance derive_cp_guidance(const CriticalPathResult& cp, Tick window,
                              std::uint32_t save_interval,
                              double slack_threshold) {
  PLSIM_CHECK(window >= 1, "derive_cp_guidance: window must be >= 1");
  PLSIM_CHECK(save_interval >= 1,
              "derive_cp_guidance: save interval must be >= 1");
  PLSIM_CHECK(slack_threshold >= 0.0 && slack_threshold <= 1.0,
              "derive_cp_guidance: slack threshold must lie in [0, 1] (it is "
              "a fraction of the critical-path time)");
  const std::size_t n = cp.lp_slack.size();
  CpGuidance g;
  g.lp_optimism.assign(n, 0);
  g.lp_save_interval.assign(n, 1);
  if (cp.cp_time <= 0.0) return g;
  double max_work = 0.0, total_work = 0.0;
  for (const double w : cp.lp_work) {
    max_work = std::max(max_work, w);
    total_work += w;
  }
  // The work-deficit margin only makes sense when the heaviest LP genuinely
  // gates the makespan: require it to carry at least twice its fair share.
  // On a balanced partition the work ratios are noise (every LP hovers near
  // the mean) and throttling any of them just adds stalls.
  const bool imbalanced =
      !cp.lp_work.empty() &&
      max_work * static_cast<double>(cp.lp_work.size()) >= 2.0 * total_work;
  for (std::size_t b = 0; b < n; ++b) {
    // Finish-time margin: the LP's last batch completes well before the
    // critical path ends. Rare on streaming stimulus, where every block
    // keeps batching until the horizon and finish times converge.
    const bool slack_margin = cp.lp_slack[b] / cp.cp_time > slack_threshold;
    // Work-deficit margin: the LP carries meaningfully less load than the
    // dominant one. That LP gates the makespan, so light LPs (any positive
    // slack confirms they are not the gater) can absorb a bounded optimism
    // window without moving it.
    const bool work_margin =
        imbalanced && b < cp.lp_work.size() && max_work > 0.0 &&
        cp.lp_slack[b] > 0.0 &&
        cp.lp_work[b] < (1.0 - slack_threshold) * max_work;
    if (slack_margin || work_margin) {
      g.lp_optimism[b] = window;
      g.lp_save_interval[b] = save_interval;
    }
  }
  return g;
}

}  // namespace plsim
