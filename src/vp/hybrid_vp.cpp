// Virtual-platform hybrid hierarchical executor (paper §VI): "hierarchical
// synchronization, using either a synchronous or conservative asynchronous
// algorithm within a cluster of processors and using an optimistic
// asynchronous algorithm across clusters ... especially attractive for
// naturally hierarchical execution platforms".
//
// Each cluster owns hybrid_cluster_size blocks, one processor per block.
// Inside a cluster the blocks advance in lockstep (a barrier-synchronized
// timestep, messages through shared memory); across clusters the whole
// cluster behaves as one optimistic super-LP (an engines/optimistic.hpp LP
// of several blocks): a straggler from another cluster rolls the entire
// cluster back. Intra-cluster messages are part of the cluster's own history
// (removed on rollback); inter-cluster messages are cancelled with
// anti-messages (aggressive cancellation).

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

VpResult run_hybrid_vp(const Circuit& c, const Stimulus& stim,
                       const Partition& p, const VpConfig& cfg) {
  BlockOptions bopts;
  bopts.clock_period = stim.period;
  bopts.horizon = stim.horizon();
  bopts.save = SaveMode::Incremental;
  BlockRig rig =
      instantiate_rig(c, stim, compile_rig(c, p, stim.period), bopts);

  const std::uint32_t n_blocks = p.n_blocks;
  const Tick horizon = bopts.horizon;
  const CostModel& cost = cfg.cost;
  const std::uint32_t csize = std::max<std::uint32_t>(1, cfg.hybrid_cluster_size);
  const std::uint32_t n_clusters = (n_blocks + csize - 1) / csize;
  const double inter_latency = cost.msg_latency * cfg.inter_latency_factor;

  auto cluster_of = [&](std::uint32_t b) { return b / csize; };

  // The auditor's LPs are the clusters: each cluster is one optimistic
  // super-LP (intra-cluster messages are internal state, not transport).
  std::optional<Auditor> aud;
  if (cfg.audit || Auditor::env_enabled())
    aud.emplace("hybrid-vp", n_clusters, horizon);

  std::vector<OptimisticLp> lps;
  lps.reserve(n_clusters);
  for (std::uint32_t k = 0; k < n_clusters; ++k)
    lps.emplace_back(k, false, aud ? &*aud : nullptr);
  for (std::uint32_t b = 0; b < n_blocks; ++b)
    lps[cluster_of(b)].add_block(b, *rig.blocks[b], rig.env[b]);
  std::vector<double> clock(n_clusters, 0.0);
  OptimisticDes des(n_clusters, aud ? &*aud : nullptr);  // wakes clusters
  Tick gvt = 0;

  // One lane per cluster (the optimistic super-LP), on the modelled clock.
  trace::Session tsn("hybrid-vp", n_clusters,
                     trace::ClockKind::VirtualMilliUnits);

  VpResult r;
  r.procs = n_blocks;  // one processor per block, csize per cluster node
  std::vector<Message> externals, outputs;
  std::vector<Rng> jitter;
  for (std::uint32_t k = 0; k < n_clusters; ++k)
    jitter.emplace_back(cfg.jitter_seed ^ (0x517cu + k));

  auto schedule_wake = [&](std::uint32_t k) { des.wake(clock[k], k); };

  auto send_inter = [&](std::uint32_t k, const OptMsg& m) {
    clock[k] += cost.msg_send;
    r.busy += cost.msg_send;
    if (aud) aud->on_send(k, m.msg.time);
    des.send(clock[k] + inter_latency, cluster_of(m.dst), m);
    if (m.anti) {
      PLSIM_TRACE_VMARK(tsn.lane(k), AntiMsg, clock[k], m.msg.time, m.dst);
      ++r.stats.anti_messages;
    } else {
      PLSIM_TRACE_VMARK(tsn.lane(k), Send, clock[k], m.msg.time, m.dst);
      ++r.stats.messages;
    }
  };

  auto rollback = [&](std::uint32_t k, Tick t) {
    double w = cost.rollback_fixed;
    std::uint32_t undone = 0;
    lps[k].rewind(t, [&](const BlockSimulator::RollbackStats& rs) {
      w += rs.entries * cost.undo_replay;
      undone += rs.batches;
    });
    PLSIM_TRACE_VSPAN(tsn.lane(k), Rollback, clock[k], clock[k] + w, t,
                      undone);
    clock[k] += w;
    r.busy += w;
    lps[k].retract(t, [&](const OptMsg& anti) { send_inter(k, anti); });
    r.stats.rolled_back_batches += undone;
  };

  // One synchronized cluster timestep: all member blocks process time nt.
  auto work = [&](std::uint32_t k) {
    OptimisticLp& lp = lps[k];
    const Tick nt = lp.next_batch(horizon);
    if (nt >= horizon || beyond_window(nt, gvt, cfg.optimism_window)) return;

    if (aud) aud->on_batch(k, nt);
    double max_member = 0.0;
    double send_work = 0.0;
    std::uint32_t stepped = 0;  // member blocks that actually ran a batch
    std::vector<OptMsg> to_send;  // dispatched after the step cost is charged
    for (std::size_t i = 0; i < lp.size(); ++i) {
      externals.clear();
      lp.gather(i, nt, externals);
      BlockSimulator& block = lp.block(i);
      if (externals.empty() && block.next_internal_time() != nt) continue;

      outputs.clear();
      const BatchStats bs = block.process_batch(nt, externals, outputs);
      max_member = std::max(max_member, batch_cost(cost, bs, bopts.save));
      ++stepped;
      for (const Message& m : outputs) {
        for (std::uint32_t dst : rig.routing.dests[m.gate]) {
          if (cluster_of(dst) == k) {
            send_work += cost.event;
            lp.log_send(nt, m, dst, /*local=*/true);
            ++r.stats.messages;
          } else {
            to_send.push_back(lp.log_send(nt, m, dst));
          }
        }
      }
    }
    lp.processed(nt);
    const double w =
        (max_member + send_work + cost.smp_barrier_cost(csize)) *
        cfg.noise(jitter[k]);
    PLSIM_TRACE_VSPAN(tsn.lane(k), Eval, clock[k], clock[k] + w, nt, stepped);
    clock[k] += w;
    r.busy += w * csize;  // every member processor occupies the step
    r.stats.barriers += csize;
    // Network sends depart once the step's computation has finished.
    for (const OptMsg& hm : to_send) send_inter(k, hm);
    schedule_wake(k);
  };

  for (std::uint32_t k = 0; k < n_clusters; ++k) schedule_wake(k);
  des.gvt_round(cfg.gvt_period);

  while (!des.empty() && gvt < horizon) {
    const OptimisticDes::Ev ev = des.pop();
    switch (ev.kind) {
      case OptimisticDes::Kind::Wake:
        work(ev.target);
        break;
      case OptimisticDes::Kind::Arrival: {
        const std::uint32_t k = ev.target;
        clock[k] = std::max(clock[k], ev.at) + cost.msg_recv;
        r.busy += cost.msg_recv;
        PLSIM_TRACE_VMARK(tsn.lane(k), Recv, clock[k], ev.msg.msg.time,
                          ev.msg.dst);
        if (aud) aud->on_deliver(k, ev.msg.msg.time);
        lps[k].receive(ev.msg, [&](Tick t) { rollback(k, t); });
        schedule_wake(k);
        break;
      }
      case OptimisticDes::Kind::Gvt: {
        Tick new_gvt = des.inflight_min(horizon);
        for (std::uint32_t k = 0; k < n_clusters; ++k)
          new_gvt = std::min(new_gvt, lps[k].gvt_bound(horizon));
        gvt = std::max(gvt, new_gvt);
        if (aud) aud->on_gvt(gvt);
        ++r.stats.gvt_rounds;
        PLSIM_TRACE_VMARK(tsn.lane(0), GvtRound, ev.at, gvt,
                          static_cast<std::uint32_t>(r.stats.gvt_rounds));
        for (std::uint32_t k = 0; k < n_clusters; ++k) {
          double w = cost.barrier_cost(n_clusters) + cost.gvt_per_proc;
          lps[k].collect_fossils(gvt, [&](std::size_t dropped) {
            w += dropped * cost.fossil_per_batch;
          });
          clock[k] = std::max(clock[k], ev.at) + w;
          r.busy += w;
          schedule_wake(k);
        }
        if (gvt < horizon)
          des.gvt_round(ev.at + cfg.gvt_period);
        break;
      }
    }
  }

  for (std::uint32_t k = 0; k < n_clusters; ++k)
    r.makespan = std::max(r.makespan, clock[k]);

  des.settle(lps);
  for (const OptimisticLp& lp : lps) r.stats.rollbacks += lp.rollbacks();

  flush_block_activity(tsn, rig);

  collect_rig_results(c, rig, r);
  if (aud) aud->finalize();
  return r;
}

}  // namespace plsim
