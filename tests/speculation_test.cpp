// Speculation-control tests: adaptive conservative lookahead,
// critical-path-guided Time Warp throttling (derive_cp_guidance feeding the
// engines' per-LP vectors), the VP's sparse checkpoint accounting, and the
// release_at channel primitive. The contract everywhere is the same
// as for every other knob in this repo: results stay bit-exact against the
// golden oracle; only the synchronization schedule (promises, throttling,
// modelled costs) changes.

#include <gtest/gtest.h>

#include "engines/cmb.hpp"
#include "engines/engine.hpp"
#include "engines/lookahead.hpp"
#include "netlist/generators.hpp"
#include "partition/algorithms.hpp"
#include "partition/schedule.hpp"
#include "seq/golden.hpp"
#include "stim/stimulus.hpp"
#include "trace/critical_path.hpp"
#include "util/error.hpp"
#include "vp/vp.hpp"

namespace plsim {
namespace {

struct Workload {
  Circuit circuit;
  Stimulus stim;
  Partition partition;
  RunResult golden;
};

Workload make_workload(std::uint32_t blocks, std::uint32_t seed = 11) {
  Circuit c = scaled_circuit(600, seed);
  Stimulus s = random_stimulus(c, 20, 0.3, 5);
  Partition p = partition_fm(c, blocks, 1);
  RunResult golden = simulate_golden(c, s);
  return Workload{std::move(c), std::move(s), std::move(p),
                  std::move(golden)};
}

// ------------------------------------------- adaptive conservative lookahead

TEST(Speculation, AdaptiveLookaheadStaysBitExactUnderAudit) {
  for (std::uint32_t blocks : {2u, 4u, 8u}) {
    const Workload w = make_workload(blocks);
    EngineConfig cfg;
    cfg.plan_opt = PlanOpt::None;
    cfg.adaptive_lookahead = true;
    cfg.audit = true;  // per-(lp, dst) promise monotonicity is checked live
    const RunResult r = run_conservative(w.circuit, w.stim, w.partition, cfg);
    EXPECT_EQ(r.final_values, w.golden.final_values) << "blocks=" << blocks;
    EXPECT_EQ(r.wave.digest(), w.golden.wave.digest()) << "blocks=" << blocks;
  }
}

TEST(Speculation, ChannelBoundsAreAtLeastTheClassicLookahead) {
  // The DP distance for a channel can only *extend* the classic promise:
  // wire_dist(src, dst) >= the source block's export lookahead whenever the
  // channel is reachable through combinational fanout.
  const Workload w = make_workload(4);
  EngineConfig cfg;
  cfg.plan_opt = PlanOpt::None;
  const RunResult r = run_conservative(w.circuit, w.stim, w.partition, cfg);
  (void)r;  // builds the classic rig; bounds are checked structurally below

  const auto plan = SimPlan::build(w.circuit, w.partition.blocks(w.circuit));
  Routing routing = build_routing(w.circuit, w.partition);
  const ChannelBounds bounds = build_channel_bounds(*plan, routing);
  ASSERT_EQ(bounds.n_blocks, w.partition.n_blocks);
  for (std::uint32_t src = 0; src < bounds.n_blocks; ++src)
    for (std::uint32_t dst = 0; dst < bounds.n_blocks; ++dst) {
      if (src == dst) continue;
      EXPECT_GE(bounds.wire(src, dst), 1u)
          << src << "->" << dst << ": a zero wire bound could deadlock";
      EXPECT_GE(bounds.clock(src, dst), 1u) << src << "->" << dst;
      // Entry-restricted distances minimize over subsets of the same
      // combinational chains, so they can only be tighter (larger).
      EXPECT_GE(bounds.recv(src, dst), bounds.wire(src, dst))
          << src << "->" << dst;
      EXPECT_GE(bounds.env(src, dst), bounds.wire(src, dst))
          << src << "->" << dst;
    }
}

// ----------------------------------------- critical-path-guided speculation

TEST(Speculation, CriticalPathExportsPerLpSlack) {
  const Workload w = make_workload(4);
  const CriticalPathResult cp = analyze_critical_path(
      w.circuit, w.stim, w.partition, CostModel{});
  ASSERT_EQ(cp.lp_finish.size(), w.partition.n_blocks);
  ASSERT_EQ(cp.lp_slack.size(), w.partition.n_blocks);
  double max_finish = 0.0, min_slack = cp.cp_time;
  for (std::uint32_t b = 0; b < w.partition.n_blocks; ++b) {
    EXPECT_GE(cp.lp_slack[b], 0.0);
    EXPECT_NEAR(cp.lp_slack[b], cp.cp_time - cp.lp_finish[b], 1e-9);
    max_finish = std::max(max_finish, cp.lp_finish[b]);
    min_slack = std::min(min_slack, cp.lp_slack[b]);
  }
  // Some block finishes last: it defines the critical path and has no slack.
  EXPECT_NEAR(max_finish, cp.cp_time, 1e-9);
  EXPECT_NEAR(min_slack, 0.0, 1e-9);
  // Per-LP work covers every batch: it can never exceed, and with more than
  // one block never reaches, the full sequential span of the causal graph.
  ASSERT_EQ(cp.lp_work.size(), w.partition.n_blocks);
  double total_work = 0.0;
  for (const double work : cp.lp_work) {
    EXPECT_GT(work, 0.0);
    EXPECT_GE(cp.cp_time, 0.0);
    total_work += work;
  }
  EXPECT_GE(total_work, cp.cp_time);
}

TEST(Speculation, DeriveCpGuidanceThrottlesWorkDeficitLps) {
  CriticalPathResult cp;
  cp.cp_time = 100.0;
  // Streaming-stimulus shape: everyone finishes at the horizon (no finish
  // slack clears the threshold) but one block carries over twice its fair
  // share of the load, so the work-deficit margin engages.
  cp.lp_slack = {0.0, 1.0, 1.0, 1.0};
  cp.lp_finish = {100.0, 99.0, 99.0, 99.0};
  cp.lp_work = {1200.0, 100.0, 900.0, 100.0};
  const CpGuidance g = derive_cp_guidance(cp, /*window=*/16,
                                          /*save_interval=*/4,
                                          /*slack_threshold=*/0.25);
  // The heaviest LP gates the makespan and must stay unthrottled; so must
  // block 2, whose load is within 25% of it. The light LPs get the window.
  EXPECT_EQ(g.lp_optimism, (std::vector<Tick>{0, 16, 0, 16}));
  EXPECT_EQ(g.lp_save_interval, (std::vector<std::uint32_t>{1, 4, 1, 4}));
}

TEST(Speculation, DeriveCpGuidanceNeverThrottlesTheGater) {
  CriticalPathResult cp;
  cp.cp_time = 100.0;
  // The gater has zero slack: even though its work ties the maximum with
  // another LP, zero slack must keep it unthrottled.
  cp.lp_slack = {0.0, 50.0};
  cp.lp_finish = {100.0, 50.0};
  cp.lp_work = {500.0, 500.0};
  const CpGuidance g = derive_cp_guidance(cp, 16, 4, 0.25);
  EXPECT_EQ(g.lp_optimism[0], 0u);
  // Block 1 clears the finish-slack margin instead (50% > 25%).
  EXPECT_EQ(g.lp_optimism[1], 16u);
}

TEST(Speculation, DeriveCpGuidanceBalancedPartitionIsANoOp) {
  CriticalPathResult cp;
  cp.cp_time = 100.0;
  cp.lp_slack = {0.0, 1.0, 2.0, 1.0};
  cp.lp_finish = {100.0, 99.0, 98.0, 99.0};
  // Block 2 sits below 75% of the maximum, but no LP carries twice its fair
  // share — the ratios are load noise, not structure, so nothing throttles.
  cp.lp_work = {260.0, 240.0, 180.0, 250.0};
  const CpGuidance g = derive_cp_guidance(cp, 16, 4, 0.25);
  EXPECT_EQ(g.lp_optimism, (std::vector<Tick>{0, 0, 0, 0}));
  EXPECT_EQ(g.lp_save_interval, (std::vector<std::uint32_t>{1, 1, 1, 1}));
}

TEST(Speculation, DeriveCpGuidanceClassifiesBySlack) {
  CriticalPathResult cp;
  cp.cp_time = 100.0;
  cp.lp_slack = {0.0, 10.0, 30.0, 90.0};  // 0%, 10%, 30%, 90% relative slack
  cp.lp_finish = {100.0, 90.0, 70.0, 10.0};
  const CpGuidance g = derive_cp_guidance(cp, /*window=*/32,
                                          /*save_interval=*/4,
                                          /*slack_threshold=*/0.25);
  ASSERT_EQ(g.lp_optimism.size(), 4u);
  ASSERT_EQ(g.lp_save_interval.size(), 4u);
  // On-path and near-path LPs run free with dense checkpoints.
  EXPECT_EQ(g.lp_optimism[0], 0u);
  EXPECT_EQ(g.lp_optimism[1], 0u);
  EXPECT_EQ(g.lp_save_interval[0], 1u);
  EXPECT_EQ(g.lp_save_interval[1], 1u);
  // Off-path LPs (relative slack > 0.25) get the throttle + sparse saves.
  EXPECT_EQ(g.lp_optimism[2], 32u);
  EXPECT_EQ(g.lp_optimism[3], 32u);
  EXPECT_EQ(g.lp_save_interval[2], 4u);
  EXPECT_EQ(g.lp_save_interval[3], 4u);
}

TEST(Speculation, DeriveCpGuidanceDegenerateCpIsAllUnthrottled) {
  CriticalPathResult cp;  // cp_time = 0: nothing ran; never divide by zero
  cp.lp_slack = {0.0, 0.0};
  const CpGuidance g = derive_cp_guidance(cp, 32, 4, 0.25);
  EXPECT_EQ(g.lp_optimism, (std::vector<Tick>{0, 0}));
  EXPECT_EQ(g.lp_save_interval, (std::vector<std::uint32_t>{1, 1}));
}

TEST(Speculation, DeriveCpGuidanceRejectsSlackThresholdOutsideUnitInterval) {
  CriticalPathResult cp;
  cp.cp_time = 100.0;
  cp.lp_slack = {0.0, 50.0};
  cp.lp_finish = {100.0, 50.0};
  cp.lp_work = {500.0, 250.0};
  EXPECT_THROW(derive_cp_guidance(cp, 32, 4, 1.5), Error);
  EXPECT_THROW(derive_cp_guidance(cp, 32, 4, -0.1), Error);
  EXPECT_NO_THROW(derive_cp_guidance(cp, 32, 4, 0.0));  // boundaries are fine
  EXPECT_NO_THROW(derive_cp_guidance(cp, 32, 4, 1.0));
}

TEST(Speculation, CpGuidedTimewarpStaysBitExactUnderAudit) {
  for (std::uint32_t blocks : {2u, 4u}) {
    const Workload w = make_workload(blocks);
    const CriticalPathResult cp = analyze_critical_path(
        w.circuit, w.stim, w.partition, CostModel{});
    EngineConfig cfg;
    cfg.plan_opt = PlanOpt::None;
    cfg.lp_optimism = derive_cp_guidance(cp, 32, 4, 0.25).lp_optimism;
    cfg.audit = true;
    const RunResult r = run_timewarp(w.circuit, w.stim, w.partition, cfg);
    EXPECT_EQ(r.final_values, w.golden.final_values) << "blocks=" << blocks;
    EXPECT_EQ(r.wave.digest(), w.golden.wave.digest()) << "blocks=" << blocks;
  }
}

TEST(Speculation, CpGuidedConservativeStaysBitExact) {
  // Slack cannot soundly extend a conservative promise, so the conservative
  // side of the layer is adaptive lookahead on a scheduled partition.
  const Workload w = make_workload(4);
  EngineConfig cfg;
  cfg.plan_opt = PlanOpt::None;
  cfg.adaptive_lookahead = true;
  const RunResult r = run_conservative(
      w.circuit, w.stim, schedule_partition(w.circuit, w.partition), cfg);
  EXPECT_EQ(r.final_values, w.golden.final_values);
  EXPECT_EQ(r.wave.digest(), w.golden.wave.digest());
}

TEST(Speculation, ExplicitPerLpThrottleStaysBitExact) {
  const Workload w = make_workload(4);
  EngineConfig cfg;
  cfg.plan_opt = PlanOpt::None;
  cfg.lp_optimism = {0, 16, 16, 0};  // throttle the middle blocks only
  cfg.audit = true;
  const RunResult r = run_timewarp(w.circuit, w.stim, w.partition, cfg);
  EXPECT_EQ(r.final_values, w.golden.final_values);
  EXPECT_EQ(r.wave.digest(), w.golden.wave.digest());
}

// ------------------------------------------------- virtual-platform mirror

TEST(Speculation, VpConservativeAdaptiveLookaheadStaysBitExact) {
  const Workload w = make_workload(4);
  VpConfig base;
  const VpResult classic = run_conservative_vp(w.circuit, w.stim,
                                               w.partition, base);
  VpConfig adaptive = base;
  adaptive.cons_adaptive_lookahead = true;
  adaptive.audit = true;
  const VpResult r = run_conservative_vp(w.circuit, w.stim, w.partition,
                                         adaptive);
  EXPECT_EQ(r.final_values, w.golden.final_values);
  EXPECT_EQ(r.wave_digest, classic.wave_digest);
  // Wider promises can only reduce the null-message volume.
  EXPECT_LE(r.stats.null_messages, classic.stats.null_messages);
}

TEST(Speculation, VpTimewarpCpGuidanceStaysBitExact) {
  const Workload w = make_workload(4);
  const CriticalPathResult cp = analyze_critical_path(
      w.circuit, w.stim, w.partition, CostModel{});
  const CpGuidance guide = derive_cp_guidance(cp, 32, 4, 0.25);
  VpConfig cfg;
  cfg.lazy_cancellation = true;
  cfg.lp_optimism = guide.lp_optimism;
  cfg.lp_save_interval = guide.lp_save_interval;
  cfg.audit = true;
  const VpResult r = run_timewarp_vp(w.circuit, w.stim, w.partition, cfg);
  EXPECT_EQ(r.final_values, w.golden.final_values);
}

TEST(Speculation, VpTimewarpSparseCheckpointsCostLessNeverMore) {
  const Workload w = make_workload(4);
  VpConfig dense;
  dense.lazy_cancellation = true;
  const VpResult a = run_timewarp_vp(w.circuit, w.stim, w.partition, dense);
  VpConfig sparse = dense;
  sparse.lp_save_interval.assign(w.partition.n_blocks, 8);
  const VpResult b = run_timewarp_vp(w.circuit, w.stim, w.partition, sparse);
  EXPECT_EQ(b.final_values, w.golden.final_values);
  EXPECT_EQ(a.wave_digest, b.wave_digest);
  // Skipped checkpoint charges show up in the model. Pinned for this
  // workload only: a different rollback schedule can cost more elsewhere.
  EXPECT_LT(b.busy, a.busy);
  EXPECT_LE(b.makespan, a.makespan);
}

// ----------------------------------------------------- channel primitives

TEST(Speculation, ReleaseAtNeverRegressesThePromise) {
  CmbOutChannel ch(/*dst=*/1, /*lookahead=*/5);
  auto r1 = ch.release_at(50, 1000);
  EXPECT_TRUE(r1.send_null);
  EXPECT_EQ(r1.promise, 50u);
  EXPECT_EQ(ch.promised(), 50u);
  // Adaptive bounds are not monotone turn over turn; the channel must clamp.
  auto r2 = ch.release_at(30, 1000);
  EXPECT_FALSE(r2.send_null);  // nothing new to promise
  EXPECT_EQ(ch.promised(), 50u);
  auto r3 = ch.release_at(60, 1000);
  EXPECT_TRUE(r3.send_null);
  EXPECT_EQ(r3.promise, 60u);
}

TEST(Speculation, ReleaseAtReleasesExactlyTheCoveredMessages) {
  CmbOutChannel ch(1, 5);
  ch.buffer(Message{10, 0, Logic4::T});
  ch.buffer(Message{20, 1, Logic4::F});
  ch.buffer(Message{40, 2, Logic4::T});
  auto r = ch.release_at(20, 1000);
  ASSERT_EQ(r.real.size(), 2u);
  EXPECT_EQ(r.real[0].time, 10u);
  EXPECT_EQ(r.real[1].time, 20u);
  // The trailing real message carries the promise; no null needed.
  EXPECT_FALSE(r.send_null);
  EXPECT_EQ(ch.promised(), 20u);
  EXPECT_EQ(ch.buffered_min(), 40u);
  // The promise is clamped to the horizon.
  auto r2 = ch.release_at(5000, 100);
  ASSERT_EQ(r2.real.size(), 1u);
  EXPECT_EQ(r2.real[0].time, 40u);
  EXPECT_EQ(ch.promised(), 100u);
}

}  // namespace
}  // namespace plsim
