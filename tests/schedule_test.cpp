// Schedule-determinism tests (ISSUE 9, satellite c): the cache-aware block
// schedule (src/partition/schedule.hpp) must be a pure function of
// (circuit, partition, activity) — byte-identical order and digest on every
// rebuild, for every worker count — and renumbering the partition along it
// must leave every engine's results bit-exact against the golden oracle.
// The suite runs under the sanitizer matrix like every other tier-1 test,
// so the cross-worker-count sweeps double as TSan coverage for the
// scheduled engine paths.

#include <gtest/gtest.h>

#include <set>

#include "engines/common.hpp"
#include "engines/engine.hpp"
#include "netlist/generators.hpp"
#include "partition/activity.hpp"
#include "partition/algorithms.hpp"
#include "partition/schedule.hpp"
#include "seq/golden.hpp"
#include "sim/plan.hpp"
#include "stim/stimulus.hpp"

namespace plsim {
namespace {

Circuit test_circuit() { return scaled_circuit(600, 11); }

// The planning pipeline a caller runs before an engine: an activity-weighted
// repartition, then a block schedule weighted by the profiled net traffic.
Partition planned_partition(const Circuit& c, const Stimulus& s,
                            std::uint32_t blocks) {
  const ActivityProfile prof = profile_activity(c, s, 6);
  return schedule_partition(c, partition_with_activity(c, blocks, 1, prof),
                            compress_counts(prof.messages));
}

TEST(Schedule, IsAPermutationOfTheBlocks) {
  const Circuit c = test_circuit();
  for (std::uint32_t blocks : {2u, 4u, 8u}) {
    const Partition p = partition_fm(c, blocks, 1);
    const BlockSchedule s = build_block_schedule(c, p);
    ASSERT_EQ(s.order.size(), blocks);
    std::set<std::uint32_t> seen(s.order.begin(), s.order.end());
    EXPECT_EQ(seen.size(), blocks);  // each block exactly once
    EXPECT_EQ(*seen.rbegin(), blocks - 1);
  }
}

TEST(Schedule, ByteIdenticalAcrossRebuilds) {
  // Same circuit + partition + seed => byte-identical schedule, including
  // when circuit and partition are reconstructed from scratch.
  for (std::uint32_t blocks : {2u, 4u, 8u}) {
    const Circuit c1 = test_circuit();
    const Partition p1 = partition_fm(c1, blocks, 1);
    const BlockSchedule a = build_block_schedule(c1, p1);
    const BlockSchedule b = build_block_schedule(c1, p1);
    EXPECT_EQ(a.order, b.order);
    EXPECT_EQ(a.digest, b.digest);

    const Circuit c2 = test_circuit();
    const Partition p2 = partition_fm(c2, blocks, 1);
    const BlockSchedule c = build_block_schedule(c2, p2);
    EXPECT_EQ(a.order, c.order) << "blocks=" << blocks;
    EXPECT_EQ(a.digest, c.digest) << "blocks=" << blocks;
  }
}

TEST(Schedule, ActivityWeightedScheduleIsDeterministic) {
  const Circuit c = test_circuit();
  const Stimulus s = random_stimulus(c, 20, 0.3, 5);
  const Partition p = partition_fm(c, 8, 1);
  const ActivityProfile prof = profile_activity(c, s, 8);
  const std::vector<std::uint32_t> msgs = compress_counts(prof.messages);
  const BlockSchedule a = build_block_schedule(c, p, msgs);
  const BlockSchedule b = build_block_schedule(c, p, msgs);
  EXPECT_EQ(a.order, b.order);
  EXPECT_EQ(a.digest, b.digest);
}

TEST(Schedule, PartitionRenumberingPreservesTheAssignment) {
  const Circuit c = test_circuit();
  const Partition p = partition_fm(c, 8, 1);
  const Partition q = schedule_partition(c, p);
  validate_partition(c, q);
  ASSERT_EQ(q.n_blocks, p.n_blocks);
  // Only the block labels change: two gates share a block in q iff they
  // shared one in p, and block sizes are a permutation of the originals.
  const BlockSchedule s = build_block_schedule(c, p);
  std::vector<std::uint32_t> new_of_old(p.n_blocks);
  for (std::uint32_t i = 0; i < p.n_blocks; ++i) new_of_old[s.order[i]] = i;
  for (GateId g = 0; g < c.gate_count(); ++g)
    EXPECT_EQ(q.block_of[g], new_of_old[p.block_of[g]]);
}

TEST(Schedule, ScheduledBlocksGetAdjacentValueSlices) {
  // After schedule_partition, block ids follow the schedule, so SimPlan's
  // partition-first renumbering gives schedule-adjacent blocks contiguous
  // value slices: slice_begin is nondecreasing and tiles the owned plan.
  const Circuit c = test_circuit();
  const Partition q = schedule_partition(c, partition_fm(c, 8, 1));
  const auto plan = SimPlan::build(c, q.blocks(c));
  ASSERT_EQ(plan->n_blocks(), q.n_blocks);
  for (std::uint32_t b = 0; b < plan->n_blocks(); ++b) {
    EXPECT_LE(plan->slice_begin(b), plan->slice_begin(b + 1));
    for (std::uint32_t pi = plan->slice_begin(b);
         pi < plan->slice_begin(b + 1); ++pi)
      EXPECT_EQ(plan->block_of(pi), b);
  }
  EXPECT_LE(plan->slice_begin(plan->n_blocks()), plan->size());
}

TEST(Schedule, EnginesStayBitExactAcrossWorkerCounts) {
  const Circuit c = test_circuit();
  const Stimulus s = random_stimulus(c, 20, 0.3, 5);
  const RunResult golden = simulate_golden(c, s);
  for (std::uint32_t blocks : {2u, 4u, 8u}) {
    const Partition p = schedule_partition(c, partition_fm(c, blocks, 1));
    EngineConfig cfg;
    cfg.plan_opt = PlanOpt::None;
    for (const NamedEngine& e : standard_engines()) {
      const RunResult r = e.run(c, s, p, cfg);
      EXPECT_EQ(r.final_values, golden.final_values)
          << e.name << " blocks=" << blocks;
      EXPECT_EQ(r.wave.digest(), golden.wave.digest())
          << e.name << " blocks=" << blocks;
    }
  }
}

TEST(Schedule, ComposesWithActivityFeedback) {
  const Circuit c = test_circuit();
  const Stimulus s = random_stimulus(c, 20, 0.3, 5);
  const RunResult golden = simulate_golden(c, s);
  const Partition p = planned_partition(c, s, 4);
  EngineConfig cfg;
  cfg.plan_opt = PlanOpt::None;
  const RunResult r = run_conservative(c, s, p, cfg);
  EXPECT_EQ(r.final_values, golden.final_values);
  EXPECT_EQ(r.wave.digest(), golden.wave.digest());
}

TEST(Schedule, PlannedPartitionRunsFromAPrecompiledRig) {
  // A planned partition is just a partition: compile it once, then every
  // engine instantiates its blocks from the shared rig and matches the
  // batch path that compiles per run.
  const Circuit c = test_circuit();
  const Stimulus s = random_stimulus(c, 20, 0.3, 5);
  const Partition p = planned_partition(c, s, 4);
  EngineConfig batch;
  batch.plan_opt = PlanOpt::Safe;
  EngineConfig hot = batch;
  hot.compiled = std::make_shared<const CompiledRig>(
      compile_rig(c, p, s.period, PlanOpt::Safe));
  for (const NamedEngine& e : standard_engines()) {
    const RunResult want = e.run(c, s, p, batch);
    const RunResult got = e.run(c, s, p, hot);
    EXPECT_EQ(got.final_values, want.final_values) << e.name;
    EXPECT_EQ(got.wave.digest(), want.wave.digest()) << e.name;
  }
}

}  // namespace
}  // namespace plsim
