// Tests for the trace -> partition feedback loop (paper §III/§VI): the
// activity profiler, the binary-trace activity extractor, and engines run
// on the activity-weighted partition they are handed.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>

#include "engines/common.hpp"
#include "engines/engine.hpp"
#include "netlist/generators.hpp"
#include "partition/activity.hpp"
#include "partition/algorithms.hpp"
#include "seq/golden.hpp"
#include "stim/stimulus.hpp"
#include "trace/reader.hpp"
#include "trace/trace.hpp"

namespace plsim {
namespace {

TEST(Activity, ProfileMatchesPresimulation) {
  const Circuit c = scaled_circuit(500, 7);
  const Stimulus s = random_stimulus(c, 40, 0.3, 5);
  const std::size_t cycles = 12;

  const ActivityProfile prof = profile_activity(c, s, cycles);
  ASSERT_EQ(prof.evals.size(), c.gate_count());
  ASSERT_EQ(prof.messages.size(), c.gate_count());
  EXPECT_EQ(prof.source, "presim");

  // The profile is a golden run of the first `cycles` vectors: its per-gate
  // evals (DFF samples count as evals of the flip-flop) sum to that run's
  // evaluation and sample counters, and its per-driver messages to that
  // run's committed changes.
  Stimulus shortened = s;
  shortened.vectors.resize(cycles);
  const RunResult golden = simulate_golden(c, shortened);
  std::uint64_t total_evals = 0, total_msgs = 0;
  for (std::uint64_t e : prof.evals) total_evals += e;
  for (std::uint64_t m : prof.messages) total_msgs += m;
  EXPECT_EQ(total_evals,
            golden.stats.evaluations + golden.stats.dff_samples);
  EXPECT_EQ(total_msgs, golden.stats.wire_events);
  EXPECT_GT(total_msgs, 0u);  // something toggled
}

TEST(Activity, CompressCountsPreservesRatiosAndUniformity) {
  const std::vector<std::uint64_t> small = {3, 0, 7, 7};
  const auto cs = compress_counts(small);
  EXPECT_EQ(cs, (std::vector<std::uint32_t>{3, 0, 7, 7}));

  const std::vector<std::uint64_t> big = {1ull << 40, 1ull << 33, 1ull << 32};
  const auto cb = compress_counts(big);
  // Uniform right-shift: ratios survive, max fits uint32.
  EXPECT_EQ(cb[0], (1u << 31));
  EXPECT_EQ(cb[1], (1u << 24));
  EXPECT_EQ(cb[2], (1u << 23));

  const std::vector<std::uint64_t> uniform(10, (1ull << 36) + 5);
  const auto cu = compress_counts(uniform);
  for (std::uint32_t v : cu) EXPECT_EQ(v, cu[0]);  // uniform stays uniform
}

std::string temp_trace_path(const char* name) {
  return ::testing::TempDir() + name;
}

/// A synchronous-engine run with tracing armed at `path`; returns the path
/// the run actually wrote (process-global run numbering).
std::string traced_sync_run(const Circuit& c, const Stimulus& s,
                            const Partition& p, const std::string& path) {
  const std::uint32_t before =
      trace::run_counter().load(std::memory_order_relaxed);
  ::setenv("PLSIM_TRACE", (path + ":4096").c_str(), 1);
  EngineConfig cfg;
  cfg.plan_opt = PlanOpt::None;  // keep counts in original gate ids
  run_synchronous(c, s, p, cfg);
  ::unsetenv("PLSIM_TRACE");
  return trace::expected_numbered_path(path, before);
}

TEST(Activity, TraceRoundTripMatchesProfiler) {
  const Circuit c = scaled_circuit(400, 3);
  const Stimulus s = random_stimulus(c, 20, 0.3, 9);
  const Partition p = partition_fm(c, 4, 1);

  const std::string path = temp_trace_path("plsim_activity_rt.bin");
  const std::string actual = traced_sync_run(c, s, p, path);

  const ActivityProfile from_trace = activity_from_trace(c, actual);
  std::remove(actual.c_str());
  EXPECT_EQ(from_trace.clock, trace::ClockKind::WallNs);
  EXPECT_EQ(from_trace.source, "synchronous");

  // The synchronous engine processes exactly the golden batches, so its
  // per-gate evaluation counts equal the profiler's over the same horizon.
  const ActivityProfile ref = profile_activity(c, s, s.vectors.size());
  ASSERT_EQ(from_trace.evals.size(), c.gate_count());
  for (GateId g = 0; g < c.gate_count(); ++g)
    EXPECT_EQ(from_trace.evals[g], ref.evals[g]) << "gate " << g;

  // Cross-block sends only exist in the engine capture; with 4 blocks some
  // driver must have sent something.
  std::uint64_t sends = 0;
  for (std::uint64_t m : from_trace.messages) sends += m;
  EXPECT_GT(sends, 0u);
}

TEST(Activity, ReaderHonorsClockFlag) {
  const std::string path = temp_trace_path("plsim_activity_clock.bin");
  {
    trace::Recorder rec("vp-unit", 1, 8, trace::ClockKind::VirtualMilliUnits);
    rec.lane(0)->emit(trace::Kind::Eval, 0, 10, 1, 0);
    ASSERT_TRUE(rec.write(path));
  }
  const trace::TraceFile tf = trace::read_trace_file(path);
  EXPECT_EQ(tf.clock, trace::ClockKind::VirtualMilliUnits);
  EXPECT_EQ(tf.engine, "vp-unit");

  const Circuit c = scaled_circuit(300, 1);
  EXPECT_EQ(activity_from_trace(c, path).clock,
            trace::ClockKind::VirtualMilliUnits);
  std::remove(path.c_str());
}

TEST(Activity, MixedClockAggregationThrows) {
  const std::string wall = temp_trace_path("plsim_activity_wall.bin");
  const std::string virt = temp_trace_path("plsim_activity_virt.bin");
  {
    trace::Recorder rec("walleng", 1, 8, trace::ClockKind::WallNs);
    ASSERT_TRUE(rec.write(wall));
    trace::Recorder vrec("vpeng", 1, 8, trace::ClockKind::VirtualMilliUnits);
    ASSERT_TRUE(vrec.write(virt));
  }
  const Circuit c = scaled_circuit(300, 1);
  const std::string both[] = {wall, virt};
  EXPECT_THROW(activity_from_traces(c, both), Error);
  // Same clock kind aggregates fine and concatenates the engine names.
  const std::string twice[] = {wall, wall};
  EXPECT_EQ(activity_from_traces(c, twice).source, "walleng");
  std::remove(wall.c_str());
  std::remove(virt.c_str());
}

TEST(Activity, TruncatedOrCorruptFileThrows) {
  const std::string path = temp_trace_path("plsim_activity_trunc.bin");
  {
    trace::Recorder rec("unit", 1, 8, trace::ClockKind::WallNs);
    rec.lane(0)->emit(trace::Kind::Eval, 0, 10, 1, 0);
    ASSERT_TRUE(rec.write(path));
  }
  // Chop the record payload off the end.
  std::string data;
  {
    std::ifstream is(path, std::ios::binary);
    data.assign(std::istreambuf_iterator<char>(is), {});
  }
  {
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    os.write(data.data(), static_cast<std::streamsize>(data.size() - 16));
  }
  EXPECT_THROW(trace::read_trace_file(path), Error);
  // Corrupt magic is rejected, not mis-parsed.
  {
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    os << "NOTATRACE-------";
  }
  EXPECT_THROW(trace::read_trace_file(path), Error);
  EXPECT_THROW(trace::read_trace_file(path + ".does-not-exist"), Error);
  std::remove(path.c_str());
}

TEST(Activity, GateIdOutsideCircuitThrows) {
  const std::string path = temp_trace_path("plsim_activity_badgate.bin");
  {
    trace::Recorder rec("unit", 1, 8, trace::ClockKind::WallNs);
    trace::Record r;
    r.aux = 1000000;  // far outside the circuit below
    r.tick = 3;
    r.kind = static_cast<std::uint16_t>(trace::Kind::GateEval);
    rec.add_extra(r);
    ASSERT_TRUE(rec.write(path));
  }
  const Circuit c = scaled_circuit(300, 1);
  EXPECT_THROW(activity_from_trace(c, path), Error);
  std::remove(path.c_str());
}

TEST(Activity, PartitionWithActivityBalancesMeasuredLoad) {
  const Circuit c = scaled_circuit(1000, 7);
  const Stimulus s = random_stimulus(c, 30, 0.3, 3);
  const ActivityProfile prof = profile_activity(c, s, 16);
  const Partition p = partition_with_activity(c, 4, 1, prof);
  validate_partition(c, p);

  const auto w = compress_counts(prof.evals);
  const auto nw = compress_counts(prof.messages);
  const PartitionMetrics weighted = evaluate_partition(c, p, w, nw);
  const PartitionMetrics static_m =
      evaluate_partition(c, partition_multilevel(c, 4, 1), w, nw);
  // The activity-weighted partition may trade some static cut for dynamic
  // balance, but its *weighted* imbalance must not be worse than the
  // static partition's.
  EXPECT_LE(weighted.imbalance, static_m.imbalance + 1e-9);
}

TEST(ActivityFeedback, EnginesStillMatchGolden) {
  const Circuit c = scaled_circuit(400, 5);
  const Stimulus s = random_stimulus(c, 16, 0.3, 7);
  const RunResult golden = simulate_golden(c, s);
  const Partition p = partition_round_robin(c, 4);  // deliberately poor
  // Plan first: profile 6 vectors, repartition p's block count on them.
  const Partition ap =
      partition_with_activity(c, p.n_blocks, 1, profile_activity(c, s, 6));

  EngineConfig cfg;
  cfg.plan_opt = PlanOpt::None;  // bit-exact against the unoptimized golden
  for (const NamedEngine& e : standard_engines()) {
    const RunResult r = e.run(c, s, ap, cfg);
    EXPECT_EQ(r.final_values, golden.final_values) << e.name;
    EXPECT_EQ(r.wave.digest(), golden.wave.digest()) << e.name;
  }
}

TEST(ActivityFeedback, RepartitionIsDeterministic) {
  const Circuit c = scaled_circuit(500, 9);
  const Stimulus s = random_stimulus(c, 24, 0.25, 1);
  const Partition a =
      partition_with_activity(c, 4, 1, profile_activity(c, s, 8));
  const Partition b =
      partition_with_activity(c, 4, 1, profile_activity(c, s, 8));
  EXPECT_EQ(a.block_of, b.block_of);
  validate_partition(c, a);
  EXPECT_EQ(a.n_blocks, 4u);
}

}  // namespace
}  // namespace plsim
