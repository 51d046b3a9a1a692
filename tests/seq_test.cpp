// Tests for the sequential simulators: event-driven golden semantics (timing,
// DFF sampling, selective trace), and cross-equivalence between the golden
// and oblivious execution styles.

#include <gtest/gtest.h>

#include <algorithm>

#include "netlist/builder.hpp"
#include "netlist/builtin.hpp"
#include "netlist/generators.hpp"
#include "partition/activity.hpp"
#include "seq/golden.hpp"
#include "seq/oblivious.hpp"

namespace plsim {
namespace {

Stimulus single_vector(const Circuit& c, std::vector<Logic4> v, Tick period) {
  Stimulus s;
  s.period = period;
  s.vectors = {std::move(v)};
  (void)c;
  return s;
}

TEST(Golden, InverterChainTiming) {
  NetlistBuilder b;
  const GateId a = b.add_input("a");
  const GateId n1 = b.add_gate(GateType::Not, {a}, "n1");
  const GateId n2 = b.add_gate(GateType::Not, {n1}, "n2");
  b.set_delay(n1, 3);
  b.set_delay(n2, 5);
  b.mark_output(n2);
  const Circuit c = b.build();

  GoldenOptions opts;
  opts.record_trace = true;
  const RunResult r =
      simulate_golden(c, single_vector(c, {Logic4::T}, 100), opts);

  ASSERT_EQ(r.trace.size(), 3u);
  EXPECT_EQ(r.trace[0], (ChangeRecord{0, a, Logic4::T}));
  EXPECT_EQ(r.trace[1], (ChangeRecord{3, n1, Logic4::F}));
  EXPECT_EQ(r.trace[2], (ChangeRecord{8, n2, Logic4::T}));
  EXPECT_EQ(r.final_values[n2], Logic4::T);
}

TEST(Golden, SelectiveTraceSuppressesNonChanges) {
  // y = AND(a, b): b flips while a=0, so y never changes and the AND fires
  // no output events after its initial X->0 transition.
  NetlistBuilder b;
  const GateId a = b.add_input("a");
  const GateId x = b.add_input("x");
  const GateId y = b.add_gate(GateType::And, {a, x}, "y");
  b.mark_output(y);
  const Circuit c = b.build();

  Stimulus s;
  s.period = 10;
  s.vectors = {{Logic4::F, Logic4::F},
               {Logic4::F, Logic4::T},
               {Logic4::F, Logic4::F},
               {Logic4::F, Logic4::T}};
  GoldenOptions opts;
  opts.record_trace = true;
  const RunResult r = simulate_golden(c, s, opts);
  std::size_t y_changes = 0;
  for (const auto& rec : r.trace)
    if (rec.gate == y) ++y_changes;
  EXPECT_EQ(y_changes, 1u);  // X -> 0 once, then suppressed
  // But the AND was re-evaluated on each toggle of x.
  EXPECT_GE(r.stats.evaluations, 4u);
}

TEST(Golden, DffSamplesPreEdgeValue) {
  // 1-bit counter: en -> d = XOR(q, en) -> q. Unit delays, period 10.
  const Circuit c = counter(1);
  Stimulus s;
  s.period = 10;
  s.vectors.assign(3, {Logic4::T});  // enable high for 3 cycles
  GoldenOptions opts;
  opts.record_trace = true;
  const RunResult r = simulate_golden(c, s, opts);

  const GateId q = c.flip_flops()[0];
  std::vector<ChangeRecord> q_changes;
  for (const auto& rec : r.trace)
    if (rec.gate == q) q_changes.push_back(rec);
  // q: reset announcement at 0, then 0 -> 1 at 11 (clock 10 + clk2q 1),
  // -> 0 at 21, -> 1 at 31.
  ASSERT_EQ(q_changes.size(), 4u);
  EXPECT_EQ(q_changes[0], (ChangeRecord{0, q, Logic4::F}));
  EXPECT_EQ(q_changes[1], (ChangeRecord{11, q, Logic4::T}));
  EXPECT_EQ(q_changes[2], (ChangeRecord{21, q, Logic4::F}));
  EXPECT_EQ(q_changes[3], (ChangeRecord{31, q, Logic4::T}));
  EXPECT_EQ(r.final_values[q], Logic4::T);
  EXPECT_EQ(r.stats.dff_samples, 3u);
}

TEST(Golden, C17TruthTable) {
  const Circuit c = builtin_circuit("c17");
  // Check a handful of exhaustive patterns against the NAND formula.
  const Stimulus s = exhaustive_stimulus(c, 16);
  const auto pis = c.primary_inputs();
  for (std::size_t pattern : {0u, 7u, 13u, 21u, 31u}) {
    Stimulus one;
    one.period = 16;
    one.vectors = {s.vectors[pattern]};
    const RunResult r = simulate_golden(c, one);
    auto bit = [&](int i) { return one.vectors[0][i] == Logic4::T; };
    const bool i1 = bit(0), i2 = bit(1), i3 = bit(2), i6 = bit(3), i7 = bit(4);
    const bool n10 = !(i1 && i3);
    const bool n11 = !(i3 && i6);
    const bool n16 = !(i2 && n11);
    const bool n19 = !(n11 && i7);
    const bool n22 = !(n10 && n16);
    const bool n23 = !(n16 && n19);
    const auto pos = c.primary_outputs();
    EXPECT_EQ(r.final_values[pos[0]], logic4_from_bool(n22)) << pattern;
    EXPECT_EQ(r.final_values[pos[1]], logic4_from_bool(n23)) << pattern;
  }
}

TEST(Golden, WaveHashIsDeterministic) {
  const Circuit c = scaled_circuit(400, 2);
  const Stimulus s = random_stimulus(c, 30, 0.4, 9);
  const RunResult a = simulate_golden(c, s);
  const RunResult b = simulate_golden(c, s);
  EXPECT_EQ(a.wave.digest(), b.wave.digest());
  EXPECT_EQ(a.final_values, b.final_values);
  EXPECT_GT(a.stats.wire_events, 100u);
}

// Equivalence: golden (ample period) vs oblivious (zero-delay cycle), across
// generated circuits.
class SeqEquivalence : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SeqEquivalence, GoldenObliviousAgree) {
  RandomCircuitSpec spec;
  spec.n_gates = 350;
  spec.n_inputs = 12;
  spec.n_outputs = 12;
  spec.dff_fraction = 0.12;
  spec.seed = GetParam();
  const Circuit c = random_circuit(spec);

  // Period long enough for full settling between clock edges.
  const Tick period = c.depth() + 3;
  const Stimulus s = random_stimulus(c, 40, 0.35, GetParam() * 11 + 1, period);

  const RunResult golden = simulate_golden(c, s);
  const ObliviousResult obl = simulate_oblivious(c, s);
  EXPECT_EQ(golden.final_values, obl.final_values) << "seed " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeqEquivalence,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

TEST(Oblivious, EvaluationCountIsActivityIndependent) {
  const Circuit c = scaled_circuit(300, 3);
  const Tick period = c.depth() + 3;
  const Stimulus quiet = random_stimulus(c, 50, 0.02, 1, period);
  const Stimulus busy = random_stimulus(c, 50, 0.9, 1, period);
  const auto a = simulate_oblivious(c, quiet);
  const auto b = simulate_oblivious(c, busy);
  EXPECT_EQ(a.evaluations, b.evaluations);

  // The event-driven simulator, by contrast, does more work when busy.
  const RunResult ga = simulate_golden(c, quiet);
  const RunResult gb = simulate_golden(c, busy);
  EXPECT_LT(ga.stats.evaluations, gb.stats.evaluations);
}

TEST(Presimulate, ActivityProfileTracksToggles) {
  const Circuit c = builtin_circuit("s27");
  const Stimulus s = random_stimulus(c, 100, 0.5, 4);
  const std::vector<std::uint64_t> counts = profile_activity(c, s, 50).evals;
  ASSERT_EQ(counts.size(), c.gate_count());
  // Every DFF is sampled once per cycle regardless of activity.
  for (GateId ff : c.flip_flops()) EXPECT_EQ(counts[ff], 50u);
  // Some combinational gate must have been evaluated.
  std::uint64_t total = 0;
  for (std::uint64_t k : counts) total += k;
  EXPECT_GT(total, 150u);
}

}  // namespace
}  // namespace plsim
