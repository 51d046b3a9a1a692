// Tests for the circuit generators: structural invariants, determinism, and
// functional correctness of the arithmetic and sequential circuits (checked
// against host arithmetic and software models through the levelized sweep).

#include <gtest/gtest.h>

#include "netlist/generators.hpp"
#include "netlist/stats.hpp"
#include "seq/oblivious.hpp"
#include "util/rng.hpp"

namespace plsim {
namespace {

TEST(RandomCircuit, RespectsSpec) {
  RandomCircuitSpec spec;
  spec.n_gates = 500;
  spec.n_inputs = 20;
  spec.n_outputs = 10;
  spec.dff_fraction = 0.15;
  spec.seed = 42;
  const Circuit c = random_circuit(spec);
  EXPECT_EQ(c.gate_count(), 500u);
  EXPECT_EQ(c.primary_inputs().size(), 20u);
  EXPECT_EQ(c.flip_flops().size(), 72u);  // exactly 15% of 480
  EXPECT_GE(c.primary_outputs().size(), 1u);
  EXPECT_GT(c.depth(), 3u);
}

TEST(RandomCircuit, DeterministicPerSeed) {
  RandomCircuitSpec spec;
  spec.n_gates = 300;
  spec.seed = 7;
  const Circuit a = random_circuit(spec);
  const Circuit b = random_circuit(spec);
  ASSERT_EQ(a.gate_count(), b.gate_count());
  for (GateId g = 0; g < a.gate_count(); ++g) {
    EXPECT_EQ(a.type(g), b.type(g));
    ASSERT_EQ(a.fanins(g).size(), b.fanins(g).size());
    for (std::size_t i = 0; i < a.fanins(g).size(); ++i)
      EXPECT_EQ(a.fanins(g)[i], b.fanins(g)[i]);
  }
  spec.seed = 8;
  const Circuit d = random_circuit(spec);
  bool any_diff = false;
  for (GateId g = 0; g < a.gate_count() && !any_diff; ++g)
    if (a.type(g) != d.type(g)) any_diff = true;
  EXPECT_TRUE(any_diff);
}

TEST(RandomCircuit, FineDelays) {
  RandomCircuitSpec spec;
  spec.n_gates = 400;
  spec.delay_mode = DelayMode::Uniform;
  spec.delay_spread = 9;
  const Circuit c = random_circuit(spec);
  std::uint32_t lo = 1000, hi = 0;
  for (GateId g = 0; g < c.gate_count(); ++g) {
    lo = std::min(lo, c.delay(g));
    hi = std::max(hi, c.delay(g));
  }
  EXPECT_EQ(lo, 1u);
  EXPECT_GT(hi, 5u);
  EXPECT_LE(hi, 9u);
}

// The arithmetic and sequential checks below run 64 seeded cases each, one
// scalar levelized sweep per case.
constexpr int kCases = 64;

/// `n` primary-input values holding the low `n` bits of `value` (bit i on
/// input i).
std::vector<Logic4> bits_of(std::uint64_t value, int n) {
  std::vector<Logic4> v(n);
  for (int i = 0; i < n; ++i) v[i] = logic4_from_bool((value >> i) & 1);
  return v;
}

/// A stimulus with the given per-cycle input vectors.
Stimulus case_stimulus(std::vector<std::vector<Logic4>> vectors) {
  Stimulus s;
  s.period = 10;
  s.vectors = std::move(vectors);
  return s;
}

/// The primary outputs read as an unsigned integer (bit i = output i);
/// every output must have settled to a binary value.
std::uint64_t outputs_of(const Circuit& c, const ObliviousResult& r) {
  std::uint64_t got = 0;
  const auto pos = c.primary_outputs();
  for (std::size_t i = 0; i < pos.size(); ++i) {
    const Logic4 v = r.final_values[pos[i]];
    EXPECT_TRUE(is_binary(v)) << "output " << i;
    if (v == Logic4::T) got |= 1ull << i;
  }
  return got;
}

TEST(RippleAdder, AddsCorrectly) {
  const int bits = 6;
  const Circuit c = ripple_adder(bits);
  ASSERT_EQ(c.primary_inputs().size(), std::size_t(2 * bits + 1));
  ASSERT_EQ(c.primary_outputs().size(), std::size_t(bits + 1));

  Rng rng(5);
  for (int k = 0; k < kCases; ++k) {
    const std::uint64_t a = rng.uniform(1ull << bits);
    const std::uint64_t b = rng.uniform(1ull << bits);
    const std::uint64_t cin = rng.uniform(2);
    // Inputs are a[0..bits), b[0..bits), cin.
    const ObliviousResult r = simulate_oblivious(
        c, case_stimulus(
               {bits_of(a | b << bits | cin << (2 * bits), 2 * bits + 1)}));
    EXPECT_EQ(outputs_of(c, r), a + b + cin) << "case " << k;
  }
}

TEST(ArrayMultiplier, MultipliesCorrectly) {
  const int bits = 4;
  const Circuit c = array_multiplier(bits);
  ASSERT_EQ(c.primary_outputs().size(), std::size_t(2 * bits));

  Rng rng(9);
  for (int k = 0; k < kCases; ++k) {
    const std::uint64_t a = rng.uniform(1ull << bits);
    const std::uint64_t b = rng.uniform(1ull << bits);
    const ObliviousResult r = simulate_oblivious(
        c, case_stimulus({bits_of(a | b << bits, 2 * bits)}));
    EXPECT_EQ(outputs_of(c, r), a * b) << "case " << k;
  }
}

TEST(Counter, CountsCycles) {
  const int bits = 5;
  const Circuit c = counter(bits);
  const int cycles = 11;
  // Enable high for all 11 cycles: the counter must read 11 afterwards.
  const ObliviousResult all = simulate_oblivious(
      c, case_stimulus(std::vector<std::vector<Logic4>>(cycles, {Logic4::T})));
  EXPECT_EQ(outputs_of(c, all), 11u);

  // Random enables: each case counts its own enabled cycles.
  Rng rng(13);
  for (int k = 0; k < kCases; ++k) {
    std::vector<std::vector<Logic4>> vecs;
    std::uint64_t enabled = 0;
    for (int t = 0; t < cycles; ++t) {
      const bool en = rng.uniform(2) != 0;
      enabled += en;
      vecs.push_back({logic4_from_bool(en)});
    }
    const ObliviousResult r =
        simulate_oblivious(c, case_stimulus(std::move(vecs)));
    EXPECT_EQ(outputs_of(c, r), enabled) << "case " << k;
  }
}

TEST(Lfsr, MatchesSoftwareModel) {
  const int bits = 8;
  const std::vector<int> taps = {7, 5, 4, 3};
  const Circuit c = lfsr(bits, taps);
  const int cycles = 40;
  // Random serial input per case, so every register leaves the all-zero
  // state along its own trajectory.
  Rng rng(3);
  const GateId out = c.primary_outputs()[0];
  for (int k = 0; k < kCases; ++k) {
    std::vector<std::vector<Logic4>> vecs;
    std::vector<int> q(bits, 0);  // software model of the Fibonacci LFSR
    for (int t = 0; t < cycles; ++t) {
      const int bit = static_cast<int>(rng.uniform(2));
      vecs.push_back({logic4_from_bool(bit != 0)});
      int fb = bit;
      for (int tap : taps) fb ^= q[tap];
      for (int i = bits - 1; i > 0; --i) q[i] = q[i - 1];
      q[0] = fb;
    }
    const ObliviousResult r =
        simulate_oblivious(c, case_stimulus(std::move(vecs)));
    EXPECT_EQ(r.final_values[out], logic4_from_bool(q[bits - 1] != 0))
        << "case " << k;
  }
}

TEST(Pipeline, StructureAndDeterminism) {
  const Circuit c = pipeline(8, 4, 11);
  EXPECT_EQ(c.flip_flops().size(), 32u);
  EXPECT_EQ(c.primary_outputs().size(), 8u);
  const Circuit d = pipeline(8, 4, 11);
  EXPECT_EQ(c.gate_count(), d.gate_count());
}

TEST(IscasProfiles, MatchPublishedCounts) {
  for (const auto& p : iscas_profiles()) {
    SCOPED_TRACE(std::string(p.name));
    if (p.gates > 6000) continue;  // keep the test fast
    const Circuit c = iscas_profile_circuit(p.name, 1);
    EXPECT_EQ(c.gate_count(), p.gates);
    EXPECT_EQ(c.primary_inputs().size(), p.inputs);
    EXPECT_EQ(c.primary_outputs().size(), p.outputs);
    // Sequential-remainder sampling makes the DFF count exact (±1 rounding).
    if (p.dffs > 0) {
      EXPECT_NEAR(static_cast<double>(c.flip_flops().size()),
                  static_cast<double>(p.dffs), 1.0);
    }
  }
}

TEST(ScaledCircuit, SizesTrack) {
  for (std::size_t n : {200u, 1000u, 5000u}) {
    const Circuit c = scaled_circuit(n, 1);
    EXPECT_EQ(c.gate_count(), n);
  }
}

}  // namespace
}  // namespace plsim
