// Unit and property tests for the logic value systems (4-valued core and the
// IEEE-1164 9-valued system) and gate evaluation across value systems.

#include <gtest/gtest.h>

#include <array>
#include <vector>

#include "logic/gates.hpp"
#include "logic/logic9.hpp"
#include "logic/value.hpp"
#include "sim/packed.hpp"
#include "util/rng.hpp"

namespace plsim {
namespace {

const std::array<Logic4, 4> kAll4 = {Logic4::F, Logic4::T, Logic4::X,
                                     Logic4::Z};
const std::array<Logic9, 9> kAll9 = {Logic9::U, Logic9::X, Logic9::F,
                                     Logic9::T, Logic9::Z, Logic9::W,
                                     Logic9::L, Logic9::H, Logic9::DC};

TEST(Logic4, CharRoundTrip) {
  for (Logic4 v : kAll4) EXPECT_EQ(logic4_from_char(to_char(v)), v);
  EXPECT_EQ(logic4_from_char('x'), Logic4::X);
  EXPECT_EQ(logic4_from_char('z'), Logic4::Z);
  EXPECT_THROW(logic4_from_char('q'), Error);
}

TEST(Logic4, NotTruthTable) {
  EXPECT_EQ(logic_not(Logic4::F), Logic4::T);
  EXPECT_EQ(logic_not(Logic4::T), Logic4::F);
  EXPECT_EQ(logic_not(Logic4::X), Logic4::X);
  EXPECT_EQ(logic_not(Logic4::Z), Logic4::X);
}

TEST(Logic4, AndDominance) {
  // 0 is controlling even against X/Z.
  for (Logic4 v : kAll4) {
    EXPECT_EQ(logic_and(Logic4::F, v), Logic4::F);
    EXPECT_EQ(logic_and(v, Logic4::F), Logic4::F);
  }
  EXPECT_EQ(logic_and(Logic4::T, Logic4::T), Logic4::T);
  EXPECT_EQ(logic_and(Logic4::T, Logic4::X), Logic4::X);
  EXPECT_EQ(logic_and(Logic4::Z, Logic4::T), Logic4::X);
}

TEST(Logic4, OrDominance) {
  for (Logic4 v : kAll4) {
    EXPECT_EQ(logic_or(Logic4::T, v), Logic4::T);
    EXPECT_EQ(logic_or(v, Logic4::T), Logic4::T);
  }
  EXPECT_EQ(logic_or(Logic4::F, Logic4::F), Logic4::F);
  EXPECT_EQ(logic_or(Logic4::F, Logic4::Z), Logic4::X);
}

TEST(Logic4, XorUnknowns) {
  EXPECT_EQ(logic_xor(Logic4::F, Logic4::T), Logic4::T);
  EXPECT_EQ(logic_xor(Logic4::T, Logic4::T), Logic4::F);
  EXPECT_EQ(logic_xor(Logic4::X, Logic4::T), Logic4::X);
  EXPECT_EQ(logic_xor(Logic4::Z, Logic4::F), Logic4::X);
}

TEST(Logic4, CommutativityProperty) {
  for (Logic4 a : kAll4) {
    for (Logic4 b : kAll4) {
      EXPECT_EQ(logic_and(a, b), logic_and(b, a));
      EXPECT_EQ(logic_or(a, b), logic_or(b, a));
      EXPECT_EQ(logic_xor(a, b), logic_xor(b, a));
    }
  }
}

TEST(Logic4, DeMorganOnBinary) {
  for (Logic4 a : {Logic4::F, Logic4::T}) {
    for (Logic4 b : {Logic4::F, Logic4::T}) {
      EXPECT_EQ(logic_not(logic_and(a, b)),
                logic_or(logic_not(a), logic_not(b)));
    }
  }
}

// ---------------------------------------------------------------- Logic9 --

TEST(Logic9, CharRoundTrip) {
  for (Logic9 v : kAll9) EXPECT_EQ(logic9_from_char(to_char(v)), v);
  EXPECT_EQ(logic9_from_char('h'), Logic9::H);
  EXPECT_THROW(logic9_from_char('q'), Error);
}

TEST(Logic9, ResolutionStandardEntries) {
  // Entries straight from the IEEE 1164 resolution table.
  EXPECT_EQ(resolve9(Logic9::F, Logic9::T), Logic9::X);   // contention
  EXPECT_EQ(resolve9(Logic9::Z, Logic9::H), Logic9::H);   // Z is identity
  EXPECT_EQ(resolve9(Logic9::L, Logic9::H), Logic9::W);   // weak contention
  EXPECT_EQ(resolve9(Logic9::F, Logic9::H), Logic9::F);   // forcing beats weak
  EXPECT_EQ(resolve9(Logic9::U, Logic9::T), Logic9::U);   // U dominates
  EXPECT_EQ(resolve9(Logic9::DC, Logic9::Z), Logic9::X);  // '-' resolves to X
  EXPECT_EQ(resolve9(Logic9::W, Logic9::L), Logic9::W);
}

TEST(Logic9, ResolutionCommutative) {
  for (Logic9 a : kAll9)
    for (Logic9 b : kAll9) EXPECT_EQ(resolve9(a, b), resolve9(b, a));
}

TEST(Logic9, ResolutionAssociativeProperty) {
  for (Logic9 a : kAll9)
    for (Logic9 b : kAll9)
      for (Logic9 c : kAll9)
        EXPECT_EQ(resolve9(resolve9(a, b), c), resolve9(a, resolve9(b, c)));
}

TEST(Logic9, ResolutionIdempotent) {
  // Idempotent for every value except '-', which the standard resolves to X
  // even against itself.
  for (Logic9 a : kAll9)
    EXPECT_EQ(resolve9(a, a), a == Logic9::DC ? Logic9::X : a);
}

TEST(Logic9, ZIsResolutionIdentity) {
  for (Logic9 a : kAll9) EXPECT_EQ(resolve9(Logic9::Z, a), a == Logic9::DC
                                                               ? Logic9::X
                                                               : a);
}

TEST(Logic9, AndStandardEntries) {
  EXPECT_EQ(and9(Logic9::U, Logic9::F), Logic9::F);  // 0 controls even vs U
  EXPECT_EQ(and9(Logic9::U, Logic9::T), Logic9::U);
  EXPECT_EQ(and9(Logic9::L, Logic9::T), Logic9::F);  // weak 0 still controls
  EXPECT_EQ(and9(Logic9::H, Logic9::T), Logic9::T);
  EXPECT_EQ(and9(Logic9::Z, Logic9::T), Logic9::X);
}

TEST(Logic9, OrStandardEntries) {
  EXPECT_EQ(or9(Logic9::U, Logic9::T), Logic9::T);
  EXPECT_EQ(or9(Logic9::U, Logic9::F), Logic9::U);
  EXPECT_EQ(or9(Logic9::H, Logic9::F), Logic9::T);
  EXPECT_EQ(or9(Logic9::W, Logic9::F), Logic9::X);
}

TEST(Logic9, NotAndToX01) {
  EXPECT_EQ(not9(Logic9::L), Logic9::T);
  EXPECT_EQ(not9(Logic9::H), Logic9::F);
  EXPECT_EQ(not9(Logic9::U), Logic9::U);
  EXPECT_EQ(not9(Logic9::W), Logic9::X);
  EXPECT_EQ(to_x01(Logic9::H), Logic9::T);
  EXPECT_EQ(to_x01(Logic9::Z), Logic9::X);
}

TEST(Logic9, ConversionAgreesWithLogic4) {
  // AND/OR/XOR over {0,1,X,Z} must agree between the two systems after
  // conversion.
  for (Logic4 a : kAll4) {
    for (Logic4 b : kAll4) {
      EXPECT_EQ(to_logic4(and9(to_logic9(a), to_logic9(b))), logic_and(a, b));
      EXPECT_EQ(to_logic4(or9(to_logic9(a), to_logic9(b))), logic_or(a, b));
      EXPECT_EQ(to_logic4(xor9(to_logic9(a), to_logic9(b))), logic_xor(a, b));
    }
  }
}

// ----------------------------------------------------------------- gates --

TEST(Gates, NamesRoundTrip) {
  for (int i = 0; i < kGateTypeCount; ++i) {
    const GateType t = static_cast<GateType>(i);
    EXPECT_EQ(gate_type_from_name(gate_type_name(t)), t);
  }
  EXPECT_EQ(gate_type_from_name("BUFF"), GateType::Buf);
  EXPECT_EQ(gate_type_from_name("nand"), GateType::Nand);
  EXPECT_THROW(gate_type_from_name("FOO"), Error);
}

TEST(Gates, BinaryTruthTables) {
  auto eval2 = [](GateType t, Logic4 a, Logic4 b) {
    const std::array<Logic4, 2> in = {a, b};
    return eval_gate4(t, in);
  };
  const Logic4 F = Logic4::F, T = Logic4::T;
  EXPECT_EQ(eval2(GateType::And, T, T), T);
  EXPECT_EQ(eval2(GateType::Nand, T, T), F);
  EXPECT_EQ(eval2(GateType::Or, F, F), F);
  EXPECT_EQ(eval2(GateType::Nor, F, F), T);
  EXPECT_EQ(eval2(GateType::Xor, T, F), T);
  EXPECT_EQ(eval2(GateType::Xnor, T, F), F);
}

TEST(Gates, WideGates) {
  std::vector<Logic4> ins(5, Logic4::T);
  EXPECT_EQ(eval_gate4(GateType::And, ins), Logic4::T);
  ins[3] = Logic4::F;
  EXPECT_EQ(eval_gate4(GateType::And, ins), Logic4::F);
  EXPECT_EQ(eval_gate4(GateType::Nor, ins), Logic4::F);
  ins.assign(4, Logic4::T);
  EXPECT_EQ(eval_gate4(GateType::Xor, ins), Logic4::F);  // even parity
  ins.resize(3);
  EXPECT_EQ(eval_gate4(GateType::Xor, ins), Logic4::T);  // odd parity
}

TEST(Gates, MuxSelect) {
  auto mux = [](Logic4 s, Logic4 d0, Logic4 d1) {
    const std::array<Logic4, 3> in = {s, d0, d1};
    return eval_gate4(GateType::Mux, in);
  };
  EXPECT_EQ(mux(Logic4::F, Logic4::T, Logic4::F), Logic4::T);
  EXPECT_EQ(mux(Logic4::T, Logic4::T, Logic4::F), Logic4::F);
  EXPECT_EQ(mux(Logic4::X, Logic4::T, Logic4::T), Logic4::T);  // agree
  EXPECT_EQ(mux(Logic4::X, Logic4::T, Logic4::F), Logic4::X);  // disagree
}

TEST(Gates, Scalar64LaneConsistencyProperty) {
  // Random property: each lane of eval_gate64 equals scalar evaluation.
  Rng rng(7);
  const GateType types[] = {GateType::And, GateType::Nand, GateType::Or,
                            GateType::Nor, GateType::Xor,  GateType::Xnor,
                            GateType::Buf, GateType::Not,  GateType::Mux};
  for (int trial = 0; trial < 200; ++trial) {
    const GateType t = types[rng.uniform(std::size(types))];
    std::size_t arity = 2;
    if (t == GateType::Buf || t == GateType::Not) arity = 1;
    else if (t == GateType::Mux) arity = 3;
    else arity = 2 + rng.uniform(3);
    std::vector<std::uint64_t> words(arity);
    for (auto& w : words) w = rng.next();
    const std::uint64_t out = eval_gate64(t, words);
    for (int lane = 0; lane < 64; lane += 7) {
      std::vector<Logic4> ins(arity);
      for (std::size_t i = 0; i < arity; ++i)
        ins[i] = logic4_from_bool((words[i] >> lane) & 1);
      const Logic4 expect = eval_gate4(t, ins);
      EXPECT_EQ((out >> lane) & 1, expect == Logic4::T ? 1u : 0u)
          << gate_type_name(t) << " lane " << lane;
    }
  }
}

TEST(Gates, Packed2GatherMatchesEvalGate64) {
  // The fault plane's gather kernel (sim/packed.hpp) is bit-identical to
  // eval_gate64 on random words.
  std::uint64_t state = 0x5eedULL;
  const std::uint32_t iota[4] = {0, 1, 2, 3};
  struct Case {
    GateType t;
    std::size_t lo, hi;  // arity range
  };
  const Case cases[] = {
      {GateType::Buf, 1, 1},  {GateType::Not, 1, 1},
      {GateType::And, 2, 4},  {GateType::Or, 2, 4},
      {GateType::Xor, 2, 4},  {GateType::Nand, 2, 4},
      {GateType::Nor, 2, 4},  {GateType::Xnor, 2, 4},
      {GateType::Mux, 3, 3},
  };
  for (const Case& cs : cases) {
    for (std::size_t n = cs.lo; n <= cs.hi; ++n) {
      for (int trial = 0; trial < 64; ++trial) {
        std::vector<std::uint64_t> ins(n);
        for (auto& w : ins) w = splitmix64_next(state);
        EXPECT_EQ(packed2_eval_gather(cs.t, ins.data(), iota, n),
                  eval_gate64(cs.t, ins))
            << "op=" << static_cast<int>(cs.t) << " arity=" << n;
      }
    }
  }
}

TEST(Gates, Eval9MatchesEval4OnConvertedValues) {
  Rng rng(11);
  const GateType types[] = {GateType::And, GateType::Nand, GateType::Or,
                            GateType::Nor, GateType::Xor,  GateType::Xnor,
                            GateType::Buf, GateType::Not};
  for (int trial = 0; trial < 300; ++trial) {
    const GateType t = types[rng.uniform(std::size(types))];
    const std::size_t arity =
        (t == GateType::Buf || t == GateType::Not) ? 1 : 2 + rng.uniform(3);
    std::vector<Logic4> in4(arity);
    std::vector<Logic9> in9(arity);
    for (std::size_t i = 0; i < arity; ++i) {
      in4[i] = kAll4[rng.uniform(4)];
      in9[i] = to_logic9(in4[i]);
    }
    EXPECT_EQ(to_logic4(eval_gate9(t, in9)), eval_gate4(t, in4))
        << gate_type_name(t);
  }
}

}  // namespace
}  // namespace plsim
