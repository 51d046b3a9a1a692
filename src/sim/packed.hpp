#pragma once
// Bit-parallel packed value plane (paper §II, data parallelism; the core
// trick of GSIM/CCSS — see PAPERS.md): 64 independent simulation lanes ride
// one machine word per signal, and every gate evaluation is a handful of
// bitwise word operations — 64 effective gate evaluations for roughly the
// cost of one.
//
// The plane is pure *2-valued* logic, the fault simulator's: the good
// machine rides lane 0 and 63 fault machines ride lanes 1..63. Lowering a
// 4-valued input maps F -> 0 and T -> 1; X and Z are *rejected*
// (PLSIM_ASSERT) because the plane has no way to represent them, so callers
// must prove their stimulus binary first.
//
// All raw uint64_t lane arithmetic in src/ is confined to this translation
// unit (lint rule `packed-lane`): everything else goes through the named
// helpers below, so the lane-0 conventions live in one place.

#include <cstddef>
#include <cstdint>

#include "logic/gates.hpp"
#include "logic/value.hpp"
#include "util/error.hpp"

namespace plsim {

// ------------------------------------------------------------ lane helpers --

/// The 63 fault-machine lanes (everything but the good machine on lane 0).
inline constexpr std::uint64_t kFaultLanes = ~1ull;

inline constexpr std::uint64_t lane_mask(unsigned lane) { return 1ull << lane; }

/// Broadcast a Boolean across all lanes.
inline constexpr std::uint64_t lanes_from_bool(bool b) { return b ? ~0ull : 0ull; }

/// Broadcast lane 0 of `w` across all lanes — the fault simulators' good
/// machine reference word.
inline constexpr std::uint64_t broadcast_lane0(std::uint64_t w) {
  return (w & 1ull) ? ~0ull : 0ull;
}

/// Override the lanes selected by `mask` with bits from `val` — the fault
/// injection primitive.
inline constexpr std::uint64_t forced_word(std::uint64_t w, std::uint64_t mask,
                                           std::uint64_t val) {
  return (w & ~mask) | (val & mask);
}

/// Lower a 4-valued value into all lanes. X/Z have no representation here —
/// binary inputs only, asserted.
inline constexpr std::uint64_t pack2_broadcast(Logic4 value) {
  PLSIM_ASSERT(is_binary(value));
  return lanes_from_bool(value == Logic4::T);
}

// ------------------------------------------------------ word-wide kernel --

/// Word-at-a-time 2-valued gate evaluation with operand gather: operands are
/// read straight out of a value array through a compiled fanin index list
/// (bit-identical to eval_gate64, minus the operand copy).
inline std::uint64_t packed2_eval_gather(GateType op,
                                         const std::uint64_t* values,
                                         const std::uint32_t* fanin,
                                         std::size_t n) {
  switch (op) {
    case GateType::Const0: return 0;
    case GateType::Const1: return ~0ull;
    case GateType::Buf: return values[fanin[0]];
    case GateType::Not: return ~values[fanin[0]];
    case GateType::And:
    case GateType::Nand: {
      std::uint64_t acc = values[fanin[0]];
      for (std::size_t k = 1; k < n; ++k) acc &= values[fanin[k]];
      return op == GateType::And ? acc : ~acc;
    }
    case GateType::Or:
    case GateType::Nor: {
      std::uint64_t acc = values[fanin[0]];
      for (std::size_t k = 1; k < n; ++k) acc |= values[fanin[k]];
      return op == GateType::Or ? acc : ~acc;
    }
    case GateType::Xor:
    case GateType::Xnor: {
      std::uint64_t acc = values[fanin[0]];
      for (std::size_t k = 1; k < n; ++k) acc ^= values[fanin[k]];
      return op == GateType::Xor ? acc : ~acc;
    }
    case GateType::Mux: {
      const std::uint64_t s = values[fanin[0]];
      return (~s & values[fanin[1]]) | (s & values[fanin[2]]);
    }
    case GateType::Input:
    case GateType::Dff:
      break;
  }
  raise("packed2_eval_gather: gate has no combinational function");
}

}  // namespace plsim
