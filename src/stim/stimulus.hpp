#pragma once
// Test vectors (paper §V: ISCAS circuits "do not include test vectors (they
// are typically simulated using random vectors)").
//
// A stimulus is a clocked sequence of primary-input vectors: vector k is
// applied at simulated time k * period, and every DFF samples its D input at
// each multiple of the period (one implicit global clock domain). The random
// generator exposes the *activity* knob — the per-cycle toggle probability —
// which drives the oblivious/event-driven trade-off the paper discusses in
// §IV.

#include <cstdint>
#include <iosfwd>
#include <vector>

#include "logic/value.hpp"
#include "netlist/circuit.hpp"

namespace plsim {

struct Stimulus {
  Tick period = 10;
  /// vectors[k][i] = value of the i-th primary input during cycle k.
  std::vector<std::vector<Logic4>> vectors;

  std::size_t cycles() const { return vectors.size(); }
  /// End of simulated time: one full period after the last vector. Throws
  /// plsim::Error when period * (cycles + 1) does not fit a Tick; a wrapped
  /// horizon would scramble the vector timeline.
  Tick horizon() const;
};

/// Seeded random vectors: cycle 0 is uniform over {0,1}; afterwards each
/// input toggles with probability `activity` per cycle.
Stimulus random_stimulus(const Circuit& c, std::size_t cycles,
                         double activity, std::uint64_t seed,
                         Tick period = 10);

/// Exhaustive vectors over the first min(n_inputs, 16) inputs (remaining
/// inputs held at 0) — used by equivalence tests on arithmetic circuits.
Stimulus exhaustive_stimulus(const Circuit& c, Tick period = 10);

/// Nonstationary vectors: a rotating "hot" window covering hot_fraction of
/// the inputs toggles at hot_activity while the rest idle at base_activity;
/// the window advances every drift_cycles cycles. Workload drift like this
/// is what dynamic load balancing (paper §VI) reacts to.
Stimulus hotspot_stimulus(const Circuit& c, std::size_t cycles,
                          double base_activity, double hot_activity,
                          double hot_fraction, std::size_t drift_cycles,
                          std::uint64_t seed, Tick period = 10);

/// Like hotspot_stimulus, but each epoch heats a *random subset* of the
/// inputs rather than a sliding window — no static placement can be right
/// for every epoch, which is the case dynamic load balancing exists for.
/// `group_size` inputs heat together (set it to a module's input count so
/// whole functional units go hot/cold coherently).
Stimulus scattered_hotspot_stimulus(const Circuit& c, std::size_t cycles,
                                    double base_activity,
                                    double hot_activity, double hot_fraction,
                                    std::size_t epoch_cycles,
                                    std::uint64_t seed, Tick period = 10,
                                    std::size_t group_size = 1);

/// Text round-trip: line 1 "period <ticks>", then one line of 0/1/X/Z chars
/// per cycle.
void write_vectors(std::ostream& os, const Stimulus& s);
Stimulus read_vectors(std::istream& is);

}  // namespace plsim
