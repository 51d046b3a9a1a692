#pragma once
// Trace -> partition feedback (paper §III/§VI): turn measured activity — a
// profiling run's per-gate evaluation counts and per-net message counts —
// into the weight spans the partitioners consume, closing the loop the
// paper argues determines parallel speedup: balance *dynamic* load and
// minimize *active* cut traffic, not static gate counts.
//
// Two sources produce the same ActivityProfile:
//   profile_activity()      an in-process golden pre-simulation (no trace
//                           file involved); a caller plans with it before
//                           running an engine: partition_with_activity(c,
//                           n, seed, profile_activity(c, stim, cycles)).
//   activity_from_trace()   a PLSIM_TRACE binary capture containing the
//                           GateEval/NetMsg summary records engines flush at
//                           end of run; offline tooling and benches use this.
//
// Counts are kept in uint64 (summed activity exceeds 2^32 on million-event
// runs); compress_counts() scales them into the uint32 spans the partition
// API takes, preserving ratios.

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "netlist/circuit.hpp"
#include "partition/partition.hpp"
#include "stim/stimulus.hpp"
#include "trace/trace.hpp"

namespace plsim {

/// Measured per-gate activity, from a pre-simulation or a trace capture.
struct ActivityProfile {
  std::vector<std::uint64_t> evals;     ///< per-gate evaluation counts
  std::vector<std::uint64_t> messages;  ///< per-driver toggle/message counts
  /// Which clock produced any time-valued fields below (binary header flag;
  /// the per-gate counts themselves are clock-independent).
  trace::ClockKind clock = trace::ClockKind::WallNs;
  std::uint64_t blocked_units = 0;  ///< summed Blocked span time (clock units)
  std::uint64_t barrier_units = 0;  ///< summed BarrierWait time (clock units)
  std::string source;               ///< "presim" or the trace's engine name
};

/// Profile by golden pre-simulation over the first `cycles` stimulus
/// vectors (paper §III's pre-simulation measurement): evals from the
/// block simulator's per-gate counters, messages from the recorded value-
/// change trace (every committed output change is one potential message
/// per cut fanout edge).
ActivityProfile profile_activity(const Circuit& c, const Stimulus& stim,
                                 std::size_t cycles);

/// Decode one PLSIM_TRACE binary capture into a profile. Honors the
/// header's clock flag (virtual work units vs wall ns) rather than assuming
/// wall clocks. Throws plsim::Error on format errors or when a per-gate
/// summary record names a gate outside `c`.
ActivityProfile activity_from_trace(const Circuit& c, const std::string& path);

/// Aggregate several captures (e.g. one per engine run of a sweep). All
/// files must agree on the clock kind — mixing virtual-unit and wall-ns
/// captures would add incommensurable times, so a mismatch throws
/// plsim::Error instead of producing garbage totals.
ActivityProfile activity_from_traces(const Circuit& c,
                                     std::span<const std::string> paths);

/// Scale 64-bit counts into the uint32 weight spans the partitioners take:
/// an identity copy when everything fits, otherwise a uniform right-shift
/// of every count (ratios preserved; uniform inputs stay uniform).
std::vector<std::uint32_t> compress_counts(
    std::span<const std::uint64_t> counts);

/// The activity-weighted repartition at the heart of the two-pass flow:
/// multilevel with the profile's eval counts as vertex weights and its
/// message counts as net weights.
Partition partition_with_activity(const Circuit& c, std::uint32_t k,
                                  std::uint64_t seed,
                                  const ActivityProfile& profile);

}  // namespace plsim
