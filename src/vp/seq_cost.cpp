#include "engines/common.hpp"
#include "logic/gates.hpp"
#include "seq/golden.hpp"
#include "seq/oblivious.hpp"
#include "util/error.hpp"
#include "vp/vp.hpp"

namespace plsim {

std::vector<std::uint32_t> VpConfig::resolve_mapping(
    std::uint32_t n_blocks, std::uint32_t& n_procs) const {
  if (block_to_proc.empty()) {
    n_procs = n_blocks;
    std::vector<std::uint32_t> id(n_blocks);
    for (std::uint32_t b = 0; b < n_blocks; ++b) id[b] = b;
    return id;
  }
  PLSIM_CHECK(block_to_proc.size() == n_blocks,
              "VpConfig: block_to_proc size does not match the partition");
  n_procs = 0;
  for (std::uint32_t pr : block_to_proc) n_procs = std::max(n_procs, pr + 1);
  // Every processor must own at least one block.
  std::vector<std::uint8_t> seen(n_procs, 0);
  for (std::uint32_t pr : block_to_proc) seen[pr] = 1;
  for (std::uint8_t s : seen)
    PLSIM_CHECK(s, "VpConfig: processor with no blocks in block_to_proc");
  return block_to_proc;
}

std::vector<std::uint32_t> round_robin_mapping(std::uint32_t n_blocks,
                                               std::uint32_t n_procs) {
  PLSIM_CHECK(n_procs >= 1 && n_procs <= n_blocks,
              "round_robin_mapping: need 1 <= procs <= blocks");
  std::vector<std::uint32_t> map(n_blocks);
  for (std::uint32_t b = 0; b < n_blocks; ++b) map[b] = b % n_procs;
  return map;
}

double batch_cost(const CostModel& cost, const BatchStats& bs, SaveMode save,
                  bool checkpoint) {
  // Message sends are charged by each executor per routed destination, not
  // here (messages_out counts exported changes, not deliveries).
  double w = cost.batch_overhead + bs.wire_events * cost.event +
             bs.evaluations * cost.eval + bs.dff_samples * cost.dff_sample;
  if (save == SaveMode::Incremental) {
    // Sparse checkpointing (run_timewarp_vp's per-LP interval) skips the
    // fixed state-saving charge on non-checkpoint batches; the incremental
    // log entries themselves are still written (rollback stays exact).
    w += bs.undo_entries * cost.undo_per_entry;
    if (checkpoint) w += cost.save_fixed;
  } else if (save == SaveMode::Full) {
    w += cost.save_fixed + static_cast<double>(bs.save_bytes) * cost.save_per_byte;
  }
  return w;
}

void collect_rig_results(const Circuit& c, const BlockRig& rig, VpResult& r) {
  RunResult merged = merge_results(c, rig, false);
  r.final_values = std::move(merged.final_values);
  r.wave_digest = merged.wave.digest();
  r.stats.wire_events = merged.stats.wire_events;
  r.stats.evaluations = merged.stats.evaluations;
  r.stats.dff_samples = merged.stats.dff_samples;
  r.stats.batches = merged.stats.batches;
  r.stats.save_bytes = merged.stats.save_bytes;
  r.stats.undo_entries = merged.stats.undo_entries;
}

SequentialCost sequential_cost(const Circuit& c, const Stimulus& stim,
                               const CostModel& cost) {
  const RunResult r = simulate_golden(c, stim);
  SequentialCost sc;
  sc.events = r.stats.wire_events;
  sc.work = r.stats.batches * cost.batch_overhead +
            r.stats.wire_events * cost.event +
            r.stats.evaluations * cost.eval +
            r.stats.dff_samples * cost.dff_sample;
  return sc;
}

double oblivious_sequential_cost(const Circuit& c, const Stimulus& stim,
                                 const CostModel& cost) {
  // Every combinational gate is evaluated every cycle plus the trailing
  // settle; DFFs are sampled every cycle. No event queue at all.
  std::size_t comb = 0;
  for (GateId g = 0; g < c.gate_count(); ++g)
    if (is_combinational(c.type(g))) ++comb;
  const double cycles = static_cast<double>(stim.vectors.size());
  return (cycles + 1.0) * static_cast<double>(comb) * cost.eval +
         cycles * static_cast<double>(c.flip_flops().size()) * cost.dff_sample;
}

}  // namespace plsim
