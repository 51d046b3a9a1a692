#include <algorithm>
#include <string>

#include "engines/engine.hpp"
#include "util/error.hpp"

namespace plsim {

namespace {
[[noreturn]] void reject(const char* engine, const std::string& why) {
  raise("EngineConfig[" + std::string(engine) + "]: " + why);
}
}  // namespace

void validate_engine_config(const EngineConfig& cfg, std::uint32_t n_blocks,
                            const char* engine) {
  // Two-pass drivers: activity feedback and cp guidance each rerun the
  // engine once with a derived configuration; stacking them would profile
  // against one partition and analyze slack against another.
  if (cfg.cp_guided && cfg.activity_feedback)
    reject(engine, "cp_guided and activity_feedback are both two-pass "
                   "drivers; pick one (cp_guided composes the schedule "
                   "itself via schedule_blocks)");
  // A precompiled rig froze circuit, partition and plan at compile time;
  // any driver that reshapes the partition afterwards would run the plan on
  // a partition it was not compiled for.
  if (cfg.compiled && cfg.activity_feedback)
    reject(engine, "a precompiled rig cannot be combined with "
                   "activity_feedback (the repartition would invalidate "
                   "the compiled plan); compile against the repartitioned "
                   "blocks instead");
  if (cfg.compiled && cfg.schedule_blocks)
    reject(engine, "a precompiled rig cannot be combined with "
                   "schedule_blocks (the block renumbering would invalidate "
                   "the compiled plan); schedule before compiling instead");
  if (cfg.compiled && cfg.cp_guided)
    reject(engine, "a precompiled rig cannot be combined with cp_guided "
                   "(the guided rerun reshapes per-LP knobs around a fresh "
                   "analysis pass); derive lp_optimism/lp_save_interval "
                   "first and pass them explicitly");
  if (cfg.cp_guided && !cfg.lp_optimism.empty())
    reject(engine, "cp_guided derives lp_optimism; supplying both is "
                   "contradictory");
  if (cfg.cp_guided && !cfg.lp_save_interval.empty())
    reject(engine, "cp_guided derives lp_save_interval; supplying both is "
                   "contradictory");
  if (cfg.cp_guided && cfg.cp_window == 0)
    reject(engine, "cp_guided with cp_window 0: a zero throttle window "
                   "would stall every off-path LP at GVT forever");
  if (cfg.cp_guided && cfg.cp_save_interval == 0)
    reject(engine, "cp_guided with cp_save_interval 0: checkpoint "
                   "intervals count batches and must be >= 1");
  if (cfg.cp_guided &&
      !(cfg.cp_slack_threshold >= 0.0 && cfg.cp_slack_threshold <= 1.0))
    reject(engine, "cp_slack_threshold must lie in [0, 1] (it is a "
                   "fraction of the critical-path time)");
  if (!cfg.lp_optimism.empty() && cfg.optimism_window > 0)
    reject(engine, "lp_optimism and a global optimism_window are mutually "
                   "exclusive (per-LP entry 0 already means unbounded)");
  if (!cfg.lp_optimism.empty() && cfg.lp_optimism.size() != n_blocks)
    reject(engine, "lp_optimism must have one entry per block");
  if (!cfg.lp_save_interval.empty() &&
      cfg.lp_save_interval.size() != n_blocks)
    reject(engine, "lp_save_interval must have one entry per block");
  if (cfg.save_interval == 0)
    reject(engine, "save_interval 0: checkpoint intervals count batches "
                   "and must be >= 1");
  if (std::any_of(cfg.lp_save_interval.begin(), cfg.lp_save_interval.end(),
                  [](std::uint32_t k) { return k == 0; }))
    reject(engine, "lp_save_interval entries must be >= 1");
  // Sparse checkpoints are meaningful only for the incremental undo log;
  // Full restores the earliest snapshot at/after the rollback target, and a
  // skipped snapshot would leave later batches silently applied.
  const bool sparse =
      cfg.save_interval > 1 || cfg.cp_guided ||
      std::any_of(cfg.lp_save_interval.begin(), cfg.lp_save_interval.end(),
                  [](std::uint32_t k) { return k > 1; });
  if (cfg.save == SaveMode::Full && sparse)
    reject(engine, "sparse checkpoint intervals require "
                   "SaveMode::Incremental (Full-copy restore cannot skip "
                   "snapshots soundly)");
}

}  // namespace plsim
