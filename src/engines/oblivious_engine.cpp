// Parallel oblivious engine (paper §IV): no event queue at all — every gate
// is evaluated at every cycle, level by level, with a barrier between levels.
// Zero-delay cycle semantics (matches seq/oblivious.hpp, not the event-driven
// timing engines); the engine registry therefore keeps it separate.
//
// Runs on the compiled plan: partition-first renumbering gives every block a
// dense, cache-local slice of the shared plan-indexed value array, the level
// schedule holds plan indices, and evaluation goes through the LUT kernels.

#include <optional>

#include "check/auditor.hpp"
#include "core/environment.hpp"
#include "engines/common.hpp"
#include "engines/engine.hpp"
#include "logic/gates.hpp"
#include "parallel/barrier.hpp"
#include "parallel/threads.hpp"
#include "sim/plan.hpp"
#include "trace/trace.hpp"
#include "util/timer.hpp"

namespace plsim {

namespace {

/// The level sweep: the per-(level, block) schedule, the per-worker counters
/// and the threaded run over one Logic4 per signal with LUT evaluation.
struct LevelSweep {
  LevelSweep(const Circuit& c, const SimPlan& plan, const Stimulus& s,
             Auditor* auditor)
      : sp(plan),
        stim(s),
        n(plan.n_blocks()),
        depth(c.depth()),
        schedule(depth + 1, std::vector<std::vector<std::uint32_t>>(n)),
        dff_of(n),
        aud(auditor),
        evals(n, 0),
        barriers(n, 0) {
    for (std::uint32_t pi : sp.level_order()) {
      const PlanGate& rec = sp.gate(pi);
      if (rec.is_comb) schedule[rec.level][sp.block_of(pi)].push_back(pi);
    }
    for (std::uint32_t ff : sp.dffs()) dff_of[sp.block_of(ff)].push_back(ff);
    for (GateId g : c.primary_inputs()) pi_plan.push_back(sp.plan_of(g));
  }

  const SimPlan& sp;
  const Stimulus& stim;
  std::uint32_t n;
  std::uint32_t depth;
  /// Plan indices per (level, block), in level order.
  std::vector<std::vector<std::vector<std::uint32_t>>> schedule;
  std::vector<std::vector<std::uint32_t>> dff_of;
  std::vector<std::uint32_t> pi_plan;
  Auditor* aud;
  std::vector<std::uint64_t> evals, barriers;

  /// Sweep every cycle (plus the trailing settle) on `n` threads with a
  /// barrier after the input load, after every level and before the DFF
  /// update. Returns the final values in plan-index space. Block b owns one
  /// dense slice of the shared value array; cross-thread reads are ordered
  /// by the barriers.
  std::vector<Logic4> run(trace::Session& tsn) {
    const EvalTables4& tb = eval_tables4();
    std::vector<Logic4> values(sp.size());
    for (std::uint32_t pi = 0; pi < sp.size(); ++pi)
      values[pi] = plan_initial_value(sp.gate(pi).op);
    std::vector<Logic4> next_q(sp.size(), Logic4::F);
    MinReduceBarrier barrier(n);

    run_on_threads(n, [&](unsigned b) {
      trace::Lane* tl = tsn.lane(b);
      auto arrive = [&](std::size_t cycle) {
        {
          PLSIM_TRACE_SCOPE(tl, BarrierWait, cycle,
                            static_cast<std::uint32_t>(barriers[b]));
          barrier.arrive(0);
        }
        ++barriers[b];
      };
      for (std::size_t cycle = 0; cycle < stim.vectors.size() + 1; ++cycle) {
        if (b == 0 && cycle < stim.vectors.size()) {
          const auto& vec = stim.vectors[cycle];
          for (std::size_t i = 0; i < pi_plan.size() && i < vec.size(); ++i)
            values[pi_plan[i]] = vec[i];
        }
        arrive(cycle);
        if (aud) {
          aud->on_batch(b, cycle);
          aud->on_barrier(b);
        }
        for (std::uint32_t lv = 1; lv <= depth; ++lv) {
          {
            PLSIM_TRACE_SCOPE(
                tl, Eval, cycle,
                static_cast<std::uint32_t>(schedule[lv][b].size()));
            for (std::uint32_t pi : schedule[lv][b]) {
              const PlanGate& rec = sp.gate(pi);
              values[pi] = plan_eval4_gather(tb, rec.op, values.data(),
                                             sp.fanins(rec).data(),
                                             rec.fanin_count);
              ++evals[b];
            }
          }
          arrive(cycle);
          if (aud) {
            aud->on_eval(b, schedule[lv][b].size());
            aud->on_barrier(b);
          }
        }
        if (cycle < stim.vectors.size()) {
          for (std::uint32_t ff : dff_of[b])
            next_q[ff] = z_to_x(values[sp.fanins(sp.gate(ff))[0]]);
          arrive(cycle);
          if (aud) {
            aud->on_dff(b, dff_of[b].size());
            aud->on_barrier(b);
          }
          for (std::uint32_t ff : dff_of[b]) values[ff] = next_q[ff];
        }
      }
    });
    return values;
  }
};

}  // namespace

RunResult run_oblivious_parallel(const Circuit& c, const Stimulus& stim,
                                 const Partition& p, const EngineConfig& cfg) {
  // Optimizing front end: sweep the optimized netlist, then translate the
  // final values back. The oblivious engine fully settles every cycle, so
  // the settled constant recorded for each eliminated folded gate is exact
  // here regardless of its event-driven onset.
  if (cfg.plan_opt != PlanOpt::None) {
    validate_partition(c, p);
    OptOptions oo;
    oo.level = cfg.plan_opt;
    oo.keep = cfg.keep;
    oo.clock_period = stim.period;
    OptimizedCircuit o = optimize_circuit(c, oo);
    if (o.changed() && o.circuit.gate_count() >= p.n_blocks) {
      Partition remapped;
      remapped.n_blocks = p.n_blocks;
      remapped.block_of.resize(o.circuit.gate_count());
      for (GateId g = 0; g < o.circuit.gate_count(); ++g)
        remapped.block_of[g] = p.block_of[o.new_to_old[g]];
      fix_empty_blocks(o.circuit, remapped);
      EngineConfig inner = cfg;
      inner.plan_opt = PlanOpt::None;
      RunResult r = run_oblivious_parallel(o.circuit, stim, remapped, inner);
      std::vector<Logic4> values = std::move(r.final_values);
      r.final_values.assign(c.gate_count(), Logic4::X);
      for (GateId g = 0; g < c.gate_count(); ++g) {
        const GateId ng = o.old_to_new[g];
        r.final_values[g] = ng != kNoGate ? values[ng] : o.removed_value[g];
      }
      return r;
    }
  }

  WallTimer timer;
  validate_partition(c, p);
  const std::uint32_t n = p.n_blocks;

  const auto plan = SimPlan::build(c, p.blocks(c));
  const SimPlan& sp = *plan;

  // The oblivious engine exchanges no messages and records no trace; the
  // auditor checks that each worker sweeps cycles in causal order and that
  // the sweep conserved evaluations (one per combinational gate per cycle)
  // and barrier arrivals (every worker at every barrier).
  std::optional<Auditor> aud;
  if (cfg.audit || Auditor::env_enabled())
    aud.emplace("oblivious-parallel", n, stim.vectors.size() + 1);

  LevelSweep sweep(c, sp, stim, aud ? &*aud : nullptr);
  trace::Session tsn("oblivious-parallel", n);
  const std::vector<Logic4> values = sweep.run(tsn);

  RunResult r;
  r.final_values.assign(c.gate_count(), Logic4::X);
  for (std::uint32_t pi = 0; pi < sp.size(); ++pi)
    r.final_values[sp.gate_of(pi)] = values[pi];
  for (std::uint32_t b = 0; b < n; ++b) {
    r.stats.evaluations += sweep.evals[b];
    r.stats.barriers += sweep.barriers[b];
  }
  r.wall_seconds = timer.seconds();
  if (aud) {
    // Constants are combinational but sit at level 0 and are never swept.
    std::uint64_t swept = 0;
    for (std::uint32_t pi = 0; pi < sp.size(); ++pi)
      if (sp.gate(pi).is_comb && sp.gate(pi).level > 0) ++swept;
    aud->expect_evaluations(swept * (stim.vectors.size() + 1));
    // Every DFF is sampled exactly once per stimulus vector (the +1 settle
    // cycle clocks nothing).
    aud->expect_dff_samples(sp.dffs().size() * stim.vectors.size());
    aud->finalize();
  }
  return r;
}

std::vector<NamedEngine> standard_engines() {
  return {
      {"synchronous", &run_synchronous},
      {"conservative", &run_conservative},
      {"timewarp", &run_timewarp},
  };
}

}  // namespace plsim
