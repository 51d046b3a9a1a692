#include "engines/common.hpp"

#include <algorithm>

#include "core/environment.hpp"
#include "partition/partition.hpp"
#include "util/error.hpp"

namespace plsim {

CompiledRig compile_rig(const Circuit& c, const Partition& p,
                        Tick clock_period, PlanOpt opt,
                        std::span<const GateId> keep) {
  validate_partition(c, p);
  CompiledRig cr;
  cr.source = p;

  // Optimize first, then remap the partition onto the survivors. The
  // stimulus needs no rebinding: primary inputs always survive and keep
  // their relative order, so positional binding is unchanged.
  const Circuit* cc = &c;
  const Partition* pp = &p;
  if (opt != PlanOpt::None) {
    OptOptions oo;
    oo.level = opt;
    oo.keep = keep;
    oo.clock_period = clock_period;
    OptimizedCircuit o = optimize_circuit(c, oo);
    if (o.changed() && o.circuit.gate_count() >= p.n_blocks) {
      cr.opt = std::make_shared<const OptimizedCircuit>(std::move(o));
      cr.partition.n_blocks = p.n_blocks;
      cr.partition.block_of.resize(cr.opt->circuit.gate_count());
      for (GateId g = 0; g < cr.opt->circuit.gate_count(); ++g)
        cr.partition.block_of[g] = p.block_of[cr.opt->new_to_old[g]];
      fix_empty_blocks(cr.opt->circuit, cr.partition);
      cc = &cr.opt->circuit;
      pp = &cr.partition;
    }
  }
  if (cr.opt == nullptr) cr.partition = p;

  cr.routing = build_routing(*cc, *pp);
  cr.plan = SimPlan::build(*cc, pp->blocks(*cc), pp->exported(*cc));
  return cr;
}

BlockRig instantiate_rig(const Circuit& c, const Stimulus& stim,
                         const CompiledRig& compiled,
                         const BlockOptions& base) {
  BlockRig rig;
  rig.horizon = base.horizon;
  rig.plan = compiled.plan;
  rig.routing = compiled.routing;
  rig.opt = compiled.opt;

  const Circuit& cc = compiled.opt ? compiled.opt->circuit : c;
  const std::uint32_t n = compiled.partition.n_blocks;
  rig.blocks.reserve(n);
  for (std::uint32_t b = 0; b < n; ++b)
    rig.blocks.push_back(std::make_unique<BlockSimulator>(rig.plan, b, base));

  const std::vector<Message> env = environment_messages(cc, stim);
  rig.env.resize(n);
  for (std::uint32_t b = 0; b < n; ++b)
    for (const Message& m : env)
      if (rig.blocks[b]->in_scope(m.gate)) rig.env[b].push_back(m);
  return rig;
}

BlockRig build_rig(const Circuit& c, const Stimulus& stim, const Partition& p,
                   const BlockOptions& base, const EngineConfig& cfg) {
  if (cfg.compiled == nullptr)
    return instantiate_rig(
        c, stim, compile_rig(c, p, base.clock_period, cfg.plan_opt, cfg.keep),
        base);
  const CompiledRig& cr = *cfg.compiled;
  if (cr.plan == nullptr) raise("EngineConfig::compiled rig has no plan");
  if (cr.source.n_blocks != p.n_blocks ||
      cr.source.block_of != p.block_of)
    raise("EngineConfig::compiled was built for a different partition than "
          "the one passed to the engine");
  return instantiate_rig(c, stim, cr, base);
}

RunResult merge_results(const Circuit& c, const BlockRig& rig,
                        bool record_trace) {
  RunResult r;
  const std::size_t n_run =
      rig.opt ? rig.opt->circuit.gate_count() : c.gate_count();
  std::vector<Logic4> values(n_run, Logic4::X);
  for (const auto& blk : rig.blocks) {
    blk->harvest_values(values);
    r.wave.merge(blk->wave());
    r.stats.merge(blk->stats());
    if (record_trace)
      r.trace.insert(r.trace.end(), blk->trace().begin(), blk->trace().end());
  }
  if (rig.opt) {
    const OptimizedCircuit& o = *rig.opt;
    r.final_values.assign(c.gate_count(), Logic4::X);
    for (GateId g = 0; g < c.gate_count(); ++g) {
      const GateId ng = o.old_to_new[g];
      if (ng != kNoGate)
        r.final_values[g] = values[ng];
      else if (o.removed_onset[g] < rig.horizon)
        r.final_values[g] = o.removed_value[g];
      // else: the folded constant would have committed past the horizon (or
      // the gate was plain dead logic) — the wire still reads X.
    }
    if (record_trace)
      for (ChangeRecord& cr : r.trace) cr.gate = o.new_to_old[cr.gate];
  } else {
    r.final_values = std::move(values);
  }
  if (record_trace) {
    // plsim-lint: allow(block-order) — trace time order, not a block order
    std::sort(r.trace.begin(), r.trace.end(),
              [](const ChangeRecord& a, const ChangeRecord& b) {
                if (a.time != b.time) return a.time < b.time;
                return a.gate < b.gate;
              });
  }
  return r;
}

void flush_block_activity(trace::Session& tsn, const BlockRig& rig) {
  trace::Recorder* rec = tsn.recorder();
  if (rec == nullptr) return;
  for (std::uint32_t b = 0; b < rig.blocks.size(); ++b) {
    const BlockSimulator& blk = *rig.blocks[b];
    for (GateId g : blk.owned()) {
      // Report in the original circuit's gate ids so a profile extracted
      // from the trace lines up with the unoptimized netlist.
      const GateId orig = rig.opt ? rig.opt->new_to_old[g] : g;
      const std::uint32_t evals = blk.eval_count(g);
      const std::uint32_t msgs = blk.change_count(g);
      trace::Record r;
      r.lp = b;
      r.aux = orig;
      if (evals > 0) {
        r.tick = evals;
        r.kind = static_cast<std::uint16_t>(trace::Kind::GateEval);
        rec->add_extra(r);
      }
      if (msgs > 0) {
        r.tick = msgs;
        r.kind = static_cast<std::uint16_t>(trace::Kind::NetMsg);
        rec->add_extra(r);
      }
    }
  }
}

}  // namespace plsim
