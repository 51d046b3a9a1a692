// The batch workloads: batch_20k runs the threaded engines on one large
// circuit compiled once in setup; fig1_vp and vp_pipeline run the Figure-1
// virtual platform over a sweep of circuits. Every engine or executor call
// is checked against the golden simulator.
//
// An operation is what a batch user waits for: one rotation of the engines
// over the stimulus (batch_20k), one point of Figure 1 (fig1_vp: one circuit
// size, its sequential cost and the three executors) and one full sweep
// (vp_pipeline, whose sweep is short).

#include <cmath>
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "engines/common.hpp"
#include "engines/engine.hpp"
#include "netlist/generators.hpp"
#include "partition/algorithms.hpp"
#include "seq/golden.hpp"
#include "stim/stimulus.hpp"
#include "suite.hpp"
#include "vp/vp.hpp"

namespace suite {
namespace {

using namespace plsim;

void report_ops(const std::vector<double>& op_s, double elapsed,
                Report& report) {
  report.metric("ops_per_s", static_cast<double>(op_s.size()) / elapsed, "1/s");
  report_latency(op_s, report);
}

void check_against(const RunResult& ref, const std::vector<Logic4>& finals,
                   std::uint64_t digest, const std::string& what,
                   Report& report) {
  if (digest != ref.wave.digest() || finals != ref.final_values)
    report.fail(what + ": waveform digest or final values differ from "
                       "simulate_golden");
}

// ---------------------------------------------------------------------------
// batch_20k

constexpr std::size_t kBatchGates = 20000;
constexpr std::size_t kBatchCycles = 100;
constexpr std::uint32_t kBatchBlocks = 4;
constexpr int kTimewarpReps = 2;
constexpr std::string_view kRotation[] = {"golden", "sync", "conservative"};

struct BatchRig {
  Circuit c;
  Stimulus stim;
  Partition p;
  std::shared_ptr<const CompiledRig> rig;
};

BatchRig batch_setup(std::uint64_t seed, SpanRecorder& rec) {
  auto root = rec.scope(kSetupSpan);
  Circuit c = spanned(rec, "netlist.build",
                      [] { return scaled_circuit(kBatchGates, 1); });
  Stimulus stim = spanned(rec, "stim.random_stimulus", [&] {
    return random_stimulus(c, kBatchCycles, 0.25, seed);
  });
  Partition p = spanned(rec, "partition.multilevel", [&] {
    return partition_multilevel(c, kBatchBlocks, 1);
  });
  auto rig = spanned(rec, "engines.compile_rig", [&] {
    return std::make_shared<const CompiledRig>(
        compile_rig(c, p, stim.period, PlanOpt::None));
  });
  return {std::move(c), std::move(stim), std::move(p), std::move(rig)};
}

RunResult run_engine(const BatchRig& b, std::string_view engine,
                     SpanRecorder& rec, std::uint64_t op) {
  if (engine == "golden") {
    auto s = rec.scope("seq.golden", op);
    return simulate_golden(b.c, b.stim);
  }
  EngineConfig cfg;
  cfg.plan_opt = PlanOpt::None;
  cfg.compiled = b.rig;
  if (engine == "sync") {
    auto s = rec.scope("engines.sync", op);
    return run_synchronous(b.c, b.stim, b.p, cfg);
  }
  if (engine == "conservative") {
    auto s = rec.scope("engines.conservative", op);
    return run_conservative(b.c, b.stim, b.p, cfg);
  }
  auto s = rec.scope("engines.timewarp", op);
  return run_timewarp(b.c, b.stim, b.p, cfg);
}

struct BatchPass {
  std::vector<double> op_s;  // per rotation
  double elapsed = 0.0;
  std::vector<std::vector<double>> engine_s;  // per run, by kRotation
  FamilyCounters families;
  double run_s = 0.0, instantiate_s = 0.0;
};

/// Whole rotations of golden, sync and conservative until `seconds` pass.
BatchPass batch_pass(const BatchRig& b, const RunResult& ref, double seconds,
                     SpanRecorder& rec, Report& report) {
  BatchPass pass;
  pass.engine_s.resize(std::size(kRotation));
  const Clock::time_point start = Clock::now();
  for (std::uint64_t op = 0; since(start) < seconds; ++op) {
    const Clock::time_point rot = Clock::now();
    {
      auto root = rec.scope(kJobSpan, op);
      for (std::size_t e = 0; e < std::size(kRotation); ++e) {
        const Clock::time_point t = Clock::now();
        const RunResult r = run_engine(b, kRotation[e], rec, op);
        pass.engine_s[e].push_back(since(t));
        ++report.attempted;
        check_against(ref, r.final_values, r.wave.digest(),
                      std::string(kRotation[e]) + " run", report);
        pass.families.add(kRotation[e], r.stats);
      }
    }
    pass.op_s.push_back(since(rot));
    if (rec.on()) {
      // run_* instantiates its rig internally; time the same call alone.
      BlockOptions bo;
      bo.clock_period = b.stim.period;
      bo.horizon = b.stim.horizon();
      const Clock::time_point ti = Clock::now();
      const BlockRig inst = instantiate_rig(b.c, b.stim, *b.rig, bo);
      pass.instantiate_s += since(ti);
      pass.run_s += pass.engine_s[1].back();
    }
  }
  pass.elapsed = since(start);
  return pass;
}

// ---------------------------------------------------------------------------
// fig1_vp and vp_pipeline

struct VpCase {
  Circuit c;
  Stimulus stim;
  Partition p;
};

constexpr std::uint32_t kVpProcs = 8;
constexpr std::size_t kFig1Sizes[] = {500, 1000, 2000, 5000, 10000, 20000, 40000};
constexpr int kPipelineWidths[] = {16, 32, 64, 152};
constexpr const char* kVpFamilies[] = {"sync", "conservative", "timewarp"};

/// The Figure-1 series (scaled circuits, FM cuts) or the register
/// pipelines (multilevel cuts). Stimulus seed 6 + seed, so seed 1 is
/// fig1's own stimulus.
std::vector<VpCase> vp_setup(bool fig1, std::uint64_t seed, SpanRecorder& rec) {
  auto root = rec.scope(kSetupSpan);
  std::vector<VpCase> cases;
  const std::size_t n = fig1 ? std::size(kFig1Sizes) : std::size(kPipelineWidths);
  for (std::size_t k = 0; k < n; ++k) {
    Circuit c = spanned(rec, "netlist.build", [&] {
      return fig1 ? scaled_circuit(kFig1Sizes[k], 1)
                  : pipeline(kPipelineWidths[k], static_cast<int>(kVpProcs), 1);
    });
    Stimulus stim = spanned(rec, "stim.random_stimulus", [&] {
      return random_stimulus(c, 20, 0.25, 6 + seed);
    });
    Partition p = fig1 ? spanned(rec, "partition.fm",
                                 [&] { return partition_fm(c, kVpProcs, 1); })
                       : spanned(rec, "partition.multilevel", [&] {
                           return partition_multilevel(c, kVpProcs, 1);
                         });
    cases.push_back({std::move(c), std::move(stim), std::move(p)});
  }
  return cases;
}

struct VpPass {
  std::vector<double> op_s;  // per point or per sweep
  double elapsed = 0.0;
  FamilyCounters families;
  std::vector<double> speedup;  // geomean over cases per family, 1st sweep
  double utilization[3] = {0, 0, 0};  // mean over cases, 1st sweep
};

/// Whole sweeps until `seconds` pass. Each case runs sequential_cost (the
/// speedup's numerator) and one executor per synchronization family; an
/// operation is one case when `point_ops`, else one sweep.
VpPass vp_pass(const std::vector<VpCase>& cases,
               const std::vector<RunResult>& refs, const VpConfig& cfg,
               bool point_ops, double seconds, SpanRecorder& rec,
               Report& report) {
  VpPass pass;
  const Clock::time_point start = Clock::now();
  for (std::uint64_t op = 0; since(start) < seconds;) {
    double log_speedup[3] = {0, 0, 0}, util[3] = {0, 0, 0};
    for (std::size_t first = 0; first < cases.size(); ++op) {
      const std::size_t last = point_ops ? first + 1 : cases.size();
      const Clock::time_point t = Clock::now();
      auto root = rec.scope(kJobSpan, op);
      for (std::size_t k = first; k < last; ++k) {
        const VpCase& vc = cases[k];
        SequentialCost seq;
        {
          auto s = rec.scope("vp.seq_cost", op);
          seq = sequential_cost(vc.c, vc.stim, cfg.cost);
        }
        for (int f = 0; f < 3; ++f) {
          VpResult r;
          if (f == 0) {
            auto s = rec.scope("vp.sync", op);
            r = run_sync_vp(vc.c, vc.stim, vc.p, cfg);
          } else if (f == 1) {
            auto s = rec.scope("vp.conservative", op);
            r = run_conservative_vp(vc.c, vc.stim, vc.p, cfg);
          } else {
            auto s = rec.scope("vp.timewarp", op);
            r = run_timewarp_vp(vc.c, vc.stim, vc.p, cfg);
          }
          ++report.attempted;
          check_against(refs[k], r.final_values, r.wave_digest,
                        std::string(kVpFamilies[f]) + " VP run, case " +
                            std::to_string(k),
                        report);
          pass.families.add(kVpFamilies[f], r.stats);
          log_speedup[f] += std::log(seq.work / r.makespan);
          util[f] += r.utilization();
        }
      }
      pass.op_s.push_back(since(t));
      first = last;
    }
    std::vector<double> speedup;
    for (const double l : log_speedup)
      speedup.push_back(std::exp(l / static_cast<double>(cases.size())));
    if (pass.speedup.empty()) {
      pass.speedup = speedup;
      for (int f = 0; f < 3; ++f)
        pass.utilization[f] = util[f] / static_cast<double>(cases.size());
    } else if (speedup != pass.speedup) {
      report.fail("VP speedups differ between sweeps of identical inputs");
    }
  }
  pass.elapsed = since(start);
  return pass;
}

}  // namespace

void run_batch_workload(const Options& opt, Report& report) {
  const Clock::time_point epoch = Clock::now();
  SpanRecorder off(false, epoch), on(opt.traced, epoch);
  std::optional<BatchRig> rig;
  const double setup_s = measure_setup(
      opt.traced, [&] { rig.reset(); },
      [&] { rig.emplace(batch_setup(opt.seed, on)); });
  const BatchRig& b = *rig;
  const RunResult ref = simulate_golden(b.c, b.stim);
  const double events = static_cast<double>(ref.stats.wire_events);

  BatchPass pass;
  if (!opt.traced) {
    report.metric("setup_s", setup_s, "s");
    pass = batch_pass(b, ref, opt.seconds, off, report);
  } else {
    const BatchPass p_off = batch_pass(b, ref, opt.seconds / 2, off, report);
    pass = batch_pass(b, ref, opt.seconds / 2, on, report);
    std::fprintf(stderr, "%s", report_layers(opt, {on.spans}, report).c_str());
    report_trace_overhead(p_off.op_s, pass.op_s, report);
    pass.families.report("engines", report);
    report.metric("engines.instantiate_rig.pct",
                  100.0 * pass.instantiate_s / pass.run_s, "%");
    report_no_service(report);
    report_no_vp(report);
  }
  report_ops(pass.op_s, pass.elapsed, report);
  // Committed wire events (the golden count) per second of each engine.
  for (std::size_t e = 0; e < std::size(kRotation); ++e)
    report.metric("mevents_per_s." + std::string(kRotation[e]),
                  events / median(pass.engine_s[e]) / 1e6, "Mevent/s");

  // Time Warp runs outside the measured window: its run-to-run spread is
  // too wide to gate on.
  std::vector<double> tw_s;
  for (int rep = 0; rep < kTimewarpReps; ++rep) {
    const Clock::time_point t = Clock::now();
    const RunResult r = run_engine(b, "timewarp", off, 0);
    tw_s.push_back(since(t));
    ++report.attempted;
    check_against(ref, r.final_values, r.wave.digest(), "timewarp run", report);
  }
  report.metric("mevents_per_s.timewarp", events / median(tw_s) / 1e6,
                "Mevent/s");
}

void run_vp_workload(const Options& opt, Report& report) {
  const bool fig1 = opt.workload == "fig1_vp";
  const Clock::time_point epoch = Clock::now();
  SpanRecorder off(false, epoch), on(opt.traced, epoch);
  std::vector<VpCase> cases;
  const double setup_s = measure_setup(
      opt.traced, [&] { cases.clear(); },
      [&] { cases = vp_setup(fig1, opt.seed, on); });
  std::vector<RunResult> refs;
  for (const VpCase& vc : cases) refs.push_back(simulate_golden(vc.c, vc.stim));

  // The surveyed optimistic implementations ran lazy cancellation; the
  // pipelines exercise adaptive conservative lookahead.
  VpConfig cfg;
  cfg.lazy_cancellation = true;
  cfg.cons_adaptive_lookahead = !fig1;

  VpPass pass;
  if (!opt.traced) {
    report.metric("setup_s", setup_s, "s");
    pass = vp_pass(cases, refs, cfg, fig1, opt.seconds, off, report);
  } else {
    const VpPass p_off =
        vp_pass(cases, refs, cfg, fig1, opt.seconds / 2, off, report);
    pass = vp_pass(cases, refs, cfg, fig1, opt.seconds / 2, on, report);
    std::fprintf(stderr, "%s", report_layers(opt, {on.spans}, report).c_str());
    report_trace_overhead(p_off.op_s, pass.op_s, report);
    pass.families.report("vp", report);
    for (int f = 0; f < 3; ++f) {
      report.metric(std::string("vp.speedup.") + kVpFamilies[f], pass.speedup[f], "x");
      report.metric(std::string("vp.utilization.") + kVpFamilies[f],
                    pass.utilization[f], "ratio");
    }
    FamilyCounters{}.report("engines", report);
    report.metric("engines.instantiate_rig.pct", 0.0, "%");
    report_no_service(report);
  }
  report_ops(pass.op_s, pass.elapsed, report);
  for (int f = 0; f < 3; ++f)
    report.metric(std::string("vp_speedup.") + kVpFamilies[f], pass.speedup[f], "x");
}

}  // namespace suite
