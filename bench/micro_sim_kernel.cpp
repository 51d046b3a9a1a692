// M4 — engineering macrobenchmark: full event-driven simulation throughput
// of the golden BlockSimulator, plus the oblivious sweep, in committed
// events / gate-evaluations per second of host time.

#include <benchmark/benchmark.h>

#include "bench_main.hpp"

#include "analyze/opt.hpp"
#include "netlist/generators.hpp"
#include "seq/golden.hpp"
#include "seq/oblivious.hpp"
#include "stim/stimulus.hpp"

namespace {

using namespace plsim;

const Circuit& test_circuit() {
  static const Circuit c = scaled_circuit(5000, 1);
  return c;
}
const Stimulus& test_stim() {
  static const Stimulus s = random_stimulus(test_circuit(), 20, 0.3, 7);
  return s;
}

// BlockSimulator golden run (the pending set is the production LadderQueue).
void BM_GoldenBlock(benchmark::State& state) {
  std::uint64_t events = 0;
  for (auto _ : state) {
    const RunResult r = simulate_golden(test_circuit(), test_stim());
    events = r.stats.wire_events;
    benchmark::DoNotOptimize(r.final_values.data());
  }
  state.SetItemsProcessed(state.iterations() * events);
}
BENCHMARK(BM_GoldenBlock);

// Same golden run on the analyzer-optimized circuit (PlanOpt::Safe:
// constant folding + structural hashing + dead-gate sweep) — the before /
// after pair of EXPERIMENTS.md's optimization-reduction table.
void BM_GoldenBlockOpt(benchmark::State& state) {
  static const OptimizedCircuit opt = optimize_circuit(test_circuit(), {});
  std::uint64_t events = 0;
  for (auto _ : state) {
    const RunResult r = simulate_golden(opt.circuit, test_stim());
    events = r.stats.wire_events;
    benchmark::DoNotOptimize(r.final_values.data());
  }
  state.SetLabel(opt.stats.summary());
  state.SetItemsProcessed(state.iterations() * events);
}
BENCHMARK(BM_GoldenBlockOpt);

// Cost of the optimization passes themselves (paid once per plan compile).
void BM_OptimizeCircuit(benchmark::State& state) {
  for (auto _ : state) {
    const OptimizedCircuit o = optimize_circuit(test_circuit(), {});
    benchmark::DoNotOptimize(o.old_to_new.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          test_circuit().gate_count());
}
BENCHMARK(BM_OptimizeCircuit);

void BM_Oblivious(benchmark::State& state) {
  std::uint64_t evals = 0;
  for (auto _ : state) {
    const ObliviousResult r = simulate_oblivious(test_circuit(), test_stim());
    evals = r.evaluations;
    benchmark::DoNotOptimize(r.final_values.data());
  }
  state.SetItemsProcessed(state.iterations() * evals);
}
BENCHMARK(BM_Oblivious);

}  // namespace

PLSIM_BENCHMARK_MAIN("micro_sim_kernel")
