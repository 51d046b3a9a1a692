// M2 — engineering microbenchmark: functional evaluation throughput of the
// interpretive switch kernels (eval_gate4/eval_gate9), the compiled LUT
// kernels behind SimPlan (plan_eval4/plan_eval9 — the t_evaluate term the
// VP cost model is calibrated from), and the 64-lane bit-parallel system
// (the paper's data-parallelism substrate).

#include <benchmark/benchmark.h>

#include "bench_main.hpp"

#include <array>
#include <vector>

#include "logic/gates.hpp"
#include "logic/logic9.hpp"
#include "sim/packed.hpp"
#include "sim/tables.hpp"
#include "util/rng.hpp"

namespace {

using namespace plsim;

const GateType kTypes[] = {GateType::And, GateType::Nand, GateType::Or,
                           GateType::Nor, GateType::Xor,  GateType::Not};

void BM_EvalGate4(benchmark::State& state) {
  Rng rng(3);
  std::vector<Logic4> values(4096);
  for (auto& v : values)
    v = static_cast<Logic4>(rng.uniform(4));
  std::array<Logic4, 3> ins;
  std::size_t i = 0;
  for (auto _ : state) {
    const GateType t = kTypes[i % std::size(kTypes)];
    const std::size_t arity = (t == GateType::Not) ? 1 : 2;
    ins[0] = values[i % values.size()];
    ins[1] = values[(i * 7 + 1) % values.size()];
    benchmark::DoNotOptimize(eval_gate4(t, {ins.data(), arity}));
    ++i;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EvalGate4);

// Same mixed-op/arity stream as BM_EvalGate4, through the compiled tables —
// the ratio of the two is the t_evaluate speedup fed into src/vp/cost.cpp.
void BM_EvalPlan4(benchmark::State& state) {
  const EvalTables4& tb = eval_tables4();
  Rng rng(3);
  std::vector<Logic4> values(4096);
  for (auto& v : values)
    v = static_cast<Logic4>(rng.uniform(4));
  std::array<Logic4, 3> ins;
  std::size_t i = 0;
  for (auto _ : state) {
    const GateType t = kTypes[i % std::size(kTypes)];
    const std::size_t arity = (t == GateType::Not) ? 1 : 2;
    ins[0] = values[i % values.size()];
    ins[1] = values[(i * 7 + 1) % values.size()];
    benchmark::DoNotOptimize(plan_eval4(tb, t, ins.data(), arity));
    ++i;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EvalPlan4);

void BM_EvalGate9(benchmark::State& state) {
  Rng rng(3);
  std::vector<Logic9> values(4096);
  for (auto& v : values)
    v = static_cast<Logic9>(rng.uniform(9));
  std::array<Logic9, 3> ins;
  std::size_t i = 0;
  for (auto _ : state) {
    const GateType t = kTypes[i % std::size(kTypes)];
    const std::size_t arity = (t == GateType::Not) ? 1 : 2;
    ins[0] = values[i % values.size()];
    ins[1] = values[(i * 7 + 1) % values.size()];
    benchmark::DoNotOptimize(eval_gate9(t, {ins.data(), arity}));
    ++i;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EvalGate9);

void BM_EvalPlan9(benchmark::State& state) {
  const EvalTables9& tb = eval_tables9();
  Rng rng(3);
  std::vector<Logic9> values(4096);
  for (auto& v : values)
    v = static_cast<Logic9>(rng.uniform(9));
  std::array<Logic9, 3> ins;
  std::size_t i = 0;
  for (auto _ : state) {
    const GateType t = kTypes[i % std::size(kTypes)];
    const std::size_t arity = (t == GateType::Not) ? 1 : 2;
    ins[0] = values[i % values.size()];
    ins[1] = values[(i * 7 + 1) % values.size()];
    benchmark::DoNotOptimize(plan_eval9(tb, t, ins.data(), arity));
    ++i;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EvalPlan9);

void BM_EvalGate64(benchmark::State& state) {
  Rng rng(3);
  std::vector<std::uint64_t> values(4096);
  for (auto& v : values) v = rng.next();
  std::array<std::uint64_t, 3> ins;
  std::size_t i = 0;
  for (auto _ : state) {
    const GateType t = kTypes[i % std::size(kTypes)];
    const std::size_t arity = (t == GateType::Not) ? 1 : 2;
    ins[0] = values[i % values.size()];
    ins[1] = values[(i * 7 + 1) % values.size()];
    benchmark::DoNotOptimize(eval_gate64(t, {ins.data(), arity}));
    ++i;
  }
  // 64 logical evaluations per call.
  state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_EvalGate64);

// 64-lane 2-valued packed kernel — the fault plane's gather variant of
// eval_gate64 (no operand copy).
void BM_PackedEval2Gather(benchmark::State& state) {
  Rng rng(3);
  std::vector<std::uint64_t> values(4096);
  for (auto& v : values) v = rng.next();
  const std::uint32_t fanin[3] = {0, 1, 2};
  std::array<std::uint64_t, 3> ins;
  std::size_t i = 0;
  for (auto _ : state) {
    const GateType t = kTypes[i % std::size(kTypes)];
    const std::size_t arity = (t == GateType::Not) ? 1 : 2;
    ins[0] = values[i % values.size()];
    ins[1] = values[(i * 7 + 1) % values.size()];
    benchmark::DoNotOptimize(
        packed2_eval_gather(t, ins.data(), fanin, arity));
    ++i;
  }
  state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_PackedEval2Gather);

}  // namespace

PLSIM_BENCHMARK_MAIN("micro_gate_eval")
