// M8 — engineering microbenchmark: partitioner cost. The paper (§III)
// treats partitioning as pre-processing whose cost must stay small next to
// the simulation it feeds; this times the two min-cut partitioners the
// engines and the service use on scaled circuits: multilevel (the service
// and batch default) against FM with gain buckets (Figure 1's cuts). Sizes
// span a service job (250, 2000 and 6000 gates, 2 blocks) to the batch
// circuits (20k and 40k gates, 4 blocks). One more case times multilevel
// on bench/suite's largest register pipeline (width 152, 8 stages, 8
// blocks).

#include <benchmark/benchmark.h>

#include "bench_main.hpp"

#include "netlist/generators.hpp"
#include "partition/algorithms.hpp"

namespace {

using namespace plsim;

using Partitioner = Partition (*)(const Circuit&, std::uint32_t,
                                  std::uint64_t);

Partition multilevel(const Circuit& c, std::uint32_t k, std::uint64_t seed) {
  return partition_multilevel(c, k, seed);
}

Partition fm(const Circuit& c, std::uint32_t k, std::uint64_t seed) {
  return partition_fm(c, k, seed);
}

void time_partition(benchmark::State& state, const Circuit& c,
                    std::uint32_t k, Partitioner partition) {
  for (auto _ : state) {
    const Partition p = partition(c, k, 1);
    benchmark::DoNotOptimize(p.block_of.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(c.gate_count()));
}

void run(benchmark::State& state, Partitioner partition) {
  time_partition(state,
                 scaled_circuit(static_cast<std::size_t>(state.range(0)), 1),
                 static_cast<std::uint32_t>(state.range(1)), partition);
}

void sizes(benchmark::internal::Benchmark* b) {
  b->ArgNames({"gates", "k"})
      ->Args({250, 2})
      ->Args({2000, 2})
      ->Args({6000, 2})
      ->Args({20000, 4})
      ->Args({40000, 4})
      ->Unit(benchmark::kMillisecond);
}

void BM_PartitionMultilevel(benchmark::State& state) { run(state, multilevel); }
BENCHMARK(BM_PartitionMultilevel)->Apply(sizes);

void BM_PartitionMultilevelPipeline(benchmark::State& state) {
  time_partition(state, pipeline(152, 8, 1), 8, multilevel);
}
BENCHMARK(BM_PartitionMultilevelPipeline)->Unit(benchmark::kMillisecond);

void BM_PartitionFm(benchmark::State& state) { run(state, fm); }
BENCHMARK(BM_PartitionFm)->Apply(sizes);

}  // namespace

PLSIM_BENCHMARK_MAIN("micro_partition")
