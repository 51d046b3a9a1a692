// Tests for the partitioning algorithms (paper §III): validity, determinism,
// balance, and cut quality relative to the random baseline.

#include <gtest/gtest.h>

#include "netlist/builder.hpp"
#include "netlist/builtin.hpp"
#include "netlist/generators.hpp"
#include "partition/activity.hpp"
#include "partition/algorithms.hpp"
#include "stim/stimulus.hpp"

namespace plsim {
namespace {

class AllPartitioners
    : public ::testing::TestWithParam<std::tuple<std::string, std::uint32_t>> {
};

Partition run_named(const std::string& name, const Circuit& c, std::uint32_t k,
                    std::uint64_t seed) {
  for (const auto& np : standard_partitioners())
    if (np.name == name) return np.run(c, k, seed);
  throw Error("unknown partitioner " + name);
}

TEST_P(AllPartitioners, ProducesValidPartition) {
  const auto [name, k] = GetParam();
  const Circuit c = scaled_circuit(600, 11);
  const Partition p = run_named(name, c, k, 1);
  validate_partition(c, p);
  EXPECT_EQ(p.n_blocks, k);

  const PartitionMetrics m = evaluate_partition(c, p);
  EXPECT_EQ(m.total_weight, c.gate_count());
  EXPECT_GE(m.min_load, 1u);
}

TEST_P(AllPartitioners, DeterministicForSeed) {
  const auto [name, k] = GetParam();
  const Circuit c = scaled_circuit(300, 7);
  const Partition a = run_named(name, c, k, 5);
  const Partition b = run_named(name, c, k, 5);
  EXPECT_EQ(a.block_of, b.block_of);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, AllPartitioners,
    ::testing::Combine(::testing::Values("random", "round_robin", "levels",
                                         "strings", "cones", "kl", "fm",
                                         "anneal", "multilevel"),
                       ::testing::Values(2u, 4u, 8u)),
    [](const auto& info) {
      return std::get<0>(info.param) + "_k" +
             std::to_string(std::get<1>(info.param));
    });

TEST(Partition, MinCutHeuristicsBeatRandom) {
  const Circuit c = scaled_circuit(1200, 3);
  const std::uint32_t k = 4;
  const auto random_cut = evaluate_partition(c, partition_random(c, k, 1)).cut_edges;
  const auto fm_cut = evaluate_partition(c, partition_fm(c, k, 1)).cut_edges;
  const auto kl_cut = evaluate_partition(c, partition_kl(c, k, 1)).cut_edges;
  const auto ml_cut =
      evaluate_partition(c, partition_multilevel(c, k, 1)).cut_edges;
  EXPECT_LT(fm_cut, random_cut);
  EXPECT_LT(kl_cut, random_cut);
  EXPECT_LT(ml_cut, random_cut);
  // Multilevel should at least be in FM's league on mid-size netlists.
  EXPECT_LT(ml_cut, fm_cut * 2);
}

TEST(Partition, FmKeepsBalance) {
  const Circuit c = scaled_circuit(1000, 9);
  const Partition p = partition_fm(c, 8, 2);
  const PartitionMetrics m = evaluate_partition(c, p);
  EXPECT_LT(m.imbalance, 1.35);
}

TEST(Partition, RoundRobinPerfectCountBalance) {
  const Circuit c = scaled_circuit(512, 5);
  const Partition p = partition_round_robin(c, 8);
  const PartitionMetrics m = evaluate_partition(c, p);
  EXPECT_EQ(m.max_load, 64u);
  EXPECT_EQ(m.min_load, 64u);
}

TEST(Partition, ConesFollowFaninStructure) {
  // In a cone partition of a tree-like circuit, most fanin edges stay local.
  const Circuit c = ripple_adder(16);
  const Partition cones = partition_cones(c, 4);
  const Partition random = partition_random(c, 4, 1);
  EXPECT_LT(evaluate_partition(c, cones).cut_edges,
            evaluate_partition(c, random).cut_edges);
}

TEST(Partition, ActivityRefinementImprovesWeightedBalance) {
  const Circuit c = scaled_circuit(800, 13);
  const Stimulus s = random_stimulus(c, 60, 0.4, 7);
  const std::vector<std::uint32_t> activity =
      compress_counts(profile_activity(c, s, 30).evals);

  // Start from a cut-centric partition that ignores activity.
  const Partition base = partition_fm(c, 6, 3);
  const Partition refined = refine_with_activity(c, base, activity);
  validate_partition(c, refined);

  std::vector<std::uint32_t> weights(activity.begin(), activity.end());
  const double before = evaluate_partition(c, base, weights).imbalance;
  const double after = evaluate_partition(c, refined, weights).imbalance;
  EXPECT_LE(after, before + 1e-9);
}

TEST(Partition, FixEmptyBlocksRepairs) {
  const Circuit c = builtin_circuit("c17");
  Partition p;
  p.n_blocks = 3;
  p.block_of.assign(c.gate_count(), 0);  // everything in block 0
  EXPECT_THROW(validate_partition(c, p), Error);
  fix_empty_blocks(c, p);
  validate_partition(c, p);
}

TEST(Partition, ExportedSetsMatchDefinition) {
  const Circuit c = builtin_circuit("s27");
  const Partition p = partition_round_robin(c, 3);
  const auto exported = p.exported(c);
  for (std::uint32_t b = 0; b < 3; ++b) {
    for (GateId g : exported[b]) {
      EXPECT_EQ(p.block_of[g], b);
      bool crosses = false;
      for (GateId s : c.fanouts(g)) crosses |= (p.block_of[s] != b);
      EXPECT_TRUE(crosses);
    }
  }
}

TEST(Partition, MoreBlocksThanGatesThrows) {
  const Circuit c = builtin_circuit("c17");  // 11 gates
  EXPECT_THROW(partition_round_robin(c, 20), Error);
}

TEST(Partition, MultilevelValidOrRejectsForEveryBlockCount) {
  // A bisection half that came back empty while still owing blocks used to
  // be bisected anyway, writing past a zero-length vector (c17 at k = 20,
  // s27 at k = 32). Every k must now give a valid partition or, once k
  // exceeds the gate count, the same Error as every other partitioner.
  for (const char* name : {"c17", "s27"}) {
    const Circuit c = builtin_circuit(name);
    for (std::uint32_t k = 1; k <= 256; ++k) {
      if (k <= c.gate_count()) {
        const Partition p = partition_multilevel(c, k, 1);
        validate_partition(c, p);
        EXPECT_EQ(p.n_blocks, k) << name << " k=" << k;
      } else {
        EXPECT_THROW(partition_multilevel(c, k, 1), Error)
            << name << " k=" << k;
      }
    }
  }
}

// --- Activity weighting (trace -> partition feedback) ---

TEST(PartitionWeighted, UniformActivityReproducesUnweightedFm) {
  // All comparisons in the FM bisection scale exactly under a uniform
  // weight, so a flat activity profile must be a bit-for-bit no-op.
  const Circuit c = scaled_circuit(900, 5);
  const std::vector<std::uint32_t> flat_v(c.gate_count(), 6);
  const std::vector<std::uint32_t> flat_n(c.gate_count(), 4);
  for (std::uint32_t k : {2u, 4u, 8u}) {
    const Partition plain = partition_fm(c, k, 3);
    const Partition weighted = partition_fm(c, k, 3, flat_v, flat_n);
    EXPECT_EQ(plain.block_of, weighted.block_of) << "k=" << k;
  }
}

TEST(PartitionWeighted, UniformActivityReproducesUnweightedMultilevel) {
  const Circuit c = scaled_circuit(900, 5);
  const std::vector<std::uint32_t> flat_v(c.gate_count(), 9);
  const std::vector<std::uint32_t> flat_n(c.gate_count(), 2);
  for (std::uint32_t k : {2u, 4u, 8u}) {
    const Partition plain = partition_multilevel(c, k, 3);
    const Partition weighted = partition_multilevel(c, k, 3, flat_v, flat_n);
    EXPECT_EQ(plain.block_of, weighted.block_of) << "k=" << k;
  }
}

namespace {
std::uint64_t partition_sig(const Partition& p) {
  std::uint64_t h = 1469598103934665603ull;  // FNV-1a over block ids
  for (std::uint32_t b : p.block_of) {
    h ^= b;
    h *= 1099511628211ull;
  }
  return h;
}
}  // namespace

TEST(PartitionWeighted, UnweightedMultilevelMatchesPreWeightGoldens) {
  // Exact unit-weight partitions (FNV-1a signature and cut) from the dense
  // graph build: neighbours in first-seen order, heavy-edge ties to the
  // lighter neighbour, then the first one seen. The build hashes nothing,
  // so these hold on every standard library; a change to coarsening,
  // matching or refinement that moves any partition fails here.
  struct Golden {
    std::uint32_t size, k;
    std::uint64_t seed, sig, cut;
  };
  static constexpr Golden kGoldens[] = {
      {300, 2, 1, 0x10d6277e5b03635cull, 70},
      {300, 2, 7, 0x678756f290a75927ull, 70},
      {300, 4, 1, 0xdab9703abbe4d9d6ull, 151},
      {300, 4, 7, 0x537f820dc9519c6full, 152},
      {300, 8, 1, 0xe03dc522efceca98ull, 217},
      {300, 8, 7, 0x42cff560c64ee7cfull, 209},
      {600, 2, 1, 0xa692d3d6a1016fa7ull, 106},
      {600, 2, 7, 0x5f01673a23eca63bull, 106},
      {600, 4, 1, 0xde2cad5ef099a92cull, 237},
      {600, 4, 7, 0xc2190ef9acec2670ull, 235},
      {600, 8, 1, 0x34d228cc68da9714ull, 380},
      {600, 8, 7, 0xab2122c8602330b8ull, 357},
      {1500, 2, 1, 0x20b9d720961eaee6ull, 250},
      {1500, 2, 7, 0xfc5078b8e533d08bull, 196},
      {1500, 4, 1, 0xd1a83e646899e82dull, 446},
      {1500, 4, 7, 0x3617d92452bf2cf7ull, 395},
      {1500, 8, 1, 0xc4e7fb5d1214765cull, 615},
      {1500, 8, 7, 0xdd992a89b91ab402ull, 580},
  };
  for (std::uint32_t size : {300u, 600u, 1500u}) {
    const Circuit c = scaled_circuit(size, 1);
    for (const Golden& g : kGoldens) {
      if (g.size != size) continue;
      const Partition p = partition_multilevel(c, g.k, g.seed);
      EXPECT_EQ(partition_sig(p), g.sig)
          << "size=" << g.size << " k=" << g.k << " seed=" << g.seed;
      EXPECT_EQ(evaluate_partition(c, p).cut_edges, g.cut)
          << "size=" << g.size << " k=" << g.k << " seed=" << g.seed;
    }
  }
}

TEST(PartitionWeighted, MultilevelMatchesScanRefineGoldens) {
  // Exact partitions from the same dense build as the table above, so that
  // later refinement work must keep every partition byte-identical. Beyond
  // that table this covers hashed activity weights (as in
  // DeterministicForSeedWithWeights), k = 3, a heavy-tailed profile whose
  // coarse levels arrive outside the balance window, so the restoration
  // loop moves vertices, and every partition the benchmark suite makes
  // with multilevel: its 20000-gate batch circuit, the service workloads'
  // hot 6000- and 2000-gate circuits, and the register pipelines.
  enum class Profile { Hashed, HeavyTail, Unit, Pipeline };
  struct Golden {
    Profile profile;
    std::uint32_t size;  // gates, or pipeline width
    std::uint64_t circuit_seed;
    std::uint32_t k;
    std::uint64_t sig, cut;
  };
  static constexpr Golden kGoldens[] = {
      {Profile::Hashed, 700, 9, 2, 0x6881c76402b96453ull, 190},
      {Profile::Hashed, 700, 9, 3, 0xc0587246c5664a52ull, 306},
      {Profile::Hashed, 700, 9, 4, 0xdc48488f195b5df8ull, 314},
      {Profile::Hashed, 700, 9, 8, 0x7dd84568040cfd3aull, 490},
      // vp_pipeline's four register pipelines.
      {Profile::Pipeline, 16, 1, 8, 0xfdc3ef82730e2da2ull, 144},
      {Profile::Pipeline, 32, 1, 8, 0x0bb9e7523262214eull, 240},
      {Profile::Pipeline, 64, 1, 8, 0x51b82afa9981e150ull, 449},
      {Profile::Pipeline, 152, 1, 8, 0xefcd25f2442f2979ull, 1081},
      {Profile::Unit, 5000, 1, 4, 0x85d22026f5fc0934ull, 1180},
      {Profile::HeavyTail, 700, 1, 2, 0xad037b75d82b4401ull, 50},
      {Profile::HeavyTail, 700, 1, 4, 0x7c3f0d094c6bb5b2ull, 80},
      // batch_20k's circuit, then svc_warm's and svc_mixed's hot circuits.
      {Profile::Unit, 20000, 1, 4, 0xdbc420ef0cf217d7ull, 4945},
      {Profile::Unit, 6000, 100, 2, 0x45130a3397db17beull, 915},
      {Profile::Unit, 6000, 101, 2, 0xd2d83e67962558f1ull, 957},
      {Profile::Unit, 6000, 102, 2, 0x5fe210f333578e85ull, 787},
      {Profile::Unit, 6000, 103, 2, 0xce49008ed7675d25ull, 732},
      {Profile::Unit, 2000, 100, 2, 0xa8c6b4bf7f797bfbull, 258},
      {Profile::Unit, 2000, 101, 2, 0xb234f01d6b6c39e7ull, 268},
      {Profile::Unit, 2000, 102, 2, 0x8da890f4692af19aull, 308},
      {Profile::Unit, 2000, 103, 2, 0x40a0ef08e940a618ull, 316},
  };
  for (const Golden& g : kGoldens) {
    const Circuit c =
        g.profile == Profile::Pipeline
            ? pipeline(static_cast<int>(g.size), 8, g.circuit_seed)
            : scaled_circuit(g.size, g.circuit_seed);
    std::vector<std::uint32_t> w, nw;
    for (std::size_t i = 0; i < c.gate_count(); ++i) {
      if (g.profile == Profile::Hashed) {
        w.push_back(static_cast<std::uint32_t>((i * 2654435761u) % 97));
        nw.push_back(static_cast<std::uint32_t>((i * 40503u) % 13));
      } else if (g.profile == Profile::HeavyTail) {
        // One gate in 20 is hot.
        w.push_back((i * 2654435761u) % 20 == 0
                        ? static_cast<std::uint32_t>((i * 40503u) % 100000)
                        : static_cast<std::uint32_t>(i % 3));
      }
    }
    const std::uint64_t seed = g.profile == Profile::Hashed ? 5 : 1;
    const Partition p = partition_multilevel(c, g.k, seed, w, nw);
    const int row = static_cast<int>(&g - kGoldens);
    EXPECT_EQ(partition_sig(p), g.sig) << "row " << row;
    EXPECT_EQ(evaluate_partition(c, p).cut_edges, g.cut) << "row " << row;
  }
}

TEST(Partition, KlMatchesHashMapBuildGoldens) {
  // Captured from the tree whose KL graph was built through one hash map
  // per cell, before the dense merge replaced it. KL reads its adjacency
  // only through sums and one exact-neighbour lookup, so neighbour order
  // cannot move a KL partition; these pin that.
  struct Golden {
    bool pipe;           // pipeline(size, 8, 1), else scaled_circuit(size, 1)
    std::uint32_t size;  // gates, or pipeline width
    std::uint32_t k;
    std::uint64_t seed, sig, cut;
  };
  static constexpr Golden kGoldens[] = {
      {false, 500, 2, 1, 0x3e762fb58b190307ull, 128},
      {false, 500, 2, 2, 0x073f7ef84ed0ed31ull, 113},
      {false, 500, 4, 1, 0x581b0ee94ac643d9ull, 223},
      {false, 500, 4, 2, 0x77511c3fe4a00563ull, 230},
      {false, 500, 8, 1, 0xbee96ec574219a03ull, 332},
      {false, 500, 8, 2, 0x4f30cf4f77d20b9bull, 335},
      {false, 2000, 2, 1, 0x5fd57bbf8832ce47ull, 567},
      {false, 2000, 2, 2, 0xadc16c872cb24881ull, 460},
      {false, 2000, 4, 1, 0xdeb112035b666297ull, 934},
      {false, 2000, 4, 2, 0xac9e8814474c6327ull, 794},
      {false, 2000, 8, 1, 0xdc4695239e041dabull, 1192},
      {false, 2000, 8, 2, 0xf857f7718c0eec87ull, 1123},
      {false, 6000, 2, 1, 0x05a3ee53af5dc1a9ull, 1929},
      {false, 6000, 2, 2, 0xad3985712b121fd1ull, 1813},
      {true, 16, 8, 1, 0x5234820345a29a2bull, 141},
      {true, 64, 8, 1, 0xfe3170b1c34bb62dull, 827},
  };
  for (const Golden& g : kGoldens) {
    const Circuit c = g.pipe ? pipeline(static_cast<int>(g.size), 8, 1)
                             : scaled_circuit(g.size, 1);
    const Partition p = partition_kl(c, g.k, g.seed);
    const int row = static_cast<int>(&g - kGoldens);
    EXPECT_EQ(partition_sig(p), g.sig) << "row " << row;
    EXPECT_EQ(evaluate_partition(c, p).cut_edges, g.cut) << "row " << row;
  }
}

TEST(PartitionWeighted, HotConeMigratesIntoOnePart) {
  // A 32-leaf XOR reduction cone (63 gates) whose root feeds a 600-gate
  // buffer chain. The cone carries 8x the per-gate activity of the chain
  // (1 + 7 vs 1 + 0), so its weighted load is just under half the total:
  // the balanced minimum cut keeps the cone intact on one side and slices
  // the cold chain once, about 48 gates past the root. Hot nets carry the
  // same skew so cutting inside the cone is 8x as expensive as cutting
  // the chain.
  NetlistBuilder b;
  std::vector<GateId> level;
  for (int i = 0; i < 32; ++i) level.push_back(b.add_input());
  std::vector<GateId> cone = level;
  while (level.size() > 1) {
    std::vector<GateId> next;
    for (std::size_t i = 0; i + 1 < level.size(); i += 2) {
      const GateId g = b.add_gate(GateType::Xor, {level[i], level[i + 1]});
      next.push_back(g);
      cone.push_back(g);
    }
    level = next;
  }
  GateId prev = level[0];
  for (std::size_t i = 0; i < 600; ++i)
    prev = b.add_gate(GateType::Buf, {prev});
  b.mark_output(prev);
  const Circuit c = b.build();

  std::vector<std::uint32_t> weights(c.gate_count(), 0);
  std::vector<std::uint32_t> net_weights(c.gate_count(), 0);
  for (const GateId g : cone) {
    weights[g] = 7;
    net_weights[g] = 7;
  }

  const Partition p = partition_multilevel(c, 2, 1, weights, net_weights);
  validate_partition(c, p);

  // The hot cone lands whole in one part...
  const std::uint32_t hot_part = p.block_of[cone.front()];
  for (const GateId g : cone)
    EXPECT_EQ(p.block_of[g], hot_part) << "hot-cone gate " << g << " split off";
  // ...and the weighted load stays balanced: each side carries about half
  // of the total measured activity (1 + w per gate, as the partitioners
  // weigh it).
  std::uint64_t load[2] = {0, 0};
  for (std::size_t g = 0; g < c.gate_count(); ++g)
    load[p.block_of[g]] += 1 + weights[g];
  const std::uint64_t total = load[0] + load[1];
  EXPECT_GE(std::min(load[0], load[1]) * 10, total * 3)
      << "weighted loads " << load[0] << "/" << load[1];
}

TEST(PartitionWeighted, DeterministicForSeedWithWeights) {
  const Circuit c = scaled_circuit(700, 9);
  std::vector<std::uint32_t> w(c.gate_count()), nw(c.gate_count());
  for (std::size_t g = 0; g < c.gate_count(); ++g) {
    w[g] = static_cast<std::uint32_t>((g * 2654435761u) % 97);
    nw[g] = static_cast<std::uint32_t>((g * 40503u) % 13);
  }
  const Partition a = partition_multilevel(c, 4, 5, w, nw);
  const Partition b = partition_multilevel(c, 4, 5, w, nw);
  EXPECT_EQ(a.block_of, b.block_of);
  const Partition fa = partition_fm(c, 4, 5, w, nw);
  const Partition fb = partition_fm(c, 4, 5, w, nw);
  EXPECT_EQ(fa.block_of, fb.block_of);
}

TEST(PartitionWeighted, NearOverflowWeightsStayBalanced) {
  // Regression for the uint32 wrap in the weighted-balance arithmetic:
  // `1 + weights[g]` at weights[g] near 2^32 used to wrap to ~0 and starve
  // one side of the balance constraint. With every gate at maximum weight
  // the profile is uniform, so the result must equal the unweighted one —
  // pre-fix, the wrapped sums instead collapsed the balance bound.
  const Circuit c = scaled_circuit(400, 3);
  const std::vector<std::uint32_t> huge(c.gate_count(), 0xFFFFFFFFu);
  for (std::uint32_t k : {2u, 4u}) {
    const Partition weighted = partition_fm(c, k, 1, huge);
    validate_partition(c, weighted);
    EXPECT_EQ(partition_fm(c, k, 1).block_of, weighted.block_of) << "k=" << k;
    const Partition ml = partition_multilevel(c, k, 1, huge, huge);
    validate_partition(c, ml);
    EXPECT_EQ(partition_multilevel(c, k, 1).block_of, ml.block_of)
        << "k=" << k;
  }
}

TEST(PartitionWeighted, DominantGateLeavesNoBlockEmpty) {
  // One gate outweighs the rest of the circuit many times over, so the
  // first bisection isolates it on a side that still owes 4 blocks.
  const Circuit c = scaled_circuit(200, 1);
  std::vector<std::uint32_t> w(c.gate_count(), 1);
  w[c.gate_count() / 2] = 4000000000u;
  const Partition p = partition_multilevel(c, 8, 1, w);
  validate_partition(c, p);
  EXPECT_EQ(p.n_blocks, 8u);
}

TEST(PartitionWeighted, WrongSizeSpansThrow) {
  const Circuit c = builtin_circuit("s27");
  const std::vector<std::uint32_t> bad(c.gate_count() + 3, 1);
  const std::vector<std::uint32_t> ok(c.gate_count(), 1);
  EXPECT_THROW(partition_fm(c, 2, 1, bad), Error);
  EXPECT_THROW(partition_fm(c, 2, 1, ok, bad), Error);
  EXPECT_THROW(partition_multilevel(c, 2, 1, bad), Error);
  EXPECT_THROW(partition_multilevel(c, 2, 1, ok, bad), Error);
  EXPECT_THROW(partition_level_chunks(c, 2, bad), Error);
  EXPECT_THROW(partition_annealing(c, 2, 1, {}, bad), Error);
  EXPECT_THROW(refine_with_activity(c, partition_round_robin(c, 2), bad),
               Error);
  const Partition p = partition_round_robin(c, 2);
  EXPECT_THROW(evaluate_partition(c, p, bad), Error);
  EXPECT_THROW(evaluate_partition(c, p, ok, bad), Error);
  // Empty spans stay legal everywhere (unit weights).
  validate_partition(c, partition_fm(c, 2, 1, {}, {}));
  validate_partition(c, partition_multilevel(c, 2, 1, {}, {}));
}

}  // namespace
}  // namespace plsim
