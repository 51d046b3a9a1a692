// Kernighan-Lin bisection [16], applied recursively. Classic KL swaps pairs
// to improve edge cut; we use a windowed candidate search (top-D cells per
// side) so passes stay tractable on large netlists, and cap the number of
// tentative swaps per pass.

#include <algorithm>
#include <limits>

#include "partition/algorithms.hpp"
#include "partition/graph.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace plsim {
namespace {

/// Undirected adjacency over local cell ids, weighted by connection count.
/// KL reads it only through sums and an exact-neighbour lookup, so its
/// partitions do not depend on the neighbour order.
WeightedCsr build_graph(const Circuit& c, std::span<const GateId> cells,
                        std::span<const std::uint32_t> local_of) {
  const auto arcs = [&](auto arc) {
    for (std::uint32_t i = 0; i < cells.size(); ++i) {
      for (GateId f : c.fanins(cells[i])) {
        const std::uint32_t lf = local_of[f];
        if (lf != static_cast<std::uint32_t>(-1) && lf != i) arc(i, lf, 1);
      }
      for (GateId s : c.fanouts(cells[i])) {
        const std::uint32_t ls = local_of[s];
        if (ls != static_cast<std::uint32_t>(-1) && ls != i) arc(i, ls, 1);
      }
    }
  };
  return merge_arcs(cells.size(), arcs);
}

void kl_bisect(const WeightedCsr& g, Rng& rng,
               std::vector<std::uint8_t>& side) {
  const std::size_t n = g.n();
  side.assign(n, 0);
  if (n < 2) return;

  // Random balanced initial split.
  std::vector<std::uint32_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = static_cast<std::uint32_t>(i);
  for (std::size_t i = n; i > 1; --i)
    std::swap(order[i - 1], order[rng.uniform(i)]);
  for (std::size_t i = 0; i < n; ++i) side[order[i]] = i % 2;

  std::vector<std::int64_t> d(n);
  auto recompute_d = [&] {
    for (std::size_t v = 0; v < n; ++v) {
      std::int64_t dv = 0;
      for (std::uint32_t e = g.off[v]; e < g.off[v + 1]; ++e)
        dv += (side[g.adj[e]] != side[v])
                  ? static_cast<std::int64_t>(g.wedge[e])
                  : -static_cast<std::int64_t>(g.wedge[e]);
      d[v] = dv;
    }
  };

  constexpr std::size_t kWindow = 48;
  const std::size_t max_swaps = std::min<std::size_t>(n / 2, 256 + n / 64);

  for (int pass = 0; pass < 6; ++pass) {
    recompute_d();
    std::vector<std::uint8_t> locked(n, 0);
    std::vector<std::pair<std::uint32_t, std::uint32_t>> swaps;
    std::vector<std::int64_t> cumulative;
    std::int64_t acc = 0;

    for (std::size_t step = 0; step < max_swaps; ++step) {
      // Top-window unlocked cells by D on each side.
      std::vector<std::uint32_t> cand[2];
      for (std::uint32_t v = 0; v < n; ++v)
        if (!locked[v]) cand[side[v]].push_back(v);
      if (cand[0].empty() || cand[1].empty()) break;
      for (int s = 0; s < 2; ++s) {
        const std::size_t w = std::min(kWindow, cand[s].size());
        std::partial_sort(cand[s].begin(), cand[s].begin() + w, cand[s].end(),
                          [&](std::uint32_t a, std::uint32_t b) {
                            return d[a] > d[b];
                          });
        cand[s].resize(w);
      }
      // Best pair within the window.
      std::int64_t best_gain = std::numeric_limits<std::int64_t>::min();
      std::uint32_t best_a = 0, best_b = 0;
      for (std::uint32_t a : cand[0]) {
        for (std::uint32_t b : cand[1]) {
          std::int64_t cab = 0;
          for (std::uint32_t e = g.off[a]; e < g.off[a + 1]; ++e)
            if (g.adj[e] == b) cab = static_cast<std::int64_t>(g.wedge[e]);
          const std::int64_t gain = d[a] + d[b] - 2 * cab;
          if (gain > best_gain) {
            best_gain = gain;
            best_a = a;
            best_b = b;
          }
        }
      }
      locked[best_a] = locked[best_b] = 1;
      acc += best_gain;
      swaps.emplace_back(best_a, best_b);
      cumulative.push_back(acc);
      // Tentatively swap and update D of unlocked neighbours.
      side[best_a] = 1;
      side[best_b] = 0;
      for (std::uint32_t v : {best_a, best_b}) {
        for (std::uint32_t e = g.off[v]; e < g.off[v + 1]; ++e) {
          const std::uint32_t u = g.adj[e];
          if (locked[u]) continue;
          const auto w = static_cast<std::int64_t>(g.wedge[e]);
          d[u] += (side[u] == side[v]) ? -2 * w : 2 * w;
        }
      }
    }

    // Keep the best prefix of swaps.
    std::size_t best_prefix = 0;
    std::int64_t best_acc = 0;
    for (std::size_t i = 0; i < cumulative.size(); ++i) {
      if (cumulative[i] > best_acc) {
        best_acc = cumulative[i];
        best_prefix = i + 1;
      }
    }
    for (std::size_t i = swaps.size(); i > best_prefix; --i) {
      side[swaps[i - 1].first] = 0;
      side[swaps[i - 1].second] = 1;
    }
    if (best_acc <= 0) break;
  }
}

void kl_recursive(const Circuit& c, std::vector<GateId>& cells, std::uint32_t k,
                  std::uint32_t first_block, Rng& rng, Partition& p) {
  if (k == 1) {
    for (GateId g : cells) p.block_of[g] = first_block;
    return;
  }
  const std::uint32_t k0 = k / 2, k1 = k - k0;
  std::vector<std::uint32_t> local_of(c.gate_count(),
                                      static_cast<std::uint32_t>(-1));
  for (std::size_t i = 0; i < cells.size(); ++i)
    local_of[cells[i]] = static_cast<std::uint32_t>(i);
  const WeightedCsr g = build_graph(c, cells, local_of);
  std::vector<std::uint8_t> side;
  kl_bisect(g, rng, side);

  std::vector<GateId> left, right;
  for (std::size_t i = 0; i < cells.size(); ++i)
    (side[i] == 0 ? left : right).push_back(cells[i]);
  if (left.empty() && !right.empty()) {
    left.push_back(right.back());
    right.pop_back();
  }
  if (right.empty() && left.size() > 1) {
    right.push_back(left.back());
    left.pop_back();
  }
  kl_recursive(c, left, k0, first_block, rng, p);
  kl_recursive(c, right, k1, first_block + k0, rng, p);
}

}  // namespace

Partition partition_kl(const Circuit& c, std::uint32_t k, std::uint64_t seed) {
  PLSIM_CHECK(k >= 1, "partition_kl: k must be >= 1");
  Rng rng(seed);
  Partition p;
  p.n_blocks = k;
  p.block_of.assign(c.gate_count(), 0);
  std::vector<GateId> all(c.gate_count());
  for (GateId g = 0; g < c.gate_count(); ++g) all[g] = g;
  kl_recursive(c, all, k, 0, rng, p);
  fix_empty_blocks(c, p);
  return p;
}

}  // namespace plsim
