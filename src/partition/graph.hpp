#pragma once
// The undirected weighted gate graph the graph partitioners work on
// (multilevel's levels, KL's bisection graph), built by one dense merge.
// No hashing: a vertex's neighbour order is a function of the arc scan
// alone, so partitions that depend on it are the same on every standard
// library.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace plsim {

/// CSR adjacency: the neighbours of v are adj[off[v] .. off[v + 1]), each
/// listed once, with parallel edge weights. 64-bit weights: multilevel's
/// activity-scaled multiplicities overflow 32 bits once coarsening sums
/// hot edges.
struct WeightedCsr {
  std::vector<std::uint32_t> off;
  std::vector<std::uint32_t> adj;
  std::vector<std::uint64_t> wedge;

  std::size_t n() const { return off.size() - 1; }
};

/// Builds the adjacency of `n` vertices from the arcs that `scan(arc)`
/// reports by calling arc(u, v, w): v is a neighbour of u, with weight w.
/// `scan` runs twice and must report the same arcs in the same order both
/// times. The merge counts each vertex's arcs, scatters them into CSR in
/// scan order, then folds repeated neighbours into their first occurrence
/// through an owner/slot array, summing the weights. Each vertex keeps its
/// neighbours in first-seen order.
template <class Scan>
WeightedCsr merge_arcs(std::size_t n, Scan scan) {
  constexpr std::uint32_t kNone = static_cast<std::uint32_t>(-1);
  WeightedCsr g;
  g.off.assign(n + 1, 0);
  scan([&](std::uint32_t u, std::uint32_t, std::uint64_t) { ++g.off[u + 1]; });
  for (std::size_t v = 0; v < n; ++v) g.off[v + 1] += g.off[v];

  g.adj.resize(g.off[n]);
  g.wedge.resize(g.off[n]);
  std::vector<std::uint32_t> next(g.off.begin(), g.off.end() - 1);
  scan([&](std::uint32_t u, std::uint32_t v, std::uint64_t w) {
    g.adj[next[u]] = v;
    g.wedge[next[u]] = w;
    ++next[u];
  });

  // owner[v] == u: v already sits in u's merged list, at slot[v]. The
  // merged lists are compacted in place; a write never passes the read.
  std::vector<std::uint32_t>& owner = next;
  std::fill(owner.begin(), owner.end(), kNone);
  std::vector<std::uint32_t> slot(n);
  std::uint32_t out = 0;
  for (std::uint32_t u = 0; u < n; ++u) {
    const std::uint32_t begin = g.off[u], end = g.off[u + 1];
    g.off[u] = out;
    for (std::uint32_t e = begin; e < end; ++e) {
      const std::uint32_t v = g.adj[e];
      if (owner[v] == u) {
        g.wedge[slot[v]] += g.wedge[e];
        continue;
      }
      owner[v] = u;
      slot[v] = out;
      g.adj[out] = v;
      g.wedge[out] = g.wedge[e];
      ++out;
    }
  }
  g.off[n] = out;
  g.adj.resize(out);
  g.wedge.resize(out);
  return g;
}

}  // namespace plsim
