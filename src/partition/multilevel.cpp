// Multilevel graph bisection: coarsen by heavy-edge matching until the graph
// is small, bisect the coarsest level, then uncoarsen while refining with a
// boundary FM pass at every level. Operates on the undirected weighted gate
// graph (edge weight = connection multiplicity, scaled by the driver's net
// activity when given); applied recursively for k-way partitions.
//
// Activity weighting (paper §III/§VI): per-gate evaluation counts become
// vertex weights that flow through coarsening (supernodes sum their
// constituents' weights, so the balance constraint at every level is the
// *dynamic* load), and per-driver message counts scale the edge weights
// that heavy-edge matching and refinement gains operate on. All weight
// arithmetic is 64-bit: summed activity counts exceed 2^32 on million-event
// runs. Coarsening must conserve both totals at every level — checked in
// debug builds and under PLSIM_AUDIT.

#include <cstdlib>
#include <algorithm>
#include <limits>

#include "partition/algorithms.hpp"
#include "partition/graph.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace plsim {
namespace {

/// Conservation-invariant checking: always in debug builds, and when the
/// PLSIM_AUDIT environment variable is set (same convention as
/// Auditor::env_enabled, inlined here to keep src/partition below src/check
/// in the library graph).
bool ml_audit_enabled() {
#ifndef NDEBUG
  return true;
#else
  static const bool on = [] {
    const char* v = std::getenv("PLSIM_AUDIT");
    return v != nullptr && v[0] != '\0' && !(v[0] == '0' && v[1] == '\0');
  }();
  return on;
#endif
}

struct MlGraph : WeightedCsr {
  // Vertex weights for balance. 64-bit, like the edge weights: they are
  // summed activity counts, which overflow 32 bits once supernodes
  // aggregate hot gates.
  std::vector<std::uint64_t> wvert;

  std::uint64_t total_vertex_weight() const {
    std::uint64_t t = 0;
    for (std::uint64_t w : wvert) t += w;
    return t;
  }
  std::uint64_t total_edge_weight() const {
    std::uint64_t t = 0;
    for (std::uint64_t w : wedge) t += w;
    return t;
  }
};

/// `gate_w` / `net_w` are global-gate-indexed activity weights (empty =
/// unit). Each fanin connection f -> cells[i] contributes the weight of the
/// net driven by f.
MlGraph from_circuit(const Circuit& c, std::span<const GateId> cells,
                     std::span<const std::uint32_t> local_of,
                     std::span<const std::uint64_t> gate_w,
                     std::span<const std::uint64_t> net_w) {
  const std::size_t n = cells.size();
  std::vector<std::uint64_t> wvert(n);
  for (std::size_t i = 0; i < n; ++i)
    wvert[i] = gate_w.empty() ? 1 : gate_w[cells[i]];
  const auto arcs = [&](auto arc) {
    for (std::uint32_t i = 0; i < n; ++i) {
      for (GateId f : c.fanins(cells[i])) {
        const std::uint32_t lf = local_of[f];
        if (lf != static_cast<std::uint32_t>(-1) && lf != i) {
          const std::uint64_t w = net_w.empty() ? 1 : net_w[f];
          arc(i, lf, w);
          arc(lf, i, w);
        }
      }
    }
  };
  return {merge_arcs(n, arcs), std::move(wvert)};
}

/// Heavy-edge matching coarsening; returns the coarse graph and the map
/// fine-vertex -> coarse-vertex.
MlGraph coarsen(const MlGraph& g, Rng& rng, std::vector<std::uint32_t>& map) {
  constexpr std::uint32_t kNone = static_cast<std::uint32_t>(-1);
  const std::size_t n = g.n();
  map.assign(n, kNone);
  std::vector<std::uint32_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = static_cast<std::uint32_t>(i);
  for (std::size_t i = n; i > 1; --i)
    std::swap(order[i - 1], order[rng.uniform(i)]);

  std::uint32_t coarse = 0;
  for (std::uint32_t v : order) {
    if (map[v] != kNone) continue;
    // Match with the unmatched neighbour of heaviest connecting weight; on
    // a tie, the lighter neighbour (the supernode stays smaller), then the
    // first one in adjacency order.
    std::uint32_t best = kNone;
    std::uint64_t bw = 0;
    for (std::uint32_t e = g.off[v]; e < g.off[v + 1]; ++e) {
      const std::uint32_t u = g.adj[e];
      if (map[u] != kNone) continue;
      if (g.wedge[e] > bw || (g.wedge[e] == bw && best != kNone &&
                              g.wvert[u] < g.wvert[best])) {
        bw = g.wedge[e];
        best = u;
      }
    }
    map[v] = coarse;
    if (best != kNone) map[best] = coarse;
    ++coarse;
  }

  // Build the coarse graph. Edges absorbed inside a supernode leave the
  // graph; everything else must survive weight-for-weight.
  std::vector<std::uint64_t> wvert(coarse, 0);
  for (std::size_t v = 0; v < n; ++v) wvert[map[v]] += g.wvert[v];
  const auto arcs = [&](auto arc) {
    for (std::uint32_t v = 0; v < n; ++v)
      for (std::uint32_t e = g.off[v]; e < g.off[v + 1]; ++e)
        if (map[g.adj[e]] != map[v]) arc(map[v], map[g.adj[e]], g.wedge[e]);
  };
  MlGraph cg{merge_arcs(coarse, arcs), std::move(wvert)};

  if (ml_audit_enabled()) {
    // Conservation invariants: a supernode weighs exactly what its
    // constituents weighed, and cross-supernode edge weight is the fine
    // total minus what the matching absorbed. A drop here silently
    // unbalances every coarser level's partition.
    std::uint64_t absorbed = 0;
    for (std::uint32_t v = 0; v < n; ++v)
      for (std::uint32_t e = g.off[v]; e < g.off[v + 1]; ++e)
        if (map[g.adj[e]] == map[v]) absorbed += g.wedge[e];
    PLSIM_ASSERT(cg.total_vertex_weight() == g.total_vertex_weight());
    PLSIM_ASSERT(cg.total_edge_weight() + absorbed == g.total_edge_weight());
  }
  return cg;
}

std::uint64_t side_weight(const MlGraph& g, const std::vector<std::uint8_t>& side,
                          std::uint8_t which) {
  std::uint64_t w = 0;
  for (std::size_t v = 0; v < g.n(); ++v)
    if (side[v] == which) w += g.wvert[v];
  return w;
}

/// Move selection for `refine`. Whether a vertex may move depends only on
/// its side and its weight, and every balance bound `refine` applies is
/// monotone in the weight. So the vertices sit in stable (weight, index)
/// order, where the vertices a bound admits form one run of positions that
/// two binary searches find, and each side keeps a max tree over those
/// positions holding the gains of its vertices still free to move. A node
/// keeps the better child by gain descending, then index ascending, so a
/// range query returns exactly the vertex that a scan in index order,
/// keeping only strictly higher gains, would pick. A pick costs O(log n)
/// and a gain change is one O(log n) point update.
class MoveSelector {
 public:
  struct Entry {
    std::int64_t gain;
    std::uint32_t v;
  };
  /// An empty leaf. A vertex whose gain is the minimum never wins a scan
  /// either, so callers treat a result with this gain as no move.
  static constexpr Entry kNone{std::numeric_limits<std::int64_t>::min(),
                               std::numeric_limits<std::uint32_t>::max()};

  static Entry better(Entry a, Entry b) {
    return a.gain > b.gain || (a.gain == b.gain && a.v < b.v) ? a : b;
  }

  explicit MoveSelector(const MlGraph& g) : n_(g.n()), pos_(n_), weight_(n_) {
    std::vector<std::uint32_t> order(n_);
    for (std::size_t i = 0; i < n_; ++i)
      order[i] = static_cast<std::uint32_t>(i);
    std::stable_sort(order.begin(), order.end(),
                     [&](std::uint32_t a, std::uint32_t b) {
                       return g.wvert[a] < g.wvert[b];
                     });
    for (std::size_t i = 0; i < n_; ++i) {
      pos_[order[i]] = static_cast<std::uint32_t>(i);
      weight_[i] = g.wvert[order[i]];
    }
    for (auto& t : tree_) t.assign(2 * n_, kNone);
  }

  /// Every vertex becomes free to move from its side with its gain.
  void reset(const std::vector<std::int64_t>& gain,
             const std::vector<std::uint8_t>& side) {
    for (std::size_t v = 0; v < n_; ++v) {
      tree_[side[v]][n_ + pos_[v]] = {gain[v], static_cast<std::uint32_t>(v)};
      tree_[1 - side[v]][n_ + pos_[v]] = kNone;
    }
    for (auto& t : tree_)
      for (std::size_t i = n_; i-- > 1;) t[i] = better(t[2 * i], t[2 * i + 1]);
  }

  /// Set vertex v's leaf in side s's tree (kNone: v no longer moves).
  void set(std::uint8_t s, std::uint32_t v, Entry e) {
    std::vector<Entry>& t = tree_[s];
    std::size_t i = n_ + pos_[v];
    t[i] = e;
    for (i >>= 1; i >= 1; i >>= 1) {
      const Entry up = better(t[2 * i], t[2 * i + 1]);
      if (up.gain == t[i].gain && up.v == t[i].v) break;  // ancestors hold
      t[i] = up;
    }
  }

  /// The best vertex free to move from side s whose weight has reached
  /// `enter` but not yet `leave`, two predicates that each turn from false
  /// to true as the weight grows; kNone if there is none.
  template <class Enter, class Leave>
  Entry best(std::uint8_t s, Enter enter, Leave leave) const {
    std::size_t a = first(enter) + n_, b = first(leave) + n_;
    const std::vector<Entry>& t = tree_[s];
    Entry r = kNone;
    for (; a < b; a >>= 1, b >>= 1) {
      if (a & 1) r = better(r, t[a++]);
      if (b & 1) r = better(r, t[--b]);
    }
    return r;
  }

 private:
  template <class Pred>
  std::size_t first(Pred pred) const {
    return static_cast<std::size_t>(
        std::partition_point(weight_.begin(), weight_.end(),
                             [&](std::uint64_t w) { return !pred(w); }) -
        weight_.begin());
  }

  std::size_t n_;
  std::vector<std::uint32_t> pos_;     ///< vertex -> position
  std::vector<std::uint64_t> weight_;  ///< position -> vertex weight
  std::vector<Entry> tree_[2];         ///< per side; leaves at [n, 2n)
};

/// Boundary FM refinement pass on the graph edge-cut. `ratio` = target
/// weight share of side 0.
void refine(const MlGraph& g, double ratio, std::vector<std::uint8_t>& side) {
  const std::size_t n = g.n();
  std::uint64_t total = 0;
  std::uint64_t maxw = 1;
  for (std::size_t v = 0; v < n; ++v) {
    total += g.wvert[v];
    maxw = std::max<std::uint64_t>(maxw, g.wvert[v]);
  }
  const double target0 = ratio * static_cast<double>(total);
  const double tol = std::max<double>(static_cast<double>(maxw),
                                      0.03 * static_cast<double>(total));
  const double lo = target0 - tol, hi = target0 + tol;

  // Gains (positive = moving reduces cut) and a "done moving" flag per
  // vertex, shared by the restoration loop and the FM passes. `start`
  // recomputes every gain and frees every vertex to move.
  MoveSelector sel(g);
  std::vector<std::int64_t> gain(n);
  std::vector<std::uint8_t> done(n);
  const auto start = [&] {
    for (std::size_t v = 0; v < n; ++v) {
      gain[v] = 0;
      for (std::uint32_t e = g.off[v]; e < g.off[v + 1]; ++e)
        gain[v] += (side[g.adj[e]] != side[v])
                       ? static_cast<std::int64_t>(g.wedge[e])
                       : -static_cast<std::int64_t>(g.wedge[e]);
    }
    std::fill(done.begin(), done.end(), 0);
    sel.reset(gain, side);
  };
  // Moves `best` to the other side for good; its neighbours' gains follow.
  const auto move = [&](std::uint32_t best, std::uint64_t& w0) {
    done[best] = 1;
    sel.set(side[best], best, MoveSelector::kNone);
    w0 = side[best] == 0 ? w0 - g.wvert[best] : w0 + g.wvert[best];
    side[best] = 1 - side[best];
    for (std::uint32_t e = g.off[best]; e < g.off[best + 1]; ++e) {
      const std::uint32_t u = g.adj[e];
      gain[u] += (side[u] == side[best])
                     ? -2 * static_cast<std::int64_t>(g.wedge[e])
                     : 2 * static_cast<std::int64_t>(g.wedge[e]);
      if (!done[u]) sel.set(side[u], u, {gain[u], u});
    }
  };

  // Balance restoration. The FM passes below only accept moves that LAND
  // inside the tolerance window, so a partition that arrives outside it —
  // the base case can overshoot by most of a heavy supernode, and a
  // projected coarse partition inherits imbalance the finer tolerance no
  // longer covers — would be stuck forever. Walk it back first: repeatedly
  // move the highest-gain vertex off the heavy side, accepting only moves
  // that strictly shrink the imbalance, until the window is reached. Every
  // quantity involved scales linearly with a uniform vertex-weight factor,
  // so uniform activity still reproduces the unit-weight partition exactly
  // (and with unit weights the overshoot is at most one vertex <= tol, so
  // this loop does not fire on the historical golden circuits).
  {
    std::uint64_t w0 = side_weight(g, side, 0);
    bool started = false;
    while (static_cast<double>(w0) > hi || static_cast<double>(w0) < lo) {
      if (!started) {
        start();
        started = true;
      }
      const std::uint8_t heavy = static_cast<double>(w0) > target0 ? 0 : 1;
      const double gap = heavy == 0 ? static_cast<double>(w0) - target0
                                    : target0 - static_cast<double>(w0);
      // Strictly shrink |w0 - target0|: oversized vertices that would
      // overshoot past the mirror imbalance are skipped.
      const auto any = [](std::uint64_t) { return true; };
      const auto overshoots = [&](std::uint64_t w) {
        return static_cast<double>(w) >= 2.0 * gap;
      };
      const MoveSelector::Entry pick = sel.best(heavy, any, overshoots);
      if (pick.gain == MoveSelector::kNone.gain) break;
      move(pick.v, w0);
    }
  }

  for (int pass = 0; pass < 4; ++pass) {
    start();
    std::uint64_t w0 = side_weight(g, side, 0);
    std::vector<std::uint32_t> moves;
    std::vector<std::int64_t> cumulative;
    std::int64_t acc = 0;

    const std::size_t max_moves = std::min<std::size_t>(n, 32 + n / 16);
    for (std::size_t step = 0; step < max_moves; ++step) {
      // A move must land side 0's weight inside [lo, hi]. The landing
      // weight falls as w grows for a side-0 vertex and rises for a side-1
      // vertex, until the 64-bit arithmetic wraps: past w0 on side 0 (no
      // side-0 vertex outweighs w0) and past 2^64 - 1 - w0 on side 1 (the
      // total stays below 2^64). A wrapped move stays infeasible.
      const std::uint64_t wrap1 =
          std::numeric_limits<std::uint64_t>::max() - w0;
      const auto enter0 = [&](std::uint64_t w) {
        return w > w0 || static_cast<double>(w0 - w) <= hi;
      };
      const auto leave0 = [&](std::uint64_t w) {
        return w > w0 || static_cast<double>(w0 - w) < lo;
      };
      const auto enter1 = [&](std::uint64_t w) {
        return w > wrap1 || static_cast<double>(w0 + w) >= lo;
      };
      const auto leave1 = [&](std::uint64_t w) {
        return w > wrap1 || static_cast<double>(w0 + w) > hi;
      };
      const MoveSelector::Entry pick = MoveSelector::better(
          sel.best(0, enter0, leave0), sel.best(1, enter1, leave1));
      if (pick.gain == MoveSelector::kNone.gain) break;
      move(pick.v, w0);
      acc += pick.gain;
      moves.push_back(pick.v);
      cumulative.push_back(acc);
    }

    std::size_t best_prefix = 0;
    std::int64_t best_acc = 0;
    for (std::size_t i = 0; i < cumulative.size(); ++i) {
      if (cumulative[i] > best_acc) {
        best_acc = cumulative[i];
        best_prefix = i + 1;
      }
    }
    for (std::size_t i = moves.size(); i > best_prefix; --i)
      side[moves[i - 1]] = 1 - side[moves[i - 1]];
    if (best_acc <= 0) break;
  }
}

void ml_bisect(const MlGraph& g, double ratio, Rng& rng,
               std::vector<std::uint8_t>& side) {
  constexpr std::size_t kCoarseEnough = 128;
  if (g.n() <= kCoarseEnough) {
    // Base case: greedy depth-first growth from a random seed until side 0
    // is full.
    side.assign(g.n(), 1);
    std::uint64_t total = 0;
    for (std::size_t v = 0; v < g.n(); ++v) total += g.wvert[v];
    const double target0 = ratio * static_cast<double>(total);
    std::vector<std::uint32_t> frontier{
        static_cast<std::uint32_t>(rng.uniform(g.n()))};
    double grown = 0;
    std::vector<std::uint8_t> seen(g.n(), 0);
    seen[frontier[0]] = 1;
    while (!frontier.empty() && grown < target0) {
      const std::uint32_t v = frontier.back();
      frontier.pop_back();
      side[v] = 0;
      grown += g.wvert[v];
      for (std::uint32_t e = g.off[v]; e < g.off[v + 1]; ++e) {
        if (!seen[g.adj[e]]) {
          seen[g.adj[e]] = 1;
          frontier.push_back(g.adj[e]);
        }
      }
      if (frontier.empty() && grown < target0) {
        // Disconnected: restart from any vertex still on side 1.
        for (std::uint32_t u = 0; u < g.n(); ++u)
          if (side[u] == 1 && !seen[u]) {
            seen[u] = 1;
            frontier.push_back(u);
            break;
          }
        if (frontier.empty()) break;
      }
    }
    refine(g, ratio, side);
    return;
  }

  std::vector<std::uint32_t> map;
  const MlGraph coarse = coarsen(g, rng, map);
  if (coarse.n() >= g.n() * 95 / 100) {
    // Matching stalled (star-like graph); fall back to the base case logic.
    side.assign(g.n(), 1);
    for (std::size_t v = 0; v < g.n(); ++v) side[v] = rng.uniform(2) != 0;
    refine(g, ratio, side);
    return;
  }
  std::vector<std::uint8_t> coarse_side;
  ml_bisect(coarse, ratio, rng, coarse_side);
  side.resize(g.n());
  for (std::size_t v = 0; v < g.n(); ++v) side[v] = coarse_side[map[v]];
  refine(g, ratio, side);
}

void ml_recursive(const Circuit& c, std::span<const std::uint64_t> gate_w,
                  std::span<const std::uint64_t> net_w,
                  std::vector<GateId>& cells, std::uint32_t k,
                  std::uint32_t first_block, Rng& rng, Partition& p) {
  // A bisection can leave one half empty while it still owes blocks (k
  // exceeds the cells left). Its blocks stay empty here, and
  // fix_empty_blocks fills them or rejects the partition.
  if (cells.empty()) return;
  if (k == 1) {
    for (GateId g : cells) p.block_of[g] = first_block;
    return;
  }
  const std::uint32_t k0 = k / 2, k1 = k - k0;
  std::vector<std::uint32_t> local_of(c.gate_count(),
                                      static_cast<std::uint32_t>(-1));
  for (std::size_t i = 0; i < cells.size(); ++i)
    local_of[cells[i]] = static_cast<std::uint32_t>(i);
  const MlGraph g = from_circuit(c, cells, local_of, gate_w, net_w);
  std::vector<std::uint8_t> side;
  ml_bisect(g, static_cast<double>(k0) / static_cast<double>(k), rng, side);

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
  ml_recursive(c, gate_w, net_w, left, k0, first_block, rng, p);
  ml_recursive(c, gate_w, net_w, right, k1, first_block + k0, rng, p);
}

}  // namespace

Partition partition_multilevel(const Circuit& c, std::uint32_t k,
                               std::uint64_t seed) {
  return partition_multilevel(c, k, seed, {}, {});
}

Partition partition_multilevel(const Circuit& c, std::uint32_t k,
                               std::uint64_t seed,
                               std::span<const std::uint32_t> weights,
                               std::span<const std::uint32_t> net_weights) {
  PLSIM_CHECK(k >= 1, "partition_multilevel: k must be >= 1");
  PLSIM_CHECK(weights.empty() || weights.size() == c.gate_count(),
              "partition_multilevel: weight span size " +
                  std::to_string(weights.size()) + " != gate count " +
                  std::to_string(c.gate_count()));
  PLSIM_CHECK(net_weights.empty() || net_weights.size() == c.gate_count(),
              "partition_multilevel: net-weight span size " +
                  std::to_string(net_weights.size()) + " != gate count " +
                  std::to_string(c.gate_count()));
  Rng rng(seed);
  Partition p;
  p.n_blocks = k;
  p.block_of.assign(c.gate_count(), 0);

  // 1 + activity: inactive gates keep a placement cost (and edges of silent
  // nets keep a tie-break weight), widened before the add so a UINT32_MAX
  // count cannot wrap to zero.
  std::vector<std::uint64_t> gw, nw;
  if (!weights.empty()) {
    gw.resize(c.gate_count());
    for (GateId g = 0; g < c.gate_count(); ++g)
      gw[g] = 1 + static_cast<std::uint64_t>(weights[g]);
  }
  if (!net_weights.empty()) {
    nw.resize(c.gate_count());
    for (GateId g = 0; g < c.gate_count(); ++g)
      nw[g] = 1 + static_cast<std::uint64_t>(net_weights[g]);
  }

  std::vector<GateId> all(c.gate_count());
  for (GateId g = 0; g < c.gate_count(); ++g) all[g] = g;
  ml_recursive(c, gw, nw, all, k, 0, rng, p);
  fix_empty_blocks(c, p);
  return p;
}

}  // namespace plsim
