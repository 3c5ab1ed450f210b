#include "relay/topology.hpp"

#include <algorithm>
#include <cstdint>
#include <deque>
#include <functional>
#include <limits>
#include <vector>

#include "util/check.hpp"
#include "util/rng.hpp"

namespace crusader::relay {

Topology::Topology(std::uint32_t n) : adj_(n) {
  CS_CHECK_MSG(n >= 2, "topology needs at least two nodes");
}

void Topology::add_edge(NodeId a, NodeId b) {
  CS_CHECK(a < n() && b < n() && a != b);
  if (has_edge(a, b)) return;
  adj_[a].push_back(b);
  adj_[b].push_back(a);
  ++edges_;
}

void Topology::remove_edge(NodeId a, NodeId b) {
  CS_CHECK(a < n() && b < n() && a != b);
  const auto ita = std::find(adj_[a].begin(), adj_[a].end(), b);
  if (ita == adj_[a].end()) return;
  adj_[a].erase(ita);
  const auto itb = std::find(adj_[b].begin(), adj_[b].end(), a);
  CS_CHECK(itb != adj_[b].end());
  adj_[b].erase(itb);
  --edges_;
}

bool Topology::has_edge(NodeId a, NodeId b) const {
  CS_CHECK(a < n() && b < n());
  return std::find(adj_[a].begin(), adj_[a].end(), b) != adj_[a].end();
}

const std::vector<NodeId>& Topology::neighbors(NodeId v) const {
  CS_CHECK(v < n());
  return adj_[v];
}

std::uint32_t Topology::distance(NodeId s, NodeId t,
                                 const std::vector<bool>& excluded) const {
  CS_CHECK(s < n() && t < n());
  CS_CHECK(excluded.size() == n());
  if (s == t) return 0;
  constexpr std::uint32_t kInf = std::numeric_limits<std::uint32_t>::max();
  std::vector<std::uint32_t> dist(n(), kInf);
  std::deque<NodeId> queue;
  dist[s] = 0;
  queue.push_back(s);
  while (!queue.empty()) {
    const NodeId v = queue.front();
    queue.pop_front();
    for (NodeId w : adj_[v]) {
      if (w != t && excluded[w]) continue;
      if (dist[w] != kInf) continue;
      dist[w] = dist[v] + 1;
      if (w == t) return dist[w];
      queue.push_back(w);
    }
  }
  return kInf;
}

void Topology::for_each_faulty_set(
    std::uint32_t f,
    const std::function<void(std::vector<bool>&)>& fn) const {
  // Enumerate all subsets of size exactly f (smaller sets are dominated:
  // removing fewer nodes never increases distances).
  std::vector<NodeId> subset;
  std::vector<bool> excluded(n(), false);
  std::function<void(NodeId)> rec = [&](NodeId start) {
    if (subset.size() == f) {
      fn(excluded);
      return;
    }
    for (NodeId v = start; v < n(); ++v) {
      excluded[v] = true;
      subset.push_back(v);
      rec(v + 1);
      subset.pop_back();
      excluded[v] = false;
    }
  };
  if (f == 0) {
    fn(excluded);
  } else {
    rec(0);
  }
}

void Topology::bfs_from(NodeId s, const std::vector<bool>& excluded,
                        std::vector<std::uint32_t>& dist) const {
  constexpr std::uint32_t kInf = std::numeric_limits<std::uint32_t>::max();
  dist.assign(n(), kInf);
  std::deque<NodeId> queue;
  dist[s] = 0;
  queue.push_back(s);
  while (!queue.empty()) {
    const NodeId v = queue.front();
    queue.pop_front();
    for (NodeId w : adj_[v]) {
      if (excluded[w] || dist[w] != kInf) continue;
      dist[w] = dist[v] + 1;
      queue.push_back(w);
    }
  }
}

namespace {

/// C(n, f), saturated at `cap` so the comparison against the subset budget
/// never overflows.
std::uint64_t subset_count_capped(std::uint32_t n, std::uint32_t f,
                                  std::uint64_t cap) {
  std::uint64_t count = 1;
  for (std::uint32_t i = 0; i < f; ++i) {
    if (count > cap) return cap + 1;
    count = count * (n - i) / (i + 1);
  }
  return std::min(count, cap + 1);
}

}  // namespace

bool Topology::survives_faults(std::uint32_t f) const {
  CS_CHECK_MSG(f + 2 <= n(), "need at least f+2 nodes");
  constexpr std::uint32_t kInf = std::numeric_limits<std::uint32_t>::max();
  // Connectivity of the surviving graph needs ONE BFS per subset (a graph
  // is connected iff one source reaches everyone), not a pairwise walk.
  bool ok = true;
  std::vector<std::uint32_t> dist;
  for_each_faulty_set(f, [&](std::vector<bool>& excluded) {
    if (!ok) return;
    NodeId source = 0;
    while (excluded[source]) ++source;
    bfs_from(source, excluded, dist);
    for (NodeId t = 0; t < n(); ++t)
      if (!excluded[t] && dist[t] == kInf) ok = false;
  });
  return ok;
}

bool Topology::worst_case_distance_is_exact(std::uint32_t f) const {
  return n() <= kWorstCaseSourceBudget &&
         subset_count_capped(n(), f, kWorstCaseSubsetBudget) <=
             kWorstCaseSubsetBudget;
}

std::uint32_t Topology::worst_distance_with_faults(
    const std::vector<bool>& excluded, std::uint32_t source_budget) const {
  CS_CHECK(excluded.size() == n());
  std::vector<NodeId> sources;
  sources.reserve(n());
  for (NodeId s = 0; s < n(); ++s)
    if (!excluded[s]) sources.push_back(s);
  if (source_budget > 0 && sources.size() > source_budget) {
    // Deterministic evenly-strided sample. Every retained source still has
    // to reach every survivor below, so connectivity verification stays
    // exact.
    std::vector<NodeId> sampled;
    sampled.reserve(source_budget);
    for (std::uint32_t i = 0; i < source_budget; ++i)
      sampled.push_back(
          sources[static_cast<std::size_t>(i) * sources.size() / source_budget]);
    sources.swap(sampled);
  }

  // Multi-source BFS (Then et al., "The More the Merrier", VLDB 2015): up to
  // 64 sources walk the graph together, one bit lane each. seen[v] holds the
  // lanes that have reached v, frontier[v] the lanes that reached v at the
  // current level, next[v] those reaching it at the next one. Unused lanes
  // and every lane of an excluded node start out seen, so no walk enters an
  // excluded node and a survivor is reached by every source iff its word is
  // all ones.
  using Lanes = std::uint64_t;
  constexpr std::size_t kLanes = 64;
  constexpr Lanes kAll = ~Lanes{0};
  // A level whose frontier holds more than n / kDenseDivisor nodes sweeps
  // all nodes in id order; a smaller one walks a list of its nodes.
  constexpr std::size_t kDenseDivisor = 16;
  std::vector<Lanes> seen(n());
  std::vector<Lanes> frontier(n(), 0);
  std::vector<Lanes> next(n(), 0);
  std::vector<NodeId> active;
  std::vector<NodeId> upcoming;
  std::uint32_t worst = 0;
  for (std::size_t base = 0; base < sources.size(); base += kLanes) {
    const std::size_t lanes = std::min(kLanes, sources.size() - base);
    const Lanes unused = lanes == kLanes ? 0 : kAll << lanes;
    for (NodeId v = 0; v < n(); ++v) seen[v] = excluded[v] ? kAll : unused;
    active.assign(sources.begin() + static_cast<std::ptrdiff_t>(base),
                  sources.begin() + static_cast<std::ptrdiff_t>(base + lanes));
    for (std::size_t i = 0; i < lanes; ++i) {
      seen[active[i]] |= Lanes{1} << i;
      frontier[active[i]] = Lanes{1} << i;
    }
    bool listed = true;  // `active` lists the frontier (no dense level since)
    std::size_t frontier_size = lanes;
    for (std::uint32_t level = 1; frontier_size > 0; ++level) {
      const bool dense = frontier_size * kDenseDivisor > n();
      if (!dense && !listed) {
        active.clear();
        for (NodeId v = 0; v < n(); ++v)
          if (frontier[v] != 0) active.push_back(v);
      }
      std::size_t reached = 0;
      upcoming.clear();
      const auto expand = [&](NodeId v) {
        const Lanes lanes_at_v = frontier[v];
        frontier[v] = 0;
        for (const NodeId w : adj_[v]) {
          const Lanes fresh = lanes_at_v & ~seen[w];
          if (fresh == 0) continue;
          if (next[w] == 0) {
            ++reached;
            if (!dense) upcoming.push_back(w);
          }
          next[w] |= fresh;
          seen[w] |= fresh;
        }
      };
      if (dense) {
        for (NodeId v = 0; v < n(); ++v)
          if (frontier[v] != 0) expand(v);
      } else {
        for (const NodeId v : active) expand(v);
      }
      frontier.swap(next);
      active.swap(upcoming);
      listed = !dense;
      frontier_size = reached;
      // Some lane reached a node first at this level: it lies `level` hops
      // from that lane's source.
      if (reached > 0) worst = std::max(worst, level);
    }
    for (NodeId t = 0; t < n(); ++t)
      CS_CHECK_MSG(seen[t] == kAll,
                   "faulty set disconnects the topology (not "
                   "(f+1)-connected?)");
  }
  return worst;
}

std::uint32_t Topology::worst_case_distance(std::uint32_t f) const {
  std::uint32_t worst = 0;

  if (worst_case_distance_is_exact(f)) {
    for_each_faulty_set(f, [&](std::vector<bool>& excluded) {
      worst = std::max(worst, worst_distance_with_faults(excluded));
    });  // exhaustive: the exact D_f
    return worst;
  }

  // Beyond the budgets: deterministic sampling. Structured cuts first —
  // deleting f neighbors of one node is how relay paths stretch — then
  // seeded random subsets. Everything is a pure function of (graph, f):
  // same graph, same answer, across runs, threads, and call sites.
  std::vector<bool> excluded(n(), false);
  const std::uint32_t source_cap =
      n() <= kWorstCaseSourceBudget ? 0 : sampled_source_cap();
  auto probe = [&](const std::vector<bool>& ex) {
    worst = std::max(worst, worst_distance_with_faults(ex, source_cap));
  };

  if (n() <= kWorstCaseSourceBudget) {
    // Small-n sampled regime (subset budget exceeded): every node's
    // first-f-neighbors cut, then random subsets up to the probe budget,
    // each with exhaustive sources — the historical sampling behavior.
    std::uint64_t probes = 0;
    for (NodeId v = 0; v < n(); ++v) {
      const auto& nb = adj_[v];
      const std::uint32_t take =
          std::min<std::uint32_t>(f, static_cast<std::uint32_t>(nb.size()));
      for (std::uint32_t i = 0; i < take; ++i) excluded[nb[i]] = true;
      probe(excluded);
      ++probes;
      for (std::uint32_t i = 0; i < take; ++i) excluded[nb[i]] = false;
    }
    util::Rng rng(0xd157a9ceULL ^ (static_cast<std::uint64_t>(n()) << 32) ^ f);
    std::vector<NodeId> picked;
    while (probes < kWorstCaseSubsetBudget) {
      picked.clear();
      while (picked.size() < f) {
        const NodeId v = static_cast<NodeId>(rng.below(n()));
        if (!excluded[v]) {
          excluded[v] = true;
          picked.push_back(v);
        }
      }
      probe(excluded);
      ++probes;
      for (const NodeId v : picked) excluded[v] = false;
    }
    return worst;
  }

  // Large-n sampled regime (source budget exceeded): a strided handful of
  // first-f-neighbors cuts plus a couple of random subsets, each probed
  // with sampled sources, so a 10^5-node analysis is a few dozen BFS walks
  // instead of millions.
  if (f == 0) {
    probe(excluded);  // only one fault set exists: the empty one
    return worst;
  }
  constexpr std::uint32_t kStructuredProbes = 6;
  constexpr std::uint32_t kRandomProbes = 2;
  const NodeId stride = std::max(1u, n() / kStructuredProbes);
  for (NodeId v = 0; v < n(); v += stride) {
    const auto& nb = adj_[v];
    const std::uint32_t take =
        std::min<std::uint32_t>(f, static_cast<std::uint32_t>(nb.size()));
    for (std::uint32_t i = 0; i < take; ++i) excluded[nb[i]] = true;
    probe(excluded);
    for (std::uint32_t i = 0; i < take; ++i) excluded[nb[i]] = false;
  }
  util::Rng rng(0xd157a9ceULL ^ (static_cast<std::uint64_t>(n()) << 32) ^ f);
  std::vector<NodeId> picked;
  for (std::uint32_t p = 0; p < kRandomProbes; ++p) {
    picked.clear();
    while (picked.size() < f) {
      const NodeId v = static_cast<NodeId>(rng.below(n()));
      if (!excluded[v]) {
        excluded[v] = true;
        picked.push_back(v);
      }
    }
    probe(excluded);
    for (const NodeId v : picked) excluded[v] = false;
  }
  return worst;
}

Topology Topology::complete(std::uint32_t n) {
  Topology topo(n);
  for (NodeId a = 0; a < n; ++a)
    for (NodeId b = a + 1; b < n; ++b) topo.add_edge(a, b);
  return topo;
}

Topology Topology::ring(std::uint32_t n) {
  Topology topo(n);
  for (NodeId v = 0; v < n; ++v) topo.add_edge(v, (v + 1) % n);
  return topo;
}

Topology Topology::chordal_ring(std::uint32_t n, std::uint32_t stride) {
  CS_CHECK(stride >= 2 && stride < n);
  Topology topo = ring(n);
  for (NodeId v = 0; v < n; ++v) topo.add_edge(v, (v + stride) % n);
  return topo;
}

Topology Topology::ring_of_cliques(std::uint32_t cliques, std::uint32_t size,
                                   std::uint32_t bridges) {
  // Outgoing bridges leave from nodes {0..bridges-1} and incoming bridges
  // land on nodes {size-1 .. size-bridges}: every clique exposes 2*bridges
  // DISTINCT gateway nodes, so cutting the clique ring takes both junctions
  // of a segment (2*bridges nodes) and the topology survives
  // f = 2*bridges − 1 faults anywhere (deleting one junction's endpoints
  // still leaves the ring connected the other way around; see
  // max_topology_faults and the RingOfCliquesConnectivityFormula test).
  CS_CHECK(cliques >= 2 && size >= 2 && bridges >= 1 && 2 * bridges <= size);
  Topology topo(cliques * size);
  auto id = [size](std::uint32_t clique, std::uint32_t i) {
    return static_cast<NodeId>(clique * size + i);
  };
  for (std::uint32_t c = 0; c < cliques; ++c) {
    for (std::uint32_t i = 0; i < size; ++i)
      for (std::uint32_t j = i + 1; j < size; ++j)
        topo.add_edge(id(c, i), id(c, j));
    const std::uint32_t next = (c + 1) % cliques;
    for (std::uint32_t b = 0; b < bridges; ++b)
      topo.add_edge(id(c, b), id(next, size - 1 - b));
  }
  return topo;
}

Topology Topology::hypercube(std::uint32_t dim) {
  CS_CHECK_MSG(dim >= 1 && dim < 31, "hypercube dimension out of range");
  const std::uint32_t n = 1u << dim;
  Topology topo(n);
  for (NodeId v = 0; v < n; ++v)
    for (std::uint32_t bit = 0; bit < dim; ++bit)
      topo.add_edge(v, v ^ (1u << bit));
  return topo;
}

Topology Topology::random_connected(std::uint32_t n, std::uint32_t f,
                                    std::uint64_t seed) {
  CS_CHECK_MSG(f + 2 <= n, "need at least f+2 nodes for f faults");
  Topology topo = ring(n);
  if (topo.survives_faults(f)) return topo;
  util::Rng rng(seed);
  // Add random chords until (f+1)-connected. The complete graph is an upper
  // bound, so this terminates; re-checking connectivity every few edges keeps
  // the brute-force check off the hot path.
  const std::size_t max_edges = static_cast<std::size_t>(n) * (n - 1) / 2;
  std::uint32_t since_check = 0;
  while (topo.edge_count() < max_edges) {
    const NodeId a = static_cast<NodeId>(rng.next_u64() % n);
    const NodeId b = static_cast<NodeId>(rng.next_u64() % n);
    if (a == b || topo.has_edge(a, b)) continue;
    topo.add_edge(a, b);
    if (++since_check >= 2 || topo.edge_count() == max_edges) {
      since_check = 0;
      if (topo.survives_faults(f)) return topo;
    }
  }
  CS_CHECK_MSG(topo.survives_faults(f),
               "random_connected failed to reach (f+1)-connectivity");
  return topo;
}

}  // namespace crusader::relay
