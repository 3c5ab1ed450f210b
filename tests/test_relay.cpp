// Sparse-network translation (paper Appendix A): (f+1)-connectivity
// simulates full connectivity; CPS runs unchanged with effective
// (d_eff, u_eff) = (D_f·d_hop, D_f·u_hop + drift).

#include "relay/flood_world.hpp"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <gtest/gtest.h>
#include <iterator>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "baselines/factories.hpp"
#include "core/cps.hpp"
#include "core/params.hpp"
#include "relay/topology.hpp"
#include "util/check.hpp"

namespace crusader::relay {
namespace {

TEST(Topology, CompleteGraphProperties) {
  const auto topo = Topology::complete(5);
  EXPECT_EQ(topo.edge_count(), 10u);
  EXPECT_TRUE(topo.survives_faults(2));
  EXPECT_EQ(topo.worst_case_distance(2), 1u);
}

TEST(Topology, RingConnectivity) {
  const auto topo = Topology::ring(6);
  EXPECT_EQ(topo.edge_count(), 6u);
  EXPECT_TRUE(topo.survives_faults(1));   // 2-connected
  EXPECT_FALSE(topo.survives_faults(2));  // two cuts disconnect a ring
  // Removing one node forces the long way around: 6-2 = 4 hops.
  EXPECT_EQ(topo.worst_case_distance(1), 4u);
}

TEST(Topology, ChordalRingBeatsPlainRing) {
  const auto plain = Topology::ring(8);
  const auto chordal = Topology::chordal_ring(8, 2);
  EXPECT_TRUE(chordal.survives_faults(2));
  EXPECT_FALSE(plain.survives_faults(2));
  EXPECT_LT(chordal.worst_case_distance(1), plain.worst_case_distance(1));
}

TEST(Topology, RingOfCliques) {
  const auto topo = Topology::ring_of_cliques(3, 4, 2);
  EXPECT_EQ(topo.n(), 12u);
  EXPECT_TRUE(topo.survives_faults(2));
  EXPECT_GE(topo.worst_case_distance(2), 2u);
}

TEST(Topology, DistanceRespectsExclusions) {
  auto topo = Topology::ring(5);
  std::vector<bool> nobody(5, false);
  EXPECT_EQ(topo.distance(0, 2, nobody), 2u);
  std::vector<bool> cut(5, false);
  cut[1] = true;
  EXPECT_EQ(topo.distance(0, 2, cut), 3u);  // the long way
  cut[3] = true;
  cut[4] = true;
  EXPECT_EQ(topo.distance(0, 2, cut),
            std::numeric_limits<std::uint32_t>::max());
}

TEST(Topology, DuplicateEdgesIgnored) {
  Topology topo(3);
  topo.add_edge(0, 1);
  topo.add_edge(1, 0);
  EXPECT_EQ(topo.edge_count(), 1u);
}

// --- Property tests for the wired sparse families ---------------------------

/// Reference implementation of worst_case_distance: the original brute-force
/// per-pair walk over every size-f subset. Only viable for n ≤ 12 — which is
/// exactly the regime where the production BFS must agree with it exactly.
std::uint32_t brute_force_worst_distance(const Topology& topo,
                                         std::uint32_t f) {
  constexpr std::uint32_t kInf = std::numeric_limits<std::uint32_t>::max();
  const std::uint32_t n = topo.n();
  std::uint32_t worst = 0;
  std::vector<bool> excluded(n, false);
  std::vector<NodeId> subset;
  std::function<void(NodeId)> rec = [&](NodeId start) {
    if (subset.size() == f) {
      for (NodeId s = 0; s < n; ++s) {
        if (excluded[s]) continue;
        for (NodeId t = s + 1; t < n; ++t) {
          if (excluded[t]) continue;
          const std::uint32_t dist = topo.distance(s, t, excluded);
          CS_CHECK(dist != kInf);
          worst = std::max(worst, dist);
        }
      }
      return;
    }
    for (NodeId v = start; v < n; ++v) {
      excluded[v] = true;
      subset.push_back(v);
      rec(v + 1);
      subset.pop_back();
      excluded[v] = false;
    }
  };
  rec(0);
  return worst;
}

TEST(Topology, ChordalRingConnectivityFormula) {
  // C_n(1, 2) is 4-connected for n ≥ 6 (consecutive-stride circulants are
  // maximally connected): survives min(3, n − 2) faults and no more.
  for (std::uint32_t n = 5; n <= 12; ++n) {
    SCOPED_TRACE(n);
    const auto topo = Topology::chordal_ring(n, 2);
    const std::uint32_t f = std::min(3u, n - 2);
    EXPECT_TRUE(topo.survives_faults(f));
    if (f + 3 <= n) {
      EXPECT_FALSE(topo.survives_faults(f + 1));
    }
  }
}

TEST(Topology, RingOfCliquesConnectivityFormula) {
  // Size-4 cliques with 2 bridges per junction: cutting the clique ring
  // takes both junctions (4 nodes) and isolating a node takes its degree-4
  // neighborhood, so the family survives 2·bridges − 1 = 3 faults exactly.
  for (std::uint32_t cliques = 2; cliques <= 3; ++cliques) {
    SCOPED_TRACE(cliques);
    const auto topo = Topology::ring_of_cliques(cliques, 4, 2);
    EXPECT_TRUE(topo.survives_faults(3));
    EXPECT_FALSE(topo.survives_faults(4));
  }
}

TEST(Topology, WorstCaseDistanceMonotoneInFaults) {
  const Topology topos[] = {Topology::chordal_ring(10, 2),
                            Topology::ring_of_cliques(3, 4, 2),
                            Topology::hypercube(3)};
  const std::uint32_t max_f[] = {3, 3, 2};
  for (std::size_t i = 0; i < std::size(topos); ++i) {
    std::uint32_t prev = topos[i].worst_case_distance(0);
    for (std::uint32_t f = 1; f <= max_f[i]; ++f) {
      SCOPED_TRACE(testing::Message() << "topology " << i << " f=" << f);
      const std::uint32_t d = topos[i].worst_case_distance(f);
      EXPECT_GE(d, prev);  // deleting more nodes never shortens worst paths
      prev = d;
    }
  }
}

TEST(Topology, BfsWalkAgreesWithBruteForceUpToTwelveNodes) {
  // n ≤ 12 keeps every family inside the exhaustive-subset budget, where
  // the bit-parallel BFS must reproduce the brute-force walk bit for bit.
  for (std::uint32_t n = 4; n <= 12; ++n) {
    SCOPED_TRACE(testing::Message() << "ring n=" << n);
    const auto ring = Topology::ring(n);
    for (std::uint32_t f = 0; f <= (n >= 5 ? 1u : 0u); ++f)
      EXPECT_EQ(ring.worst_case_distance(f),
                brute_force_worst_distance(ring, f));
  }
  for (std::uint32_t n = 6; n <= 12; ++n) {
    SCOPED_TRACE(testing::Message() << "chordal n=" << n);
    const auto chordal = Topology::chordal_ring(n, 2);
    for (std::uint32_t f = 0; f <= 3; ++f)
      EXPECT_EQ(chordal.worst_case_distance(f),
                brute_force_worst_distance(chordal, f));
  }
  for (std::uint32_t cliques = 2; cliques <= 3; ++cliques) {
    SCOPED_TRACE(testing::Message() << "cliques=" << cliques);
    const auto roc = Topology::ring_of_cliques(cliques, 4, 2);
    for (std::uint32_t f = 0; f <= 3; ++f)
      EXPECT_EQ(roc.worst_case_distance(f),
                brute_force_worst_distance(roc, f));
  }
  const auto cube = Topology::hypercube(3);
  for (std::uint32_t f = 0; f <= 2; ++f)
    EXPECT_EQ(cube.worst_case_distance(f),
              brute_force_worst_distance(cube, f));
  const auto complete = Topology::complete(7);
  for (std::uint32_t f = 0; f <= 3; ++f)
    EXPECT_EQ(complete.worst_case_distance(f),
              brute_force_worst_distance(complete, f));
}

TEST(Topology, SampledWalkIsDeterministicAndCoversLargeN) {
  // n = 64 ring of cliques: C(64, 3) blows the exhaustive budget, so the
  // sampled path runs. It must be a pure function of (graph, f), at least
  // as large as the fault-free diameter, and fast enough to call twice.
  const auto topo = Topology::ring_of_cliques(16, 4, 2);
  ASSERT_EQ(topo.n(), 64u);
  EXPECT_TRUE(topo.worst_case_distance_is_exact(0));
  EXPECT_FALSE(topo.worst_case_distance_is_exact(3));  // C(64,3) > budget
  const std::uint32_t d0 = topo.worst_case_distance(0);
  const std::uint32_t d3 = topo.worst_case_distance(3);
  EXPECT_GE(d3, d0);
  EXPECT_EQ(d3, topo.worst_case_distance(3));
  EXPECT_TRUE(topo.survives_faults(3));  // exact even at n = 64
}

/// Reference for worst_distance_with_faults: the same evenly-strided source
/// sample, then one pairwise Topology::distance per (source, survivor).
std::uint32_t pairwise_worst_distance(const Topology& topo,
                                      const std::vector<bool>& excluded,
                                      std::uint32_t source_budget) {
  std::vector<NodeId> survivors;
  for (NodeId v = 0; v < topo.n(); ++v)
    if (!excluded[v]) survivors.push_back(v);
  std::vector<NodeId> sources = survivors;
  if (source_budget > 0 && sources.size() > source_budget) {
    sources.clear();
    for (std::uint32_t i = 0; i < source_budget; ++i)
      sources.push_back(survivors[static_cast<std::size_t>(i) *
                                  survivors.size() / source_budget]);
  }
  std::uint32_t worst = 0;
  for (const NodeId s : sources)
    for (const NodeId t : survivors)
      worst = std::max(worst, topo.distance(s, t, excluded));
  return worst;
}

TEST(Topology, BitParallelWalkAgreesWithPairwiseDistancesAcrossLanes) {
  // The walk runs 64 sources per word. n = 63, 64, 65 and 130 put the last
  // word just under, exactly at, and just over a lane boundary (and span
  // three words); budgets 64 and 100 exercise a full and a partial strided
  // sample.
  struct Graph {
    const char* family;
    Topology topo;
    std::uint32_t survives;  ///< faults the family tolerates
  };
  std::vector<Graph> graphs;
  for (const std::uint32_t n : {63u, 64u, 65u, 130u}) {
    graphs.push_back({"ring", Topology::ring(n), 1});
    graphs.push_back({"chordal", Topology::chordal_ring(n, 5), 3});
    graphs.push_back({"random", Topology::random_connected(n, 2, 17 + n), 2});
  }
  graphs.push_back({"hypercube", Topology::hypercube(7), 3});
  for (const auto& [family, topo, survives] : graphs) {
    const std::uint32_t n = topo.n();
    const NodeId spread[] = {1, n / 2, n - 3};
    for (const bool with_faults : {false, true}) {
      std::vector<bool> excluded(n, false);
      if (with_faults)
        for (std::uint32_t i = 0; i < std::min(survives, 3u); ++i)
          excluded[spread[i]] = true;
      for (const std::uint32_t budget : {0u, 64u, 100u}) {
        SCOPED_TRACE(testing::Message()
                     << family << " n=" << n << " faults=" << with_faults
                     << " budget=" << budget);
        EXPECT_EQ(topo.worst_distance_with_faults(excluded, budget),
                  pairwise_worst_distance(topo, excluded, budget));
      }
    }
  }
}

TEST(Topology, BitParallelWalkRefusesADisconnectingFaultSetBeyondOneWord) {
  // Removing two antipodal nodes cuts a 130-node ring in two. Every budget
  // keeps more than 64 sources, so the check must hold across words.
  const auto ring = Topology::ring(130);
  std::vector<bool> excluded(130, false);
  excluded[0] = true;
  excluded[65] = true;
  for (const std::uint32_t budget : {0u, 100u}) {
    SCOPED_TRACE(testing::Message() << "budget=" << budget);
    try {
      (void)ring.worst_distance_with_faults(excluded, budget);
      ADD_FAILURE() << "disconnecting fault set accepted";
    } catch (const util::CheckFailure& e) {
      EXPECT_NE(std::string(e.what()).find("disconnects the topology"),
                std::string::npos)
          << e.what();
    }
  }
}

sim::ModelParams hop_model(std::uint32_t n, std::uint32_t f) {
  sim::ModelParams hop;
  hop.n = n;
  hop.f = f;
  hop.d = 1.0;
  hop.u = 0.02;
  hop.u_tilde = 0.02;
  hop.vartheta = 1.002;
  return hop;
}

TEST(EffectiveModel, CompleteTopologyIsNearFlat) {
  RelayConfig config;
  config.topology = Topology::complete(5);
  config.hop_model = hop_model(5, 2);
  const auto eff = effective_model(config);
  EXPECT_DOUBLE_EQ(eff.d, 1.0);
  EXPECT_NEAR(eff.u, 0.02 + 0.002, 1e-12);  // + hold drift term
}

TEST(EffectiveModel, ScalesWithWorstCaseDistance) {
  RelayConfig config;
  config.topology = Topology::ring(6);
  config.hop_model = hop_model(6, 1);
  const auto eff = effective_model(config);
  EXPECT_DOUBLE_EQ(eff.d, 4.0);  // D_1 = 4 hops
  EXPECT_NEAR(eff.u, 4.0 * 0.02 + 0.002 * 4.0, 1e-12);
}

TEST(EffectiveModel, RejectsUnderConnectedTopology) {
  RelayConfig config;
  config.topology = Topology::ring(6);
  config.hop_model = hop_model(6, 2);  // ring is not 3-connected
  EXPECT_THROW((void)effective_model(config), util::CheckFailure);
}

TEST(EffectiveModel, SampledWalkStaysSoundForConfiguredFaultySet) {
  // n = 64: worst_case_distance samples, so compute_effective must fold in
  // the configured faulty set's exact distances — the exported worst_hops
  // can never undercount the paths the instantiated adversary forces.
  RelayConfig config;
  config.topology = Topology::ring_of_cliques(16, 4, 2);
  config.hop_model = hop_model(64, 3);
  config.hop_model.vartheta = 1.0005;
  config.hop_model.u = 0.005;
  config.hop_model.u_tilde = 0.005;
  config.faulty = {0, 1, 2};
  ASSERT_FALSE(config.topology.worst_case_distance_is_exact(3));
  const auto eff = compute_effective(config);

  std::vector<bool> excluded(64, false);
  for (const NodeId v : config.faulty) excluded[v] = true;
  std::uint32_t realized = 0;
  for (NodeId s = 0; s < 64; ++s) {
    if (excluded[s]) continue;
    for (NodeId t = s + 1; t < 64; ++t) {
      if (excluded[t]) continue;
      realized = std::max(realized, config.topology.distance(s, t, excluded));
    }
  }
  EXPECT_GE(eff.worst_hops, realized);
  EXPECT_DOUBLE_EQ(eff.model.d, eff.worst_hops * config.hop_model.d);
}

RelayRunResult run_cps_on(const Topology& topo, std::uint32_t f,
                          std::vector<NodeId> faulty, std::size_t rounds,
                          core::CpsParams* params_out = nullptr) {
  RelayConfig config;
  config.topology = topo;
  config.hop_model = hop_model(topo.n(), f);
  config.faulty = std::move(faulty);
  config.seed = 5;

  const auto eff = effective_model(config);
  const auto params = core::derive_cps_params(eff);
  CS_CHECK(params.feasible);
  if (params_out != nullptr) *params_out = params;
  config.initial_offset = params.S;
  config.horizon = params.S + (rounds + 2) * params.p_max;

  core::CpsConfig cps;
  cps.params = params;
  RelayWorld world(config, [cps](NodeId) {
    return std::make_unique<core::CpsNode>(cps);
  });
  return world.run();
}

TEST(RelayWorld, CpsOnCompleteTopologyMatchesFlatGuarantees) {
  core::CpsParams params;
  const auto result =
      run_cps_on(Topology::complete(5), 2, {}, 15, &params);
  EXPECT_TRUE(result.trace.live(15));
  EXPECT_LE(result.trace.max_skew(), params.S + 1e-9);
  EXPECT_EQ(result.worst_hops, 1u);
}

TEST(RelayWorld, CpsOnRingFaultFree) {
  core::CpsParams params;
  const auto result = run_cps_on(Topology::ring(6), 1, {}, 10, &params);
  EXPECT_TRUE(result.trace.live(10));
  EXPECT_LE(result.trace.max_skew(), params.S + 1e-9);
  EXPECT_EQ(result.worst_hops, 4u);
}

TEST(RelayWorld, CpsSurvivesCrashedRelay) {
  // One crashed node on the ring: the flood routes around it and the
  // remaining nodes stay synchronized within the effective bound.
  core::CpsParams params;
  const auto result = run_cps_on(Topology::ring(6), 1, {3}, 10, &params);
  EXPECT_TRUE(result.trace.live(10));
  EXPECT_LE(result.trace.max_skew(), params.S + 1e-9);
  EXPECT_TRUE(result.trace.pulses(3).empty());
}

TEST(RelayWorld, CpsOnRingOfCliquesWithFaults) {
  core::CpsParams params;
  const auto result = run_cps_on(Topology::ring_of_cliques(3, 4, 2), 2,
                                 {0, 4}, 8, &params);
  EXPECT_TRUE(result.trace.live(8));
  EXPECT_LE(result.trace.max_skew(), params.S + 1e-9);
}

TEST(RelayWorld, SkewGrowsWithPathLength) {
  // The [4]-style intuition: effective skew budget scales with the
  // worst-case relay distance.
  core::CpsParams ring6, ring10;
  (void)run_cps_on(Topology::ring(6), 1, {}, 3, &ring6);
  (void)run_cps_on(Topology::ring(10), 1, {}, 3, &ring10);
  EXPECT_GT(ring10.S, ring6.S);
}

TEST(RelayWorld, PhysicalMessageAccounting) {
  const auto result = run_cps_on(Topology::ring(6), 1, {}, 5);
  EXPECT_GT(result.floods, 0u);
  // Flooding a 6-ring costs 2 physical messages per node per flood.
  EXPECT_GE(result.physical_messages, result.floods * 6);
}

/// The CheckFailure message RelayWorld's constructor throws for `config`,
/// or an empty string when construction succeeds.
std::string construction_error(const RelayConfig& config) {
  const auto params = core::derive_cps_params(effective_model(config));
  core::CpsConfig cps;
  cps.params = params;
  try {
    RelayWorld world(config, [cps](NodeId) {
      return std::make_unique<core::CpsNode>(cps);
    });
  } catch (const util::CheckFailure& e) {
    return e.what();
  }
  return "";
}

TEST(RelayWorld, RejectsCustomClockKind) {
  // RelayConfig carries no clock vector, so kCustom has nothing to copy; it
  // must not silently become a random walk.
  RelayConfig config;
  config.topology = Topology::ring(6);
  config.hop_model = hop_model(6, 1);
  config.clock_kind = sim::ClockKind::kCustom;
  const std::string error = construction_error(config);
  EXPECT_NE(error.find("kCustom is supported only by sim::World"),
            std::string::npos)
      << error;
  config.clock_kind = sim::ClockKind::kRandomWalk;
  EXPECT_EQ(construction_error(config), "");
}

TEST(RelayWorld, RejectsDuplicateFaultyIds) {
  RelayConfig config;
  config.topology = Topology::complete(5);
  config.hop_model = hop_model(5, 2);
  config.faulty = {1, 1};  // within the budget f = 2, but one node twice
  const std::string error = construction_error(config);
  EXPECT_NE(error.find("duplicate faulty id 1"), std::string::npos) << error;
  config.faulty = {1, 2};
  EXPECT_EQ(construction_error(config), "");
}

}  // namespace
}  // namespace crusader::relay
