// Byzantine relay adversaries (Appendix A under SecureTime-style attacks):
// signatures stop equivocation, but faulty relays may still delay, reorder,
// or selectively drop the signed copies they forward. Every fault kind on
// every sparse topology family must keep realized skew within the
// Theorem-17 bound evaluated at the effective (d_eff, u_eff) — the
// adversary acts inside the model, so the translation's guarantee is
// unconditional. The upgrade over crash relays must also be observable
// (max-delay strictly beats crash on ring cells), and sweeps must stay
// deterministic across worker-thread counts.

#include "relay/adversary.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "relay/topology.hpp"
#include "runner/export.hpp"
#include "runner/runner.hpp"
#include "runner/scenario.hpp"

namespace crusader::runner {
namespace {

constexpr relay::RelayFaultKind kAllFaultKinds[] = {
    relay::RelayFaultKind::kCrash, relay::RelayFaultKind::kMaxDelay,
    relay::RelayFaultKind::kReorder, relay::RelayFaultKind::kSelectiveDrop};

constexpr TopologyKind kSparseTopologies[] = {
    TopologyKind::kRing, TopologyKind::kChordalRing,
    TopologyKind::kRingOfCliques, TopologyKind::kHypercube};

/// The acceptance grid: every fault kind × every sparse family at n = 8,
/// each at the topology's maximum survivable fault load.
SweepGrid adversary_grid() {
  SweepGrid grid;
  grid.worlds = {WorldKind::kRelay};
  grid.protocols = {baselines::ProtocolKind::kCps};
  grid.ns = {8};
  grid.fault_loads = {SweepGrid::kMaxResilience};
  grid.topologies.assign(std::begin(kSparseTopologies),
                         std::end(kSparseTopologies));
  grid.relay_faults.assign(std::begin(kAllFaultKinds),
                           std::end(kAllFaultKinds));
  grid.us = {0.01};
  grid.varthetas = {1.001};
  grid.rounds = 6;
  grid.warmup = 2;
  return grid;
}

TEST(RelayAdversary, BoundConformanceAcrossFaultKindsAndTopologies) {
  const auto specs = adversary_grid().expand();
  // 4 fault kinds × 4 topology families, one grid cell each.
  ASSERT_EQ(specs.size(), 16u);

  const auto report = run_sweep(specs, {});
  std::set<std::pair<TopologyKind, relay::RelayFaultKind>> cells;
  for (const auto& r : report.results) {
    SCOPED_TRACE(r.spec.name());
    cells.emplace(r.spec.topology, r.spec.relay_fault);
    ASSERT_TRUE(r.error.empty()) << r.error;
    ASSERT_TRUE(r.feasible);
    EXPECT_TRUE(r.live);
    EXPECT_EQ(r.rounds_completed, 6u);
    // The fault load resolved to the family's documented survivable f.
    EXPECT_EQ(r.spec.f, max_topology_faults(r.spec.topology, 8));
    EXPECT_GE(r.spec.f, 1u) << "cell must actually instantiate faulty relays";
    // The adversary acts within the model (legal delays, subset of the
    // crash cut), so Theorem 17 at (d_eff, u_eff) must hold.
    EXPECT_TRUE(r.within_bound)
        << "skew " << r.max_skew << " > bound " << r.predicted_skew;
    ASSERT_TRUE(std::isfinite(r.skew_ratio));
    EXPECT_LE(r.skew_ratio, 1.0 + 1e-9);
    EXPECT_DOUBLE_EQ(r.d_eff, r.worst_hops * r.spec.d);
  }
  EXPECT_EQ(cells.size(), 16u) << "every fault kind × topology cell ran";
}

TEST(RelayAdversary, MaxDelayStrictlyWorseThanCrashOnRing) {
  // The adversary upgrade must be observable: a relay that holds every
  // forwarded copy (and its own broadcast's first hops) for the full d_hop
  // injects per-path asymmetry a crashed — silent — relay cannot. Under the
  // deterministic honest delay policies the comparison is seed-independent;
  // require a strict witness on at least one ring cell.
  std::size_t witnesses = 0;
  for (const auto delay : {sim::DelayKind::kMin, sim::DelayKind::kMax}) {
    for (const double u : {0.01, 0.02}) {
      ScenarioSpec spec;
      spec.world = WorldKind::kRelay;
      spec.topology = TopologyKind::kRing;
      spec.n = 8;
      spec.f = 1;
      spec.f_actual = 1;
      spec.u = u;
      spec.u_tilde = u;
      spec.vartheta = 1.001;
      spec.delay = delay;
      spec.rounds = 10;
      spec.warmup = 3;

      spec.relay_fault = relay::RelayFaultKind::kCrash;
      const auto crash = run_scenario(spec);
      spec.relay_fault = relay::RelayFaultKind::kMaxDelay;
      const auto max_delay = run_scenario(spec);

      SCOPED_TRACE(spec.name());
      ASSERT_TRUE(crash.error.empty()) << crash.error;
      ASSERT_TRUE(max_delay.error.empty()) << max_delay.error;
      ASSERT_TRUE(crash.feasible && max_delay.feasible);
      EXPECT_TRUE(crash.within_bound);
      EXPECT_TRUE(max_delay.within_bound);
      if (max_delay.steady_skew > crash.steady_skew + 1e-12) ++witnesses;
    }
  }
  EXPECT_GE(witnesses, 1u)
      << "max-delay relays never beat crash relays — adversary not wired?";
}

TEST(RelayAdversary, SweepCsvByteIdenticalAcrossThreadCounts) {
  const auto specs = adversary_grid().expand();

  RunnerOptions serial;
  serial.base_seed = 23;
  serial.threads = 1;
  const auto report1 = run_sweep(specs, serial);

  RunnerOptions parallel = serial;
  parallel.threads = 4;
  const auto report4 = run_sweep(specs, parallel);

  const std::string csv1 = to_csv(report1);
  const std::string csv4 = to_csv(report4);
  EXPECT_FALSE(csv1.empty());
  EXPECT_EQ(csv1, csv4);
  for (const auto& r : report1.results)
    EXPECT_TRUE(r.error.empty()) << r.spec.name() << ": " << r.error;
  // The fault kind made it into the CSV schema.
  EXPECT_NE(csv1.find("relay_fault"), std::string::npos);
  EXPECT_NE(csv1.find("selective-drop"), std::string::npos);
}

TEST(RelayAdversary, FaultFreeCellsCollapseTheFaultAxis) {
  // With no faulty relays there is nothing to misbehave: the relay-fault
  // axis must collapse instead of multiplying identical worlds.
  auto grid = adversary_grid();
  grid.fault_loads = {0};
  const auto specs = grid.expand();
  EXPECT_EQ(specs.size(), 4u);  // one per topology family, not 16
  for (const auto& spec : specs)
    EXPECT_EQ(spec.relay_fault, relay::RelayFaultKind::kCrash);

  // Non-relay worlds ignore the axis entirely.
  grid.worlds = {WorldKind::kComplete};
  grid.fault_loads = {SweepGrid::kMaxResilience};
  grid.topologies = {TopologyKind::kComplete};
  EXPECT_EQ(grid.expand().size(), 1u);
}

TEST(RelayAdversary, ParticipationFollowsKind) {
  const auto topo = relay::Topology::ring(6);
  std::vector<bool> faulty(6, false);
  faulty[2] = true;

  const relay::RelayAdversary crash(relay::RelayFaultKind::kCrash, topo,
                                    faulty, 1);
  EXPECT_FALSE(crash.participates(2));
  EXPECT_TRUE(crash.participates(0));
  EXPECT_FALSE(crash.forwards(2, 1));

  const relay::RelayAdversary delay(relay::RelayFaultKind::kMaxDelay, topo,
                                    faulty, 1);
  EXPECT_TRUE(delay.participates(2));
  EXPECT_TRUE(delay.forwards(2, 1));
  EXPECT_DOUBLE_EQ(delay.hop_delay(2, 1, 7, 0.95, 0.9, 1.0), 1.0);
  // Honest nodes keep the honest policy's delay.
  EXPECT_DOUBLE_EQ(delay.hop_delay(0, 1, 7, 0.95, 0.9, 1.0), 0.95);
}

TEST(RelayAdversary, ReorderPinsWindowExtremesDeterministically) {
  const auto topo = relay::Topology::ring(6);
  std::vector<bool> faulty(6, false);
  faulty[2] = true;
  const relay::RelayAdversary a(relay::RelayFaultKind::kReorder, topo, faulty,
                                42);
  const relay::RelayAdversary b(relay::RelayFaultKind::kReorder, topo, faulty,
                                42);
  bool saw_lo = false;
  bool saw_hi = false;
  for (std::uint64_t flood = 0; flood < 64; ++flood) {
    const double d1 = a.hop_delay(2, 1, flood, 0.95, 0.9, 1.0);
    EXPECT_DOUBLE_EQ(d1, b.hop_delay(2, 1, flood, 0.95, 0.9, 1.0));
    EXPECT_TRUE(d1 == 0.9 || d1 == 1.0);
    saw_lo |= d1 == 0.9;
    saw_hi |= d1 == 1.0;
  }
  // Both extremes occur: successive floods can swap arrival order.
  EXPECT_TRUE(saw_lo && saw_hi);
}

TEST(RelayAdversary, SelectiveDropServesHalfTheNeighbors) {
  const auto topo = relay::Topology::hypercube(3);  // degree 3 everywhere
  std::vector<bool> faulty(8, false);
  faulty[0] = true;
  faulty[5] = true;
  const relay::RelayAdversary a(relay::RelayFaultKind::kSelectiveDrop, topo,
                                faulty, 9);
  for (const NodeId v : {NodeId{0}, NodeId{5}}) {
    std::size_t served = 0;
    for (const NodeId next : topo.neighbors(v))
      if (a.forwards(v, next)) ++served;
    EXPECT_EQ(served, 2u);  // ceil(3/2)
  }
  // Honest nodes serve everyone.
  for (const NodeId next : topo.neighbors(1))
    EXPECT_TRUE(a.forwards(1, next));
  // The subset is a pure function of the seed.
  const relay::RelayAdversary b(relay::RelayFaultKind::kSelectiveDrop, topo,
                                faulty, 9);
  for (const NodeId next : topo.neighbors(0))
    EXPECT_EQ(a.forwards(0, next), b.forwards(0, next));
}

TEST(RelayAdversary, SelectiveDropKeepsEveryHonestNodeLive) {
  // Selective drop keeps a superset of the crash graph's edges, so the
  // flood still reaches everyone and liveness is untouched.
  ScenarioSpec spec;
  spec.world = WorldKind::kRelay;
  spec.topology = TopologyKind::kRingOfCliques;
  spec.n = 8;
  spec.f = 3;
  spec.f_actual = 3;
  spec.u = 0.01;
  spec.u_tilde = 0.01;
  spec.vartheta = 1.001;
  spec.relay_fault = relay::RelayFaultKind::kSelectiveDrop;
  spec.rounds = 6;
  spec.warmup = 2;
  const auto r = run_scenario(spec);
  ASSERT_TRUE(r.error.empty()) << r.error;
  ASSERT_TRUE(r.feasible);
  EXPECT_TRUE(r.live);
  EXPECT_TRUE(r.within_bound)
      << "skew " << r.max_skew << " > bound " << r.predicted_skew;
}

}  // namespace
}  // namespace crusader::runner
