// Tests for Figure 3 (Crusader Pulse Synchronization) — Theorem 17:
// skew ≤ S, liveness, and the period bounds, in fault-free worlds across
// clock assignments and delay policies; plus the Timed Crusader Broadcast
// estimates it runs on (Lemmas 12 and 13) and Figure 2's dealer offset ϑS.

#include "core/cps.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <gtest/gtest.h>
#include <iterator>
#include <map>
#include <memory>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "helpers.hpp"
#include "util/check.hpp"

namespace crusader::core {
namespace {

using baselines::ProtocolKind;
using testing_ns = ::testing::Test;

struct FaultFreeCase {
  std::uint32_t n;
  sim::ClockKind clocks;
  sim::DelayKind delays;
  std::uint64_t seed;
};

class CpsFaultFree : public ::testing::TestWithParam<FaultFreeCase> {};

TEST_P(CpsFaultFree, Theorem17Holds) {
  const auto c = GetParam();
  const auto model = crusader::testing::small_model(
      c.n, sim::ModelParams::max_faults_signed(c.n));
  const auto setup = baselines::make_setup(ProtocolKind::kCps, model);
  ASSERT_TRUE(setup.feasible);

  const std::size_t rounds = 25;
  const auto result = crusader::testing::run_protocol(
      ProtocolKind::kCps, model, /*f_actual=*/0, ByzStrategy::kCrash, c.seed,
      rounds, c.clocks, c.delays);

  // Liveness.
  ASSERT_TRUE(result.trace.live(rounds)) << "only "
                                         << result.trace.complete_rounds();
  EXPECT_TRUE(result.violations.empty());

  // S-bounded skew for every round.
  const double S = setup.cps.S;
  EXPECT_LE(result.trace.max_skew(), S + 1e-9);

  // Period bounds of Theorem 17.
  EXPECT_GE(result.trace.min_period(), setup.cps.p_min - 1e-9);
  EXPECT_LE(result.trace.max_period(), setup.cps.p_max + 1e-9);
}

std::vector<FaultFreeCase> fault_free_cases() {
  std::vector<FaultFreeCase> cases;
  std::uint64_t seed = 100;
  for (std::uint32_t n : {2u, 3u, 5u, 8u}) {
    for (auto clocks : {sim::ClockKind::kNominal, sim::ClockKind::kSpread,
                        sim::ClockKind::kRandomWalk}) {
      for (auto delays : {sim::DelayKind::kMax, sim::DelayKind::kMin,
                          sim::DelayKind::kRandom, sim::DelayKind::kSplit}) {
        if (n > 3 && clocks == sim::ClockKind::kNominal &&
            delays != sim::DelayKind::kSplit)
          continue;  // keep the grid lean
        cases.push_back(FaultFreeCase{n, clocks, delays, seed++});
      }
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(
    Grid, CpsFaultFree, ::testing::ValuesIn(fault_free_cases()),
    [](const ::testing::TestParamInfo<FaultFreeCase>& info) {
      const auto& c = info.param;
      return "n" + std::to_string(c.n) + "_c" +
             std::to_string(static_cast<int>(c.clocks)) + "_d" +
             std::to_string(static_cast<int>(c.delays)) + "_s" +
             std::to_string(c.seed);
    });

TEST(Cps, SkewConvergesBelowSteadyState) {
  // Start with maximal initial offsets; skew should contract towards the
  // steady-state band (≈ δ-level), visibly below the initial S.
  const auto model = crusader::testing::small_model(5, 2);
  const auto setup = baselines::make_setup(ProtocolKind::kCps, model);
  const auto result = crusader::testing::run_protocol(
      ProtocolKind::kCps, model, 0, ByzStrategy::kCrash, 42, 30,
      sim::ClockKind::kSpread, sim::DelayKind::kRandom);
  const auto skews = result.trace.skews();
  ASSERT_GE(skews.size(), 30u);
  // Late-phase skew is at most half of the assumed initial bound S.
  double late = 0.0;
  for (std::size_t r = 20; r < 30; ++r) late = std::max(late, skews[r]);
  EXPECT_LT(late, setup.cps.S / 2.0);
}

TEST(Cps, DeltasStayWithinLemma14Bounds) {
  const auto model = crusader::testing::small_model(5, 2);
  const auto setup = baselines::make_setup(ProtocolKind::kCps, model);
  std::vector<CpsNode*> nodes(model.n, nullptr);

  CpsConfig config;
  config.params = setup.cps;
  sim::HonestFactory factory = [&nodes, config](NodeId v) {
    auto node = std::make_unique<CpsNode>(config);
    nodes[v] = node.get();
    return node;
  };
  auto world_config =
      crusader::testing::world_config(model, setup, 20, /*seed=*/3);
  sim::World world(world_config, factory, nullptr);
  (void)world.run();

  // Lemma 14(1): −∥p∥ ≤ Δ ≤ ∥p∥ + δ, so |Δ| ≤ S + δ always.
  for (auto* node : nodes) {
    ASSERT_NE(node, nullptr);
    EXPECT_GT(node->stats().rounds_completed, 15u);
    EXPECT_LE(node->stats().max_abs_delta, setup.cps.S + setup.cps.delta + 1e-9);
    EXPECT_EQ(node->stats().negative_waits, 0u);
    EXPECT_EQ(node->stats().bot_estimates, 0u);  // fault-free: no ⊥
  }
}

TEST(Cps, TwoNodeSystem) {
  // n=2, f=⌈2/2⌉−1=0: degenerate but must work (pure drift compensation).
  const auto model = crusader::testing::small_model(2, 0);
  const auto setup = baselines::make_setup(ProtocolKind::kCps, model);
  const auto result = crusader::testing::run_protocol(
      ProtocolKind::kCps, model, 0, ByzStrategy::kCrash, 9, 20,
      sim::ClockKind::kSpread, sim::DelayKind::kMax);
  EXPECT_TRUE(result.trace.live(20));
  EXPECT_LE(result.trace.max_skew(), setup.cps.S + 1e-9);
}

TEST(Cps, InfeasibleParamsRejected) {
  sim::ModelParams model = crusader::testing::small_model(5, 2);
  model.vartheta = 1.5;
  CpsConfig config;
  config.params = core::derive_cps_params(model);
  EXPECT_FALSE(config.params.feasible);
  EXPECT_THROW(CpsNode{config}, util::CheckFailure);
}

TEST(Cps, MaxRoundsStopsPulsing) {
  const auto model = crusader::testing::small_model(3, 1);
  const auto setup = baselines::make_setup(ProtocolKind::kCps, model);
  auto factory = baselines::make_protocol_factory(setup, /*max_rounds=*/5);
  auto config = crusader::testing::world_config(model, setup, 30, 1);
  sim::World world(config, factory, nullptr);
  const auto result = world.run();
  for (NodeId v = 0; v < model.n; ++v)
    EXPECT_EQ(result.trace.pulse_count(v), 5u);
}

TEST(Cps, MessageComplexityIsCubicPerRound) {
  // Each pulse: n dealer broadcasts (n−1 msgs each) + up to n(n−1) echoes of
  // (n−1) msgs → Θ(n³). Check the count for a fault-free round is exactly
  // n(n−1) + n(n−1)(n−1) = n(n−1)·n = n²(n−1).
  const auto model = crusader::testing::small_model(4, 1);
  const auto setup = baselines::make_setup(ProtocolKind::kCps, model);
  auto factory = baselines::make_protocol_factory(setup, /*max_rounds=*/6);
  auto config = crusader::testing::world_config(model, setup, 8, 1);
  sim::World world(config, factory, nullptr);
  const auto result = world.run();
  const std::uint64_t n = model.n;
  const std::uint64_t per_round = n * n * (n - 1);
  // 5 full collection rounds happen (the 6th pulse stops the protocol).
  EXPECT_EQ(result.messages, 5 * per_round);
}

// ---- Timed Crusader Broadcast estimates inside CPS (Lemmas 12 and 13) -----

/// One CPS run on small_model(5, 2) for 20 rounds with every raw TCB
/// estimate recorded; `nodes` points at each node's CpsNode, including the
/// ones a Byzantine wrapper drives, and `world` keeps them alive.
struct EstimateRun {
  std::unique_ptr<sim::World> world;
  std::vector<CpsNode*> nodes;
  sim::RunResult result;
  CpsParams params;
};

EstimateRun run_recording_estimates(std::uint32_t f_actual,
                                    sim::ClockKind clocks,
                                    sim::DelayKind delays, std::uint64_t seed,
                                    double split_shift) {
  const auto model = crusader::testing::small_model(5, 2);
  const auto setup = baselines::make_setup(ProtocolKind::kCps, model);
  EstimateRun out;
  out.params = setup.cps;
  out.nodes.assign(model.n, nullptr);

  CpsConfig config;
  config.params = setup.cps;
  config.record_estimates = true;
  sim::HonestFactory honest = [&out, config](NodeId v) {
    auto node = std::make_unique<CpsNode>(config);
    out.nodes[v] = node.get();
    return node;
  };
  sim::ByzantineFactory byz;
  if (f_actual > 0)
    byz = make_byzantine_factory(ByzStrategy::kSplit, honest, seed, 0.0,
                                 split_shift);
  auto world_config = crusader::testing::world_config(model, setup, 20, seed);
  world_config.clock_kind = clocks;
  world_config.delay_kind = delays;
  world_config.faulty = sim::default_faulty_set(f_actual);
  out.world = std::make_unique<sim::World>(world_config, honest, byz);
  out.result = out.world->run();
  return out;
}

struct ValidityCase {
  sim::DelayKind delays;
  sim::ClockKind clocks;
};

const char* delay_name(sim::DelayKind kind) {
  switch (kind) {
    case sim::DelayKind::kMax: return "max";
    case sim::DelayKind::kMin: return "min";
    case sim::DelayKind::kRandom: return "random";
    case sim::DelayKind::kSplit: return "split";
  }
  return "?";
}

std::string validity_name(const ValidityCase& c) {
  return std::string(delay_name(c.delays)) + "_" +
         (c.clocks == sim::ClockKind::kSpread ? "spread" : "walk");
}

void PrintTo(const ValidityCase& c, std::ostream* os) {
  *os << validity_name(c);
}

class CpsTcbValidity : public ::testing::TestWithParam<ValidityCase> {};

TEST_P(CpsTcbValidity, Lemma12HonestDealerErrorInZeroDelta) {
  // Lemma 12: an honest dealer's broadcast is accepted (no ⊥), and the
  // estimate error Δ_{v,y} − (p_y − p_v) lies in [0, δ).
  const auto c = GetParam();
  const auto run = run_recording_estimates(0, c.clocks, c.delays, 5, 0.0);
  const auto& trace = run.result.trace;
  ASSERT_TRUE(trace.live(20));

  std::size_t samples = 0;
  std::uint64_t bots = 0;
  for (NodeId v = 0; v < run.nodes.size(); ++v) {
    for (const auto& rec : run.nodes[v]->estimates()) {
      const std::size_t r = rec.round - 1;
      if (r >= trace.complete_rounds()) continue;
      if (rec.bot) {
        ++bots;
        continue;
      }
      const double truth =
          trace.pulse_time(rec.dealer, r) - trace.pulse_time(v, r);
      const double err = rec.delta - truth;
      EXPECT_GE(err, -1e-6) << "node " << v << " dealer " << rec.dealer
                            << " round " << rec.round;
      EXPECT_LT(err, run.params.delta) << "node " << v << " dealer "
                                       << rec.dealer << " round " << rec.round;
      ++samples;
    }
  }
  EXPECT_EQ(bots, 0u);
  EXPECT_GT(samples, 0u);
}

std::vector<ValidityCase> validity_cases() {
  std::vector<ValidityCase> cases;
  for (auto delays : {sim::DelayKind::kMax, sim::DelayKind::kMin,
                      sim::DelayKind::kRandom, sim::DelayKind::kSplit})
    for (auto clocks : {sim::ClockKind::kSpread, sim::ClockKind::kRandomWalk})
      cases.push_back(ValidityCase{delays, clocks});
  return cases;
}

INSTANTIATE_TEST_SUITE_P(
    Grid, CpsTcbValidity, ::testing::ValuesIn(validity_cases()),
    [](const ::testing::TestParamInfo<ValidityCase>& info) {
      return validity_name(info.param);
    });

class CpsTcbConsistency : public ::testing::TestWithParam<double> {};

TEST_P(CpsTcbConsistency, Lemma13HonestEstimatesOfByzantineDealerAgree) {
  // Lemma 13: against a two-faced (split-timing) Byzantine dealer x, any two
  // honest non-⊥ estimates satisfy |Δ_{v,x} − Δ_{w,x} − (p_w − p_v)| < δ.
  // From shift 0.05 on, the echo guard turns every honest estimate of x into
  // ⊥; shifts 0 and 0.02 leave non-⊥ pairs to compare.
  const double shift = GetParam();
  const std::uint32_t f = 2;
  const auto run = run_recording_estimates(f, sim::ClockKind::kSpread,
                                           sim::DelayKind::kRandom, 9, shift);
  const auto& trace = run.result.trace;

  // Per (round, Byzantine dealer): each honest node's non-⊥ estimate.
  std::map<std::pair<Round, NodeId>, std::map<NodeId, double>> grid;
  for (NodeId v = f; v < run.nodes.size(); ++v) {
    for (const auto& rec : run.nodes[v]->estimates()) {
      if (rec.dealer >= f || rec.bot) continue;
      if (rec.round - 1 >= trace.complete_rounds()) continue;
      grid[{rec.round, rec.dealer}][v] = rec.delta;
    }
  }

  for (const auto& [key, per_node] : grid) {
    const std::size_t r = key.first - 1;
    for (auto it_v = per_node.begin(); it_v != per_node.end(); ++it_v) {
      for (auto it_w = std::next(it_v); it_w != per_node.end(); ++it_w) {
        const double p_v = trace.pulse_time(it_v->first, r);
        const double p_w = trace.pulse_time(it_w->first, r);
        EXPECT_LT(std::abs(it_v->second - it_w->second - (p_w - p_v)),
                  run.params.delta)
            << "dealer " << key.second << " round " << key.first << " nodes "
            << it_v->first << "," << it_w->first;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    SplitShifts, CpsTcbConsistency,
    ::testing::Values(0.0, 0.02, 0.05, 0.1, 0.2),
    [](const ::testing::TestParamInfo<double>& info) {
      return "shift" + std::to_string(std::lround(info.param * 100));
    });

TEST(Cps, DealerOffsetKeepsHonestBroadcastsInsideTheWindow) {
  // Figure 2 sends the dealer's signature at L + ϑS. When S > d − u, a dealer
  // sending at L reaches a node pulsing up to S later before that node's
  // pulse, outside its acceptance window: honest dealers then get ⊥ (the
  // t_y ≥ p_y + S step of Lemma 10). With the offset they never do.
  sim::ModelParams model = crusader::testing::small_model(6, 2);
  model.u = 0.3;
  model.u_tilde = 0.3;
  const auto setup = baselines::make_setup(ProtocolKind::kCps, model);
  ASSERT_TRUE(setup.feasible);
  ASSERT_GT(setup.cps.S, model.d - model.u);

  const std::size_t rounds = 30;
  auto honest_bots = [&](double dealer_offset) {
    std::vector<CpsNode*> nodes(model.n, nullptr);
    CpsConfig config;
    config.params = setup.cps;
    config.params.dealer_offset = dealer_offset;
    sim::HonestFactory factory = [&nodes, config](NodeId v) {
      auto node = std::make_unique<CpsNode>(config);
      nodes[v] = node.get();
      return node;
    };
    auto world_config =
        crusader::testing::world_config(model, setup, rounds, /*seed=*/7);
    world_config.delay_kind = sim::DelayKind::kSplit;
    sim::World world(world_config, factory, nullptr);
    const auto result = world.run();
    EXPECT_TRUE(result.trace.live(rounds));
    std::uint64_t bots = 0;
    for (auto* node : nodes) bots += node->stats().bot_estimates;
    return bots;
  };

  EXPECT_EQ(honest_bots(setup.cps.dealer_offset), 0u);
  EXPECT_GT(honest_bots(0.0), 0u);
}

}  // namespace
}  // namespace crusader::core
