// Golden-trace regression tests: pulse behaviour for pinned seeds must stay
// bit-identical across refactors (the simulator is deterministic by design).
// If an intentional behaviour change lands, re-record the constants below
// and say why in the commit.

#include <gtest/gtest.h>

#include "helpers.hpp"
#include "lowerbound/theorem5.hpp"

namespace crusader {
namespace {

using baselines::ProtocolKind;

TEST(Regression, CpsParamsGolden) {
  // Solver outputs for the canonical model (d=1, u=0.05, vt=1.01, n=5).
  const auto params =
      core::derive_cps_params(testing::small_model(5, 2));
  EXPECT_NEAR(params.S, 0.31642713210921319, 1e-12);
  EXPECT_NEAR(params.T, 2.8688058530041265, 1e-12);
  EXPECT_NEAR(params.delta, 0.12543467829805807, 1e-12);
  EXPECT_NEAR(params.p_min, 2.2106805123411961, 1e-12);
  EXPECT_NEAR(params.p_max, 3.8180872493317661, 1e-12);
}

TEST(Regression, LwAndStParamsGolden) {
  const auto lw = core::derive_lw_params(testing::small_model(5, 2));
  EXPECT_NEAR(lw.S, 0.18502432044461145, 1e-12);
  const auto st = core::derive_st_params(testing::small_model(5, 2));
  EXPECT_NEAR(st.T, 4.04, 1e-12);
}

TEST(Regression, Theorem5Golden) {
  sim::ModelParams model;
  model.n = 3;
  model.f = 1;
  model.d = 1.0;
  model.u = 0.05;
  model.u_tilde = 0.3;
  model.vartheta = 1.05;
  const auto report =
      lowerbound::run_theorem5(ProtocolKind::kCps, model, 25);
  EXPECT_NEAR(report.bound, 0.2, 1e-12);
  EXPECT_NEAR(report.max_skew, 0.2, 1e-6);
  EXPECT_NEAR(report.telescoped_sum, 0.6, 1e-6);
}

TEST(Regression, FeasibilityThresholdGolden) {
  EXPECT_NEAR(core::ParamSolver::max_vartheta(1.0, 0.05), 1.06936641, 1e-6);
}

TEST(Regression, CpsPulseTraceGolden) {
  // First/late pulse times of a pinned adversarial run. These encode the
  // end-to-end determinism of engine + network + crypto + protocol.
  const auto model = testing::small_model(5, 2);
  const auto result = testing::run_protocol(
      ProtocolKind::kCps, model, 2, core::ByzStrategy::kSplit, /*seed=*/42,
      /*rounds=*/10, sim::ClockKind::kSpread, sim::DelayKind::kRandom,
      /*late_shift=*/0.0, /*split_shift=*/0.1);
  ASSERT_GE(result.trace.complete_rounds(), 10u);
  // Honest nodes are 2, 3, 4.
  EXPECT_NEAR(result.trace.pulse_time(2, 0), 0.31642713210921319, 1e-9);
  EXPECT_NEAR(result.trace.pulse_time(3, 0), 0.0, 1e-9);
  const double p_2_9 = result.trace.pulse_time(2, 9);
  const double p_4_9 = result.trace.pulse_time(4, 9);
  // Re-run must reproduce exactly.
  const auto again = testing::run_protocol(
      ProtocolKind::kCps, model, 2, core::ByzStrategy::kSplit, 42, 10,
      sim::ClockKind::kSpread, sim::DelayKind::kRandom, 0.0, 0.1);
  EXPECT_DOUBLE_EQ(again.trace.pulse_time(2, 9), p_2_9);
  EXPECT_DOUBLE_EQ(again.trace.pulse_time(4, 9), p_4_9);
}

TEST(Regression, SignedPayloadBytesArePinned) {
  // Pins the signed context bytes of every payload builder and the payload
  // digest (FNV-1a + mix64): signatures, knowledge tracking and dedup all
  // key on them.
  EXPECT_EQ(crypto::make_pulse_payload(1).hash(),
            crypto::make_pulse_payload(1).hash());
  EXPECT_EQ(crypto::make_pulse_payload(1).hash(), 0x024f26d6758ef8adULL);
  EXPECT_EQ(crypto::make_pulse_payload(7).context, "tcb-pulse|r=7");
  EXPECT_EQ(crypto::make_ready_payload(3).context, "st-ready|r=3");
  EXPECT_EQ(crypto::make_value_payload(2, 3, -1.25).context,
            "cb-value|r=2|dealer=3|v=-0x1.4p+0");
}

TEST(Regression, LargeScaleStress) {
  // n = 15 at full resilience f = 7 with the random adversary: the largest
  // configuration the unit suite exercises (benches go bigger). Guards
  // against accidental O(n!) blowups and event-queue pathologies.
  const auto model = testing::small_model(15, 7);
  const auto setup = baselines::make_setup(ProtocolKind::kCps, model);
  const auto result = testing::run_protocol(
      ProtocolKind::kCps, model, 7, core::ByzStrategy::kRandom, 13, 10);
  ASSERT_TRUE(result.trace.live(10));
  EXPECT_LE(result.trace.max_skew(), setup.cps.S + 1e-9);
  EXPECT_TRUE(result.violations.empty());
}

}  // namespace
}  // namespace crusader
