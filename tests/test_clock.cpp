#include "sim/hardware_clock.hpp"

#include <cstdint>
#include <gtest/gtest.h>
#include <utility>
#include <vector>

#include "util/check.hpp"
#include "util/rng.hpp"

namespace crusader::sim {
namespace {

TEST(HardwareClock, ConstantRateMapsLinearly) {
  const auto clock = HardwareClock::constant(1.5, 2.0);
  EXPECT_DOUBLE_EQ(clock.local(0.0), 2.0);
  EXPECT_DOUBLE_EQ(clock.local(4.0), 8.0);
  EXPECT_DOUBLE_EQ(clock.real(8.0), 4.0);
  EXPECT_DOUBLE_EQ(clock.rate_at(1.0), 1.5);
}

TEST(HardwareClock, InverseRoundTrips) {
  util::Rng rng(5);
  auto clock = HardwareClock::random_walk(rng, 1.1, 0.3, 2.0, 50.0);
  for (double t = 0.0; t < 60.0; t += 0.37) {
    EXPECT_NEAR(clock.real(clock.local(t)), t, 1e-9) << "t=" << t;
  }
}

TEST(HardwareClock, TwoPhaseRamp) {
  // The Theorem-5 fast clock: rate ϑ until t*, then rate 1 with offset.
  const double vartheta = 1.05;
  const double u_tilde = 0.3;
  const double t_star = 2.0 * u_tilde / (3.0 * (vartheta - 1.0));
  const auto clock = HardwareClock::two_phase(vartheta, t_star, 1.0, 0.0);
  EXPECT_DOUBLE_EQ(clock.local(0.0), 0.0);
  EXPECT_NEAR(clock.local(t_star), t_star + 2.0 * u_tilde / 3.0, 1e-9);
  // Past the ramp: H(t) = t + 2ũ/3.
  EXPECT_NEAR(clock.local(t_star + 5.0), t_star + 5.0 + 2.0 * u_tilde / 3.0,
              1e-9);
}

TEST(HardwareClock, TwoPhaseZeroSwitchDegeneratesToConstant) {
  const auto clock = HardwareClock::two_phase(2.0, 0.0, 1.0, 0.5);
  EXPECT_DOUBLE_EQ(clock.rate_at(0.0), 1.0);
  EXPECT_DOUBLE_EQ(clock.local(3.0), 3.5);
}

TEST(HardwareClock, RandomWalkRespectsRateBounds) {
  util::Rng rng(17);
  const auto clock = HardwareClock::random_walk(rng, 1.2, 0.0, 1.0, 30.0);
  clock.check_valid(1.2);
  EXPECT_GE(clock.min_rate(), 1.0);
  EXPECT_LE(clock.max_rate(), 1.2);
}

TEST(HardwareClock, MonotoneAndDriftBounded) {
  util::Rng rng(23);
  const double vartheta = 1.08;
  const auto clock = HardwareClock::random_walk(rng, vartheta, 0.1, 0.5, 20.0);
  double prev = clock.local(0.0);
  for (double t = 0.01; t < 25.0; t += 0.01) {
    const double cur = clock.local(t);
    EXPECT_GT(cur, prev);
    prev = cur;
  }
  // Global drift bound: t ≤ H(t) − H(0) ≤ ϑ t.
  for (double t : {1.0, 5.0, 19.0, 24.0}) {
    const double elapsed = clock.local(t) - clock.local(0.0);
    EXPECT_GE(elapsed, t - 1e-9);
    EXPECT_LE(elapsed, vartheta * t + 1e-9);
  }
}

TEST(HardwareClock, SegmentBoundariesExact) {
  std::vector<ClockSegment> segs;
  segs.push_back({0.0, 0.0, 1.0});
  segs.push_back({2.0, 2.0, 1.1});
  const HardwareClock clock(std::move(segs));
  EXPECT_DOUBLE_EQ(clock.local(2.0), 2.0);
  EXPECT_DOUBLE_EQ(clock.local(3.0), 2.0 + 1.1);
  EXPECT_NEAR(clock.real(2.0 + 1.1), 3.0, 1e-12);
  EXPECT_DOUBLE_EQ(clock.rate_at(1.999), 1.0);
  EXPECT_DOUBLE_EQ(clock.rate_at(2.0), 1.1);
}

TEST(HardwareClock, RejectsDiscontinuousSegments) {
  std::vector<ClockSegment> segs;
  segs.push_back({0.0, 0.0, 1.0});
  segs.push_back({1.0, 5.0, 1.0});  // jump
  EXPECT_THROW(HardwareClock{std::move(segs)}, util::CheckFailure);
}

TEST(HardwareClock, RejectsNonPositiveRate) {
  std::vector<ClockSegment> segs;
  segs.push_back({0.0, 0.0, 0.0});
  EXPECT_THROW(HardwareClock{std::move(segs)}, util::CheckFailure);
}

TEST(HardwareClock, RejectsWrongStart) {
  std::vector<ClockSegment> segs;
  segs.push_back({1.0, 0.0, 1.0});
  EXPECT_THROW(HardwareClock{std::move(segs)}, util::CheckFailure);
}

TEST(HardwareClock, CheckValidFlagsOutOfRangeRate) {
  const auto clock = HardwareClock::constant(1.5, 0.0);
  EXPECT_THROW(clock.check_valid(1.2), util::CheckFailure);
  clock.check_valid(1.5);  // no throw
}

TEST(HardwareClock, RealBeforeOffsetRejected) {
  const auto clock = HardwareClock::constant(1.0, 2.0);
  EXPECT_THROW((void)clock.real(1.0), util::CheckFailure);
}

TEST(HardwareClock, TimerTimeClampsLocalTimesBeforeOffsetToZero) {
  const auto clock = HardwareClock::constant(2.0, 1.0);
  EXPECT_DOUBLE_EQ(clock.timer_time(0.5), 0.0);
  EXPECT_DOUBLE_EQ(clock.timer_time(1.0), 0.0);
  EXPECT_DOUBLE_EQ(clock.timer_time(5.0), 2.0);
}

TEST(MakeClocks, EveryKindRespectsModel) {
  // Rates in [1, ϑ] and offsets in [0, S] (Section 2) for every clock kind
  // make_clocks synthesizes — the assignment sim::World and RelayWorld share.
  const std::uint32_t n = 7;
  const double vartheta = 1.05;
  const double s0 = 0.3;
  const util::Rng rng(11);
  for (const ClockKind kind : {ClockKind::kNominal, ClockKind::kSpread,
                               ClockKind::kRandomWalk}) {
    const auto clocks = make_clocks(kind, n, vartheta, s0, rng, 40.0);
    ASSERT_EQ(clocks.size(), n) << to_string(kind);
    for (const HardwareClock& clock : clocks) {
      EXPECT_GE(clock.min_rate(), 1.0) << to_string(kind);
      EXPECT_LE(clock.max_rate(), vartheta) << to_string(kind);
      EXPECT_GE(clock.offset(), 0.0) << to_string(kind);
      EXPECT_LE(clock.offset(), s0) << to_string(kind);
    }
  }
  // The spread assignment realizes both extremes.
  const auto spread = make_clocks(ClockKind::kSpread, n, vartheta, s0, rng, 40.0);
  EXPECT_DOUBLE_EQ(spread[0].max_rate(), 1.0);
  EXPECT_DOUBLE_EQ(spread[1].min_rate(), vartheta);
  EXPECT_DOUBLE_EQ(spread[1].offset(), s0);
}

TEST(MakeClocks, CustomNeedsAFullClockVector) {
  const util::Rng rng(1);
  std::vector<HardwareClock> custom{HardwareClock::constant(1.0, 0.0),
                                    HardwareClock::constant(1.02, 0.1)};
  const auto clocks =
      make_clocks(ClockKind::kCustom, 2, 1.05, 0.1, rng, 10.0, &custom);
  EXPECT_DOUBLE_EQ(clocks[1].offset(), 0.1);
  EXPECT_THROW((void)make_clocks(ClockKind::kCustom, 3, 1.05, 0.1, rng, 10.0,
                                 &custom),
               util::CheckFailure);
  EXPECT_THROW((void)make_clocks(ClockKind::kCustom, 2, 1.05, 0.1, rng, 10.0),
               util::CheckFailure);
  // Out-of-model custom clocks are rejected: a rate above ϑ, and an offset
  // above S.
  EXPECT_THROW((void)make_clocks(ClockKind::kCustom, 2, 1.01, 0.1, rng, 10.0,
                                 &custom),
               util::CheckFailure);
  EXPECT_THROW((void)make_clocks(ClockKind::kCustom, 2, 1.05, 0.05, rng, 10.0,
                                 &custom),
               util::CheckFailure);
}

}  // namespace
}  // namespace crusader::sim
