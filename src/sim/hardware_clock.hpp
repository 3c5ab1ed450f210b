#pragma once
// Hardware clocks H_v : real time -> local time (Section 2 of the paper).
//
// Piecewise-linear, strictly increasing (all rates >= 1 > 0), hence exactly
// invertible. The adversary chooses the trajectory subject to rates in
// [1, vartheta]; builders below cover the assignments used by tests, benches
// and the lower-bound construction.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/rng.hpp"

namespace crusader::sim {

/// One linear segment: for t >= t0 (until the next segment's t0),
/// H(t) = h0 + rate * (t - t0).
struct ClockSegment {
  double t0 = 0.0;
  double h0 = 0.0;
  double rate = 1.0;
};

class HardwareClock {
 public:
  /// Identity-rate clock starting at local offset `offset`.
  [[nodiscard]] static HardwareClock constant(double rate, double offset);

  /// Rate `rate_a` until real time `t_switch`, then `rate_b`. The two-phase
  /// ramp used by the Theorem 5 construction is two_phase(ϑ, t*, 1, 0).
  [[nodiscard]] static HardwareClock two_phase(double rate_a, double t_switch,
                                               double rate_b, double offset);

  /// Random-walk clock: rate re-drawn uniformly from [1, vartheta] every
  /// `segment_len` real-time units, up to `horizon` (constant afterwards).
  [[nodiscard]] static HardwareClock random_walk(util::Rng& rng, double vartheta,
                                                 double offset, double segment_len,
                                                 double horizon);

  /// Construct from explicit segments (must be contiguous and increasing).
  explicit HardwareClock(std::vector<ClockSegment> segments);

  /// H_v(t).
  [[nodiscard]] double local(double t) const;
  /// H_v^{-1}(h): the unique real time at which the local clock reads h.
  /// Requires h >= H_v(0).
  [[nodiscard]] double real(double h) const;

  [[nodiscard]] double rate_at(double t) const;
  [[nodiscard]] double min_rate() const;
  [[nodiscard]] double max_rate() const;
  [[nodiscard]] double offset() const { return segments_.front().h0; }

  /// Real time at which a timer set for local time `local_time` fires:
  /// H_v^{-1}(local_time), or 0 when that local time is at or before H_v(0).
  /// Engine::at clamps a past time to now.
  [[nodiscard]] double timer_time(double local_time) const;

  /// Validates the model constraints: rates in [1, vartheta].
  void check_valid(double vartheta) const;

  [[nodiscard]] const std::vector<ClockSegment>& segments() const {
    return segments_;
  }

 private:
  // Index of the segment containing real time t (last segment extends to
  // +infinity).
  [[nodiscard]] std::size_t segment_for_real(double t) const;
  [[nodiscard]] std::size_t segment_for_local(double h) const;

  std::vector<ClockSegment> segments_;
};

/// Hardware-clock assignment strategies (the adversary's clock choice).
enum class ClockKind {
  kNominal,     // all rates 1, offsets spread evenly in [0, S0]
  kSpread,      // alternating rates 1 / vartheta, extremal offsets — maximum
                // sustained drift divergence
  kRandomWalk,  // per-node random rate walk within [1, vartheta]
  kCustom,      // WorldConfig::custom_clocks; only sim::World supports it
};

[[nodiscard]] const char* to_string(ClockKind kind);

/// Segment length of ClockKind::kRandomWalk clocks.
inline constexpr double kRandomWalkSegment = 5.0;

/// The clock assignment every world shares: n clocks of `kind`, checked to
/// have rates in [1, vartheta] and offsets in [0, initial_offset]. Node v's
/// random walk draws from rng.fork(0xc10c000 + v) and runs to `walk_end`.
/// kCustom copies `*custom`, which must hold n clocks; a null `custom` means
/// the world has no custom clocks, and kCustom is rejected.
[[nodiscard]] std::vector<HardwareClock> make_clocks(
    ClockKind kind, std::uint32_t n, double vartheta, double initial_offset,
    const util::Rng& rng, double walk_end,
    const std::vector<HardwareClock>* custom = nullptr);

}  // namespace crusader::sim
