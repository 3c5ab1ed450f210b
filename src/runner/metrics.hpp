#pragma once
// The metric table: what one scenario measures (ScenarioResult) and one
// descriptor per exported column of it. CSV/JSON export, campaign replay,
// the streaming SweepSummary, the threshold gates (and their CLI flags) and
// the history-line tokens all iterate these lists, so a new metric costs
// one row in metrics.cpp plus its computation in runner.cpp.

#include <array>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <optional>
#include <span>
#include <string>
#include <string_view>

#include "runner/scenario.hpp"

namespace crusader::runner {

/// A metric's value when it does not apply or was never measured.
inline constexpr double kNan = std::numeric_limits<double>::quiet_NaN();

/// Everything measured for one scenario. Doubles start (and stay) NaN when
/// the scenario was infeasible, errored, or produced no complete rounds.
struct ScenarioResult {
  ScenarioSpec spec;
  std::uint64_t seed = 0;  ///< derived world seed (recorded for replay)
  bool feasible = false;
  bool live = false;  ///< every honest node completed `rounds` pulses
  std::size_t rounds_completed = 0;
  double max_skew = kNan;     ///< over all complete rounds
  double steady_skew = kNan;  ///< over rounds >= warmup
  double skew_p50 = kNan;
  double skew_p99 = kNan;
  double min_period = kNan;
  double max_period = kNan;
  /// The world's applicable theoretical bound: the protocol's skew upper
  /// bound (S, S_lw, or d-scale) for kComplete, the same bound computed from
  /// the effective (d_eff, u_eff) for kRelay, and the 2ũ/3 skew LOWER bound
  /// for kTheorem5.
  double predicted_skew = kNan;
  /// max_skew / predicted_skew. For upper-bound worlds ≤ 1 means conformant;
  /// for kTheorem5 ≥ 1 means the construction realized the bound.
  double skew_ratio = kNan;
  /// Gradient (KLLO-style) metric: max over rounds of the round's worst
  /// |p_i − p_j| over *currently live* edges of that round's graph. For
  /// kComplete/kTheorem5 every pair is an edge, so it equals max_skew; for
  /// kRelay it is at most max_skew and the correctness lens for dynamic
  /// cells, where the global bound's premises lapse mid-churn.
  double local_skew = kNan;
  /// local_skew / predicted_skew (same denominator as skew_ratio).
  double local_skew_ratio = kNan;
  /// KLLO per-edge-age envelope conformance (runner/kllo.hpp), kRelay only
  /// (NaN elsewhere): the worst, over complete rounds and live measured
  /// edges, of |p_v − p_w| divided by the envelope at that edge's current
  /// age. ≤ 1 means every edge sat inside the envelope — including fresh
  /// edges graded against the wide settling allowance — which is the
  /// transient-vs-violation distinction a flat local ratio cannot make.
  double kllo_ratio = kNan;
  /// Round-edge pairs whose envelope ratio exceeded 1 (kRelay, else 0).
  std::size_t kllo_violations = 0;
  /// Minimum age (rounds since appearance) over the live measured edges of
  /// the last complete round — the youngest edge the verdict rests on. For a
  /// static relay cell this is simply rounds − 1; NaN outside kRelay.
  double edge_age_min = kNan;
  /// Effective complete-graph model the relay overlay presented to the
  /// protocol (NaN for other worlds).
  double d_eff = kNan;
  double u_eff = kNan;
  std::uint32_t worst_hops = 0;  ///< relay D_f (0 elsewhere)
  /// Relay only: whether worst_hops came from the exhaustive walk (true) or
  /// the budget-bounded sample (false) — the CSV column history analytics
  /// use to segment sampled cells.
  bool d_eff_exact = false;
  /// kComplete/kRelay: max_skew <= predicted_skew (+tolerance).
  /// kTheorem5: the realized skew reached the lower bound (bound_holds).
  /// Only meaningful within the protocol's resilience; recorded regardless.
  bool within_bound = false;
  /// Adaptive relay adversaries only (relay::adaptive(spec.relay_fault) and
  /// f_actual > 0; 0/null elsewhere): how many candidate attack schedules
  /// the cell ran (1 for greedy-skew, spec.search_budget for search) and the
  /// winning candidate's attack seed (0 = the greedy baseline candidate).
  /// Replaying the cell with RelayConfig::attack_seed = attack_best_seed
  /// reproduces the winning skew_ratio bit-for-bit.
  std::uint32_t attack_iters = 0;
  std::uint64_t attack_best_seed = 0;
  std::uint64_t messages = 0;
  std::uint64_t events = 0;
  std::uint64_t sign_ops = 0;
  std::uint64_t verify_ops = 0;
  std::uint64_t signatures_carried = 0;
  std::size_t violations = 0;
  /// The scenario exhausted RunnerOptions::budget_ms and was aborted
  /// mid-run; metrics are NaN and error stays empty (a budget abort is a
  /// scheduling outcome, not a world failure) but the gate counts it.
  bool timed_out = false;
  /// Non-empty when the world threw (the sweep keeps going).
  std::string error;
};

/// The rows a column (or history series) is defined on.
enum class Scope : std::uint8_t {
  kAll,
  kComplete,  ///< complete-graph world
  kRelay,     ///< relay world
  kDynamic,   ///< churned relay cells (ScenarioSpec::dynamic())
  kAdaptive,  ///< relay, f_actual > 0, adaptive relay fault kind
};

[[nodiscard]] bool in_scope(Scope scope, const ScenarioSpec& spec) noexcept;

/// How a column's cell renders.
enum class Format : std::uint8_t {
  /// A string (JSON-quoted); "-" outside the column's scope.
  kText,
  /// A bare number: integer, 0/1 flag, or shortest round-trip double. NaN
  /// and out-of-scope cells are empty in CSV and null in JSON, so a
  /// consumer never mistakes "not applicable" for zero.
  kNumber,
};

/// Floating-point headroom every threshold gate grants: a protocol that
/// realizes its bound exactly (the flood probe's skew is exactly u under
/// split delays) must not trip a gate of 1.0 on the last ulp of a division.
inline constexpr double kGateHeadroom = 1e-9;

/// One exported column.
struct Column {
  std::string_view name;
  Format format = Format::kNumber;
  Scope scope = Scope::kAll;
  /// The in-scope cell text; empty for a NaN number.
  std::string (*text)(const ScenarioResult& result) = nullptr;
  /// Set on the columns campaign resume replays: parses a recorded cell
  /// back into the ScenarioResult member (empty/malformed numbers read as
  /// NaN or 0).
  void (*replay)(std::string_view cell, ScenarioResult& result) = nullptr;
  /// Optional threshold gate: `--<gate>=RATIO` (or the flag spelled with
  /// '_') fails the sweep when `trips` holds for any row.
  std::string_view gate;
  bool (*trips)(const ScenarioResult& result, double ratio) = nullptr;
};

/// Every exported column, in CSV order. The order (and every name) is the
/// file schema campaign resume verifies.
[[nodiscard]] std::span<const Column> columns();

/// The column whose gate answers to `--<flag>`, '-' and '_' interchangeable;
/// nullptr when none does.
[[nodiscard]] const Column* gate_column(std::string_view flag);

/// An optional max/mean/count triple per world on the history line: the
/// member's finite values over a world's in-scope rows. Only rows some
/// grids lack feed a series, so a grid without them writes no tokens and
/// keeps the bytes its history had before the series existed.
struct HistorySeries {
  std::string_view prefix;  ///< tokens <prefix>max, <prefix>mean, <prefix>count
  double ScenarioResult::*member;
  Scope scope;
  std::string_view label;  ///< names the metric in trend-gate failures
};

/// In history-token order (not CSV order: the tokens predate the table).
inline constexpr std::array<HistorySeries, 3> kHistorySeries = {{
    {"l", &ScenarioResult::local_skew_ratio, Scope::kDynamic,
     "local_skew_ratio"},
    {"k", &ScenarioResult::kllo_ratio, Scope::kDynamic, "kllo_ratio"},
    {"a", &ScenarioResult::skew_ratio, Scope::kAdaptive,
     "adaptive skew_ratio"},
}};

/// Index into kHistorySeries of the series with token prefix `prefix`.
[[nodiscard]] std::optional<std::size_t> history_series_index(
    std::string_view prefix) noexcept;

}  // namespace crusader::runner
