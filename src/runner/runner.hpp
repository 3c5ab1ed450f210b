#pragma once
// Scenario-sweep runner: executes a list of ScenarioSpecs on a worker-thread
// pool and aggregates per-scenario metrics. Results are deterministic in the
// spec list and base seed — each scenario derives its own RNG stream via
// Rng::fork keyed by the spec digest, and results land in spec order — so a
// sweep's CSV is byte-identical whether it ran on 1 thread or N.

#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "runner/metrics.hpp"
#include "runner/scenario.hpp"
#include "sim/trace.hpp"
#include "util/stats.hpp"

namespace crusader::relay {
class EffectiveCache;
}  // namespace crusader::relay

namespace crusader::runner {

struct RunnerOptions {
  /// Root of the sweep's seed tree; scenario seeds are
  /// Rng(base_seed).fork(spec.key()).
  std::uint64_t base_seed = 1;
  /// Worker threads; 0 = std::thread::hardware_concurrency().
  unsigned threads = 1;
  /// Absolute tolerance when checking measured skew against the theoretical
  /// bound (floating-point headroom, not a semantic slack).
  double bound_tolerance = 1e-9;
  /// Per-scenario wall-clock budget in milliseconds; 0 = unlimited. A
  /// scenario that exhausts it is aborted mid-run and reported with
  /// timed_out = true (metrics NaN) instead of hanging the sweep.
  double budget_ms = 0.0;
  /// Memoize the relay worlds' topology analysis (connectivity + worst-case
  /// hop distance) across the sweep — cells sharing (topology family, n, f,
  /// faulty set, topology seed) reuse one BFS walk, which is the ~4× setup
  /// cut on relay-fault axes. Off = recompute per scenario (bench baseline).
  bool relay_cache = true;
  /// Externally-owned cache (share across sweeps, inspect hit counts);
  /// overrides relay_cache when set. Not owned.
  relay::EffectiveCache* shared_relay_cache = nullptr;
  /// Engine fast path: batched broadcast/flood delivery through the message
  /// arena (WorldConfig::batch / RelayConfig::batch). Results are identical
  /// on or off — the toggle exists for the differential tests and the bench
  /// baseline, so it is an option, not a ScenarioSpec axis (no key/CSV
  /// impact).
  bool fast_path = true;
};

struct SweepReport {
  std::vector<ScenarioResult> results;  ///< same order as the input specs
};

/// Derive the world seed for `spec` under `base_seed` (exposed for tests and
/// for reproducing a single scenario out of a sweep).
[[nodiscard]] std::uint64_t scenario_seed(const ScenarioSpec& spec,
                                          std::uint64_t base_seed) noexcept;

/// Run one scenario to completion. Never throws: failures are reported in
/// ScenarioResult::error.
[[nodiscard]] ScenarioResult run_scenario(const ScenarioSpec& spec,
                                          const RunnerOptions& options = {});

/// Streaming result consumer: invoked exactly once per spec, in spec order,
/// never concurrently (calls are serialized under the runner's flush lock).
using ResultSink = std::function<void(const ScenarioResult&)>;

/// Run every spec, farming scenarios out to `options.threads` workers, and
/// stream each result through `sink` in spec order as soon as it (and every
/// earlier spec) has completed. Memory stays O(threads): out-of-order
/// completions wait in a bounded reorder window and workers block when it
/// fills, so a 10k-scenario campaign never accumulates its report. A sink
/// exception aborts the sweep (no further scenarios start) and is rethrown
/// on the calling thread.
void run_sweep_streamed(const std::vector<ScenarioSpec>& specs,
                        const RunnerOptions& options, const ResultSink& sink);

/// Run every spec and accumulate the full report (run_sweep_streamed with an
/// accumulating sink — fine for grids that fit in memory).
[[nodiscard]] SweepReport run_sweep(const std::vector<ScenarioSpec>& specs,
                                    const RunnerOptions& options = {});

/// Per-round local skew: for each complete round r, the worst |p_i(r) −
/// p_j(r)| over edges of the round-r graph (schedule.at_epoch(r), down
/// nodes and metrics-excluded nodes skipped). Static topologies pass a
/// degenerate schedule. Exposed for the dynamic-world tests, which assert
/// the series exists for every complete round and never exceeds the global
/// per-round skew.
[[nodiscard]] std::vector<double> local_skew_series(
    const sim::PulseTrace& trace, const relay::TopologySchedule& schedule);

/// Regression-gate predicate for one row: errored and timed-out scenarios
/// always violate (a green gate means every cell actually ran); infeasible
/// rows never do (the protocol provably cannot run there); dynamic cells
/// violate by failing liveness (Theorem 17's premises lapse mid-churn, so
/// the ratio is diagnostic, not a gate — use SweepSummary's local gate for
/// that); completed static rows violate when their realized-vs-bound ratio
/// is out of spec — skew_ratio > max_ratio for upper-bound worlds, bound
/// not realized (within_bound == false) for kTheorem5.
[[nodiscard]] bool violates_gate(const ScenarioResult& result,
                                 double max_ratio);

/// Counters and ratio statistics over one slice of a sweep's rows.
struct SliceStats {
  std::size_t scenarios = 0;
  std::size_t errors = 0;
  std::size_t timed_out = 0;
  std::size_t infeasible = 0;
  /// Completed rows whose within_bound check failed.
  std::size_t bound_misses = 0;
  /// Over rows with a finite skew_ratio (completed, bound defined).
  util::OnlineStats ratio;
  /// One accumulator per kHistorySeries entry: the series' member over the
  /// in-scope rows where it is finite.
  std::array<util::OnlineStats, kHistorySeries.size()> series;
  /// Over completed rows (steady_skew where finite).
  util::OnlineStats steady_skew;
  util::OnlineStats messages;

  void add(const ScenarioResult& result);
};

/// Streaming cross-scenario aggregate for the gates, the history file, the
/// trend check and the summary tables, accumulable one result at a time so
/// large campaigns never retain rows. The base SliceStats covers every row.
struct SweepSummary : SliceStats {
  /// A metric-table gate armed at `ratio`, and the rows that tripped it.
  struct ArmedGate {
    const Column* column = nullptr;
    double ratio = 0.0;
    std::size_t violations = 0;
  };
  /// In column order; re-arming a gate replaces its ratio.
  std::vector<ArmedGate> gates;
  void arm_gate(const Column& column, double ratio);

  /// Relay rows that ran (no error or timeout), those whose D_f is a
  /// sampled lower bound (d_eff_exact == false), and the churned flooding
  /// rows with a fault budget f > 0, whose D_f covers the realized epoch
  /// graphs only, not every fault set of size f.
  std::size_t relay_cells = 0;
  std::size_t sampled_df_cells = 0;
  std::size_t realized_df_cells = 0;

  /// Per-protocol slices of every row, in first-appearance order.
  std::vector<std::pair<baselines::ProtocolKind, SliceStats>> protocols;
  /// Per-world slices of the feasible, error-free rows, in the order such a
  /// row first appears (the history line's world order).
  std::vector<std::pair<WorldKind, SliceStats>> worlds;

  void add(const ScenarioResult& result);
};

}  // namespace crusader::runner
