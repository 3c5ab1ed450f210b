#pragma once
// The traced layer driver: replays one scenario through the same public
// layer calls runner::run_scenario makes (topology factory, churn schedule,
// D_f analysis, protocol setup + world construction, engine run, metric
// grading, CSV row), timing each call from here. Nothing inside the library
// is instrumented; a span is the wall time of one call into a layer.

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "relay/flood_world.hpp"
#include "runner/runner.hpp"

namespace perfbench {

enum class Layer {
  kTopology,    ///< relay::Topology::<family>
  kSchedule,    ///< relay::TopologySchedule::generate
  kAnalysis,    ///< D_f analysis + effective_from_hops / EffectiveCache::get
  kWorldSetup,  ///< baselines::make_setup + world constructor
  kEngine,      ///< World::run / RelayWorld::run
  kMetrics,     ///< PulseTrace statistics, local_skew_series, kllo_conformance
  kSink,        ///< runner::write_csv_row
};
inline constexpr std::size_t kLayerCount = 7;

[[nodiscard]] const char* layer_name(Layer layer);

/// One call into a layer. `cell` indexes the workload's spec list; the cell
/// is the parent of every span that carries its index.
struct Span {
  Layer layer = Layer::kTopology;
  std::size_t cell = 0;
  double start_s = 0.0;  ///< since the trace began
  double end_s = 0.0;
};

/// Spans and counters of one traced pass over a workload's cells. A layer a
/// cell does not use (a complete world has no overlay) still gets its span,
/// which then measures only the dispatch around the absent call.
class LayerTrace {
 public:
  LayerTrace();

  /// Runs `fn` as one span of `layer` for the current cell.
  template <typename Fn>
  void time(Layer layer, Fn&& fn) {
    const double start = elapsed();
    fn();
    record(layer, start, elapsed());
  }

  void begin_cell(std::size_t cell);
  void end_cell();

  [[nodiscard]] double seconds(Layer layer) const {
    return seconds_[static_cast<std::size_t>(layer)];
  }
  /// Sum over every layer: the traced pass's total.
  [[nodiscard]] double total_seconds() const;
  /// Topology + schedule + analysis + world setup: everything before the
  /// engine starts.
  [[nodiscard]] double setup_seconds() const;
  [[nodiscard]] const std::vector<double>& cell_seconds() const {
    return cell_seconds_;
  }
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  // Counters, recorded at the same boundaries as the spans.
  std::uint64_t topology_edges = 0;    ///< Σ edge_count of built topologies
  std::uint64_t schedule_epochs = 0;   ///< Σ deltas() generated
  std::uint64_t rewired_edges = 0;     ///< Σ removed edges over deltas()
  std::uint64_t analysis_graphs = 0;   ///< graphs whose D_f was walked
  std::uint32_t worst_hops_max = 0;    ///< largest D_f seen
  std::uint64_t relay_cells = 0;
  std::uint64_t exact_cells = 0;       ///< relay cells with d_eff_exact
  std::uint64_t events = 0;
  std::uint64_t messages = 0;
  std::uint64_t sign_ops = 0;
  std::uint64_t verify_ops = 0;
  std::uint64_t signatures_carried = 0;
  std::uint64_t adaptive_cells = 0;
  std::uint64_t candidates = 0;        ///< Σ attack_iters
  std::uint64_t sink_bytes = 0;

 private:
  [[nodiscard]] double elapsed() const;
  void record(Layer layer, double start, double end);

  std::int64_t origin_ns_ = 0;
  std::size_t cell_ = 0;
  double cell_start_ = 0.0;
  std::array<double, kLayerCount> seconds_{};
  std::vector<double> cell_seconds_;
  std::vector<Span> spans_;
};

/// What the traced replay of one cell produced: the row (as
/// runner::run_scenario would report it) and its CSV record.
struct ReplayedCell {
  crusader::runner::ScenarioResult result;
  std::string csv_row;
};

/// Replays `spec` under `base_seed` through the layer calls, recording spans
/// into `trace` (the caller brackets the cell with begin_cell/end_cell).
/// `cache` plays the runner's sweep-scoped analysis memo. With `setup_only`
/// the replay stops once every world of the cell is constructed: the
/// engine, metric and sink layers are skipped and the row is incomplete.
/// Never throws: failures land in result.error like run_scenario's.
[[nodiscard]] ReplayedCell replay_cell(
    const crusader::runner::ScenarioSpec& spec, std::uint64_t base_seed,
    crusader::relay::EffectiveCache& cache, bool setup_only,
    LayerTrace& trace);

/// The replica check: empty when `replayed` reproduces `expected` — the
/// fields events, messages, max_skew, d_eff, worst_hops, d_eff_exact and
/// kllo_ratio bit-for-bit, and the whole CSV record byte-for-byte — else a
/// description of the first difference.
[[nodiscard]] std::string replica_mismatch(
    const crusader::runner::ScenarioResult& expected,
    const std::string& expected_row, const ReplayedCell& replayed);

/// Median wall nanoseconds of one Pki::sign and one Pki::verify, timed from
/// outside the engine on a Pki of the kind and size of the largest cell in
/// `specs`.
struct CryptoCost {
  double sign_ns = 0.0;
  double verify_ns = 0.0;
};
[[nodiscard]] CryptoCost time_crypto(
    const std::vector<crusader::runner::ScenarioSpec>& specs,
    std::uint64_t seed);

}  // namespace perfbench
