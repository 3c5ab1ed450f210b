// perfbench: the repository benchmark driver.
//
//   perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//             [--spans FILE]
//
// Both modes start with one untimed warm-up pass. --trace 0 then measures
// the end-to-end metrics with tracing off: repeated untraced passes of the
// workload through runner::run_scenario / runner::run_sweep_streamed, each
// followed by set-up passes that replay every cell only up to its worlds'
// construction, reported as medians over the passes. --trace 1 measures the
// per-layer metrics: untraced passes for reference, then the traced layer
// replica (layers.hpp) over every cell, whose rows must match the runner's.
// Either way the last stdout line is one JSON object:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
// where attempted/failed count cells and a cell fails when it errors, times
// out, violates runner::violates_gate at ratio 1.0, or (dynamic cells)
// exceeds the KLLO envelope.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "layers.hpp"
#include "runner/export.hpp"
#include "runner/runner.hpp"
#include "util/stats.hpp"
#include "workloads.hpp"

namespace {

using namespace crusader;
using perfbench::Layer;
using perfbench::LayerTrace;
using perfbench::Workload;
using runner::ScenarioResult;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string spans_path;
};

std::optional<Args> parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string_view flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      const auto seed = runner::parse_u64_strict(value);
      if (!seed) return std::nullopt;
      args.seed = *seed;
    } else if (flag == "--seconds") {
      const auto seconds = runner::parse_double_strict(value);
      if (!seconds || *seconds <= 0.0) return std::nullopt;
      args.seconds = *seconds;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return std::nullopt;
      args.trace = value == "1";
    } else if (flag == "--spans") {
      args.spans_path = value;
    } else {
      return std::nullopt;
    }
  }
  if (argc % 2 == 0 || args.workload.empty()) return std::nullopt;
  return args;
}

/// FNV-1a over the workload's CSV rows in spec order.
std::uint64_t csv_digest(const std::vector<std::string>& rows) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const auto& row : rows)
    for (const char c : row) {
      h ^= static_cast<unsigned char>(c);
      h *= 0x100000001b3ULL;
    }
  return h;
}

bool cell_failed(const ScenarioResult& r) {
  return runner::violates_gate(r, 1.0) ||
         (r.spec.dynamic() && std::isfinite(r.kllo_ratio) &&
          r.kllo_ratio > 1.0 + 1e-9);
}

/// One untraced pass: the workload exactly as a user runs it, CSV sink
/// included.
struct UntracedPass {
  double wall_s = 0.0;
  std::vector<ScenarioResult> rows;
  std::vector<std::string> csv;
  std::size_t cache_hits = 0;
  std::size_t cache_misses = 0;
  std::size_t failed = 0;
  double pulses = 0.0;     ///< Σ (n − f_actual) · rounds_completed
  std::size_t relay_cells = 0;
  std::size_t exact_cells = 0;
};

UntracedPass run_untraced(const Workload& workload, std::uint64_t seed,
                          unsigned threads) {
  UntracedPass pass;
  relay::EffectiveCache cache;
  runner::RunnerOptions options;
  options.base_seed = seed;
  options.threads = threads;
  options.shared_relay_cache = &cache;
  auto sink = [&](const ScenarioResult& result) {
    std::ostringstream os;
    runner::write_csv_row(os, result);
    pass.csv.push_back(os.str());
    pass.rows.push_back(result);
  };
  const auto start = Clock::now();
  if (workload.specs.size() > 1) {
    runner::run_sweep_streamed(workload.specs, options, sink);
  } else {
    for (const auto& spec : workload.specs)
      sink(runner::run_scenario(spec, options));
  }
  pass.wall_s = seconds_since(start);
  pass.cache_hits = cache.hits();
  pass.cache_misses = cache.misses();
  for (const auto& r : pass.rows) {
    if (cell_failed(r)) ++pass.failed;
    pass.pulses += static_cast<double>(r.spec.n - r.spec.f_actual) *
                   static_cast<double>(r.rounds_completed);
    if (r.spec.world == runner::WorldKind::kRelay) {
      ++pass.relay_cells;
      if (r.d_eff_exact) ++pass.exact_cells;
    }
  }
  return pass;
}

/// Output checks accumulated over every untraced pass of a run.
struct Checks {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::optional<std::uint64_t> digest;
  bool digest_stable = true;
  std::string mismatch;  ///< first replica difference, empty when none

  void add(const UntracedPass& pass) {
    attempted += pass.rows.size();
    failed += pass.failed;
    const std::uint64_t d = csv_digest(pass.csv);
    if (!digest) digest = d;
    digest_stable = digest_stable && *digest == d;
  }
  void note(std::string why) {
    if (mismatch.empty()) mismatch = std::move(why);
  }
  [[nodiscard]] bool correct() const {
    return failed == 0 && digest_stable && mismatch.empty();
  }
};

/// Seconds to set the workload up: every cell replayed through topology,
/// schedule, analysis and world construction, with a fresh analysis memo as
/// a sweep would have. Checks the pre-engine columns against `reference`.
double run_setup(const Workload& workload, std::uint64_t seed,
                 const UntracedPass& reference, Checks& checks) {
  LayerTrace trace;
  relay::EffectiveCache cache;
  for (std::size_t i = 0; i < workload.specs.size(); ++i) {
    trace.begin_cell(i);
    const auto replayed = perfbench::replay_cell(workload.specs[i], seed,
                                                 cache, true, trace);
    trace.end_cell();
    const ScenarioResult& want = reference.rows[i];
    const ScenarioResult& got = replayed.result;
    if (got.worst_hops != want.worst_hops ||
        got.d_eff_exact != want.d_eff_exact || got.feasible != want.feasible ||
        got.error != want.error)
      checks.note(want.spec.name() + ": set-up replay differs from the runner");
  }
  return trace.setup_seconds();
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

struct Metric {
  double value = 0.0;
  const char* unit = "";
};
using Metrics = std::vector<std::pair<std::string, Metric>>;

double median_of(const std::vector<double>& xs) {
  util::Samples s;
  s.add_all(xs);
  return s.median();
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Per-layer metrics of one traced pass against its untraced references.
Metrics layer_metrics(const Workload& workload, const LayerTrace& t,
                      const UntracedPass& untraced, double serial_wall_s,
                      const perfbench::CryptoCost& crypto) {
  const auto s = [&](Layer layer) { return t.seconds(layer); };
  const auto n = [](std::uint64_t v) { return static_cast<double>(v); };
  double cells_s = 0.0;
  for (const double c : t.cell_seconds()) cells_s += c;
  const double lookups = n(untraced.cache_hits + untraced.cache_misses);
  const double est_s =
      (n(t.sign_ops) * crypto.sign_ns + n(t.verify_ops) * crypto.verify_ns) *
      1e-9;
  return {
      {"relay.topology.s", {s(Layer::kTopology), "s"}},
      {"relay.topology.edges", {n(t.topology_edges), "count"}},
      {"relay.schedule.s", {s(Layer::kSchedule), "s"}},
      {"relay.schedule.epochs", {n(t.schedule_epochs), "count"}},
      {"relay.schedule.rewired_edges", {n(t.rewired_edges), "count"}},
      {"relay.schedule.rewires_per_s",
       {ratio(n(t.rewired_edges), s(Layer::kSchedule)), "1/s"}},
      {"relay.analysis.s", {s(Layer::kAnalysis), "s"}},
      {"relay.analysis.graphs", {n(t.analysis_graphs), "count"}},
      {"relay.analysis.worst_hops", {n(t.worst_hops_max), "hops"}},
      {"relay.analysis.cache_hits", {n(untraced.cache_hits), "count"}},
      {"relay.analysis.cache_misses", {n(untraced.cache_misses), "count"}},
      {"relay.analysis.cache_hit_ratio",
       {ratio(n(untraced.cache_hits), lookups), "ratio"}},
      {"relay.analysis.exact_df_frac",
       {ratio(n(t.exact_cells), n(t.relay_cells)), "ratio"}},
      {"sim.world_setup.s", {s(Layer::kWorldSetup), "s"}},
      {"sim.engine.s", {s(Layer::kEngine), "s"}},
      {"sim.engine.events", {n(t.events), "count"}},
      {"sim.engine.messages", {n(t.messages), "count"}},
      {"sim.engine.events_per_s",
       {ratio(n(t.events), s(Layer::kEngine)), "1/s"}},
      {"sim.engine.events_per_message",
       {ratio(n(t.events), n(t.messages)), "ratio"}},
      {"sim.engine.share", {ratio(s(Layer::kEngine), t.total_seconds()),
                            "ratio"}},
      {"crypto.sign_ops", {n(t.sign_ops), "count"}},
      {"crypto.verify_ops", {n(t.verify_ops), "count"}},
      {"crypto.signatures_carried", {n(t.signatures_carried), "count"}},
      {"crypto.sign_ns", {crypto.sign_ns, "ns"}},
      {"crypto.verify_ns", {crypto.verify_ns, "ns"}},
      {"crypto.est_s", {est_s, "s"}},
      {"relay.adversary.candidates", {n(t.candidates), "count"}},
      {"relay.adversary.useful_ratio",
       {ratio(n(t.adaptive_cells), n(t.candidates)), "ratio"}},
      {"runner.metrics.s", {s(Layer::kMetrics), "s"}},
      {"runner.sink.s", {s(Layer::kSink), "s"}},
      {"runner.sink.bytes", {n(t.sink_bytes), "B"}},
      {"runner.cells", {n(workload.specs.size()), "count"}},
      {"runner.cells_per_s",
       {ratio(n(workload.specs.size()), untraced.wall_s), "1/s"}},
      {"runner.parallel_efficiency",
       {ratio(cells_s, workload.threads * untraced.wall_s), "ratio"}},
      {"trace.overhead_frac", {ratio(cells_s, serial_wall_s) - 1.0, "ratio"}},
  };
}

void write_spans(const std::string& path, const Workload& workload,
                 const LayerTrace& trace) {
  std::ofstream os(path);
  for (const auto& span : trace.spans())
    os << "{\"cell\": " << span.cell << ", \"scenario\": \""
       << workload.specs[span.cell].name() << "\", \"layer\": \""
       << perfbench::layer_name(span.layer) << "\", \"start_s\": "
       << span.start_s << ", \"end_s\": " << span.end_s << "}\n";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// Repeats `pass` while another one is expected to end within `seconds`
/// (always at least once); returns how many ran.
template <typename Pass>
std::size_t repeat_for(double seconds, Pass&& pass) {
  const auto start = Clock::now();
  std::size_t passes = 0;
  for (;;) {
    const auto pass_start = Clock::now();
    pass();
    ++passes;
    if (seconds_since(start) + seconds_since(pass_start) > seconds)
      return passes;
  }
}

/// --trace 0: medians over untraced passes, each followed by set-up
/// replays. A set-up shorter than a pass repeats (about 0.25 s worth per
/// pass) so its median rests on many samples.
Metrics measure_end_to_end(const Workload& workload, const Args& args,
                           double seconds, double rss_mb, Checks& checks,
                           UntracedPass& last) {
  std::vector<double> walls, rates, setups;
  std::size_t setups_per_pass = 0;
  const std::size_t passes = repeat_for(seconds, [&] {
    last = run_untraced(workload, args.seed, workload.threads);
    checks.add(last);
    walls.push_back(last.wall_s);
    rates.push_back(last.pulses / last.wall_s);
    for (std::size_t k = 0; k == 0 || k < setups_per_pass; ++k)
      setups.push_back(run_setup(workload, args.seed, last, checks));
    if (setups_per_pass == 0)
      setups_per_pass = static_cast<std::size_t>(
          std::clamp(std::ceil(0.25 / setups.front()), 1.0, 10000.0));
  });
  const auto describe = [](const char* name, const std::vector<double>& xs) {
    util::Samples s;
    s.add_all(xs);
    std::cout << name << " over " << s.count() << " samples: min " << s.min()
              << ", median " << s.median() << ", max " << s.max() << '\n';
  };
  std::cout << "passes=" << passes << '\n';
  describe("wall_s", walls);
  describe("setup_s", setups);
  return {
      {"wall_s", {median_of(walls), "s"}},
      {"pulses_per_s", {median_of(rates), "1/s"}},
      {"setup_s", {median_of(setups), "s"}},
      {"peak_rss_mb", {rss_mb, "MB"}},
  };
}

/// --trace 1: per pass, the untraced references (the workload's own thread
/// count, plus a serial pass when that is more than one) and the traced
/// replica of every cell, checked row by row. Reports each metric's median
/// over the passes.
Metrics measure_layers(const Workload& workload, const Args& args,
                       double seconds, Checks& checks, UntracedPass& last) {
  const auto crypto = perfbench::time_crypto(workload.specs, args.seed);
  std::map<std::string, std::vector<double>> samples;
  Metrics metrics;
  const std::size_t passes = repeat_for(seconds, [&] {
    last = run_untraced(workload, args.seed, workload.threads);
    checks.add(last);
    double serial_wall_s = last.wall_s;
    if (workload.threads > 1) {
      const UntracedPass serial = run_untraced(workload, args.seed, 1);
      checks.add(serial);
      serial_wall_s = serial.wall_s;
    }
    LayerTrace trace;
    relay::EffectiveCache cache;
    for (std::size_t i = 0; i < workload.specs.size(); ++i) {
      trace.begin_cell(i);
      const auto replayed = perfbench::replay_cell(workload.specs[i],
                                                   args.seed, cache, false,
                                                   trace);
      trace.end_cell();
      checks.note(
          perfbench::replica_mismatch(last.rows[i], last.csv[i], replayed));
    }
    metrics = layer_metrics(workload, trace, last, serial_wall_s, crypto);
    for (const auto& [name, metric] : metrics)
      samples[name].push_back(metric.value);
    if (!args.spans_path.empty()) write_spans(args.spans_path, workload, trace);
    std::cout << "pass: traced " << trace.total_seconds() << " s, untraced "
              << serial_wall_s << " s serial, " << last.wall_s << " s on "
              << workload.threads << " thread(s)\n";
  });
  std::cout << "passes=" << passes << '\n';
  for (auto& [name, metric] : metrics) metric.value = median_of(samples[name]);
  return metrics;
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = parse_args(argc, argv);
  if (!args) {
    std::cerr << "usage: perfbench --workload NAME [--seed N] [--seconds S] "
                 "[--trace 0|1] [--spans FILE]\n";
    return 2;
  }
  const auto workload = perfbench::make_workload(args->workload);
  if (!workload) {
    std::cerr << "perfbench: unknown workload '" << args->workload << "'\n";
    return 2;
  }

  // One warm-up pass, checked but not timed, so that the first timed pass
  // does not pay for faulting in memory and filling caches. The peak RSS is
  // read right after it: later passes reuse a fragmented heap, whose peak
  // depends on allocation history rather than on the workload.
  const auto start = Clock::now();
  Checks checks;
  UntracedPass last = run_untraced(*workload, args->seed, workload->threads);
  checks.add(last);
  const double rss_mb = peak_rss_mb();
  const double seconds = args->seconds - seconds_since(start);
  const Metrics metrics =
      args->trace
          ? measure_layers(*workload, *args, seconds, checks, last)
          : measure_end_to_end(*workload, *args, seconds, rss_mb, checks,
                               last);

  char digest[17];
  std::snprintf(digest, sizeof digest, "%016llx",
                static_cast<unsigned long long>(checks.digest.value_or(0)));
  std::cout << "workload=" << workload->name << " seed=" << args->seed
            << " trace=" << (args->trace ? 1 : 0)
            << " cells/pass=" << workload->specs.size() << '\n'
            << "csv_digest=" << digest << " (identical in every pass: "
            << (checks.digest_stable ? "yes" : "NO") << ")\n"
            << "failed_frac="
            << ratio(static_cast<double>(checks.failed),
                     static_cast<double>(checks.attempted))
            << " (" << checks.failed << " of " << checks.attempted
            << " cells)\n";
  if (last.relay_cells > 0)
    std::cout << "exact_df_frac="
              << ratio(static_cast<double>(last.exact_cells),
                       static_cast<double>(last.relay_cells))
              << " (" << last.exact_cells << " of " << last.relay_cells
              << " relay cells)\n";
  if (!checks.mismatch.empty())
    std::cout << "REPLICA MISMATCH: " << checks.mismatch << '\n';
  for (const auto& [name, metric] : metrics)
    std::cout << "  " << name << " = " << json_number(metric.value) << ' '
              << metric.unit << '\n';

  std::cout << "{\"correct\": " << (checks.correct() ? "true" : "false")
            << ", \"attempted\": " << checks.attempted
            << ", \"failed\": " << checks.failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i)
    std::cout << (i ? ", " : "") << '"' << metrics[i].first
              << "\": {\"value\": " << json_number(metrics[i].second.value)
              << ", \"unit\": \"" << metrics[i].second.unit << "\"}";
  std::cout << "}}" << std::endl;
  return 0;
}
