#include "layers.hpp"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <limits>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "baselines/factories.hpp"
#include "core/adversaries.hpp"
#include "relay/schedule.hpp"
#include "relay/topology.hpp"
#include "runner/export.hpp"
#include "runner/kllo.hpp"
#include "sim/world.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace perfbench {

namespace {

using namespace crusader;
using runner::ScenarioResult;
using runner::ScenarioSpec;
using runner::TopologyKind;
using runner::WorldKind;

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// --- Copies of runner.cpp's internal steps --------------------------------
// runner.cpp keeps these in an anonymous namespace; the replica check fails
// the run if a copy here drifts from the original.

ScenarioResult blank_result(const ScenarioSpec& spec, std::uint64_t base_seed) {
  ScenarioResult result;
  result.spec = spec;
  result.seed = runner::scenario_seed(spec, base_seed);
  for (double* metric :
       {&result.max_skew, &result.steady_skew, &result.skew_p50,
        &result.skew_p99, &result.min_period, &result.max_period,
        &result.predicted_skew, &result.skew_ratio, &result.local_skew,
        &result.local_skew_ratio, &result.d_eff, &result.u_eff,
        &result.kllo_ratio, &result.edge_age_min})
    *metric = kNan;
  return result;
}

relay::Topology build_topology(const ScenarioSpec& spec, std::uint64_t seed) {
  switch (spec.topology) {
    case TopologyKind::kComplete:
      return relay::Topology::complete(spec.n);
    case TopologyKind::kRing:
      return relay::Topology::ring(spec.n);
    case TopologyKind::kChordalRing:
      return relay::Topology::chordal_ring(spec.n, 2);
    case TopologyKind::kRingOfCliques:
      return relay::Topology::ring_of_cliques(spec.n / 4, 4, 2);
    case TopologyKind::kHypercube:
      return relay::Topology::hypercube(
          static_cast<std::uint32_t>(std::countr_zero(spec.n)));
    case TopologyKind::kRandomConnected:
      return relay::Topology::random_connected(spec.n, spec.f,
                                               seed ^ 0x70701063ULL);
  }
  throw std::invalid_argument("replica: unknown topology kind");
}

crypto::Pki::Kind pki_kind_for(runner::CryptoMode mode) {
  return mode == runner::CryptoMode::kAbstract ? crypto::Pki::Kind::kAbstract
                                               : crypto::Pki::Kind::kSymbolic;
}

std::uint64_t relay_analysis_key(const ScenarioSpec& spec,
                                 std::uint64_t seed) {
  std::uint64_t h = util::mix64(0x52454C4159ULL ^
                                static_cast<std::uint64_t>(spec.topology));
  h = util::mix64(h ^ spec.n);
  h = util::mix64(h ^ spec.f);
  h = util::mix64(h ^ spec.f_actual);
  if (spec.topology == TopologyKind::kRandomConnected)
    h = util::mix64(h ^ seed);
  return h;
}

void fill_skew_metrics(const sim::PulseTrace& trace, const ScenarioSpec& spec,
                       ScenarioResult& result) {
  result.max_skew = trace.max_skew();
  result.min_period = trace.min_period();
  result.max_period = trace.max_period();
  util::Samples steady;
  const auto skews = trace.skews();
  for (std::size_t r = spec.warmup; r < skews.size(); ++r) steady.add(skews[r]);
  if (!steady.empty()) {
    result.steady_skew = steady.max();
    result.skew_p50 = steady.median();
    result.skew_p99 = steady.quantile(0.99);
  }
}

/// run_scenario's post-dispatch ratios.
void fill_ratios(ScenarioResult& result) {
  if (result.spec.world != WorldKind::kRelay && result.rounds_completed > 0)
    result.local_skew = result.max_skew;
  if (result.rounds_completed > 0 && std::isfinite(result.max_skew) &&
      std::isfinite(result.predicted_skew) && result.predicted_skew > 0.0)
    result.skew_ratio = result.max_skew / result.predicted_skew;
  if (result.rounds_completed > 0 && std::isfinite(result.local_skew) &&
      std::isfinite(result.predicted_skew) && result.predicted_skew > 0.0)
    result.local_skew_ratio = result.local_skew / result.predicted_skew;
}

const double kBoundTolerance = runner::RunnerOptions{}.bound_tolerance;

// --- The two worlds, from protocol setup on ---------------------------------

void replay_complete(const ScenarioSpec& spec, bool setup_only,
                     LayerTrace& trace, ScenarioResult& result) {
  baselines::ProtocolSetup setup;
  std::unique_ptr<sim::World> world;
  trace.time(Layer::kWorldSetup, [&] {
    const auto model = spec.model();
    model.validate();
    auto world_model = model;
    world_model.f = std::max(spec.f, spec.f_actual);
    world_model.validate();
    setup = baselines::make_setup(spec.protocol, model, spec.slack);
    if (!setup.feasible) return;
    auto honest = baselines::make_protocol_factory(
        setup, static_cast<Round>(spec.rounds));
    sim::WorldConfig config;
    config.model = world_model;
    config.seed = result.seed;
    config.initial_offset = setup.initial_offset;
    config.horizon = setup.initial_offset +
                     static_cast<double>(spec.rounds + 2) * setup.round_length;
    config.clock_kind = spec.clocks;
    config.delay_kind = spec.delay;
    config.faulty = sim::default_faulty_set(spec.f_actual);
    config.pki_kind = pki_kind_for(spec.crypto);
    sim::ByzantineFactory byz;
    if (spec.f_actual > 0) {
      byz = spec.st_accelerator
                ? core::make_st_accelerator_factory(spec.n - 1)
                : core::make_byzantine_factory(spec.strategy, honest,
                                               result.seed, spec.late_shift,
                                               spec.split_shift);
    }
    world = std::make_unique<sim::World>(config, std::move(honest),
                                         std::move(byz));
  });
  result.feasible = setup.feasible;
  if (!setup.feasible) return;
  result.predicted_skew = setup.predicted_skew;
  if (setup_only) return;

  sim::RunResult run;
  trace.time(Layer::kEngine, [&] {
    run = world->run();
    world.reset();
  });
  trace.time(Layer::kMetrics, [&] {
    result.live = run.trace.live(spec.rounds);
    result.rounds_completed = run.trace.complete_rounds();
    result.messages = run.messages;
    result.events = run.events;
    result.sign_ops = run.sign_ops;
    result.verify_ops = run.verify_ops;
    result.signatures_carried = run.signatures_carried;
    result.violations = run.violations.size();
    if (result.rounds_completed > 0) {
      fill_skew_metrics(run.trace, spec, result);
      result.within_bound =
          result.max_skew <= result.predicted_skew + kBoundTolerance;
    }
  });
  trace.events += run.events;
  trace.messages += run.messages;
  trace.sign_ops += run.sign_ops;
  trace.verify_ops += run.verify_ops;
  trace.signatures_carried += run.signatures_carried;
}

void replay_relay(const ScenarioSpec& spec, relay::RelayConfig config,
                  const relay::RelayEffective& effective, bool setup_only,
                  LayerTrace& trace, ScenarioResult& result) {
  result.d_eff = effective.model.d;
  result.u_eff = effective.model.u;
  result.worst_hops = effective.worst_hops;
  result.d_eff_exact = effective.exact;
  ++trace.relay_cells;
  if (effective.exact) ++trace.exact_cells;
  trace.worst_hops_max = std::max(trace.worst_hops_max, effective.worst_hops);

  baselines::ProtocolSetup setup;
  trace.time(Layer::kWorldSetup, [&] {
    setup = baselines::make_setup(spec.protocol, effective.model, spec.slack);
  });
  result.feasible = setup.feasible;
  if (!setup.feasible) return;
  result.predicted_skew = setup.predicted_skew;

  const bool dynamic = config.schedule != nullptr;
  config.initial_offset = setup.initial_offset;
  config.horizon = setup.initial_offset +
                   static_cast<double>(spec.rounds + 2) * setup.round_length;
  if (dynamic) {
    config.epoch_start = setup.initial_offset + setup.round_length;
    config.epoch_length = setup.round_length;
  }

  auto run_candidate = [&](std::uint64_t attack_seed, ScenarioResult& out) {
    std::unique_ptr<relay::RelayWorld> world;
    trace.time(Layer::kWorldSetup, [&] {
      relay::RelayConfig candidate = config;
      candidate.attack_seed = attack_seed;
      world = std::make_unique<relay::RelayWorld>(
          candidate,
          baselines::make_protocol_factory(setup,
                                           static_cast<Round>(spec.rounds)),
          effective);
    });
    if (setup_only) return;
    relay::RelayRunResult run;
    trace.time(Layer::kEngine, [&] {
      run = world->run();
      world.reset();
    });
    trace.time(Layer::kMetrics, [&] {
      out.live = run.trace.live(spec.rounds);
      out.rounds_completed = run.trace.complete_rounds();
      out.messages = run.physical_messages;
      out.events = run.events;
      out.sign_ops = run.sign_ops;
      out.verify_ops = run.verify_ops;
      if (out.rounds_completed == 0) return;
      fill_skew_metrics(run.trace, spec, out);
      out.within_bound =
          out.max_skew <= out.predicted_skew + kBoundTolerance;
      const relay::TopologySchedule measure_schedule =
          dynamic ? *config.schedule
                  : relay::TopologySchedule::static_schedule(config.topology);
      const std::vector<double> series =
          runner::local_skew_series(run.trace, measure_schedule);
      if (!series.empty())
        out.local_skew = *std::max_element(series.begin(), series.end());
      runner::KlloEnvelopeParams params;
      params.sigma = effective.model.u +
                     (effective.model.vartheta - 1.0) * setup.round_length;
      params.global = static_cast<double>(spec.n) * params.sigma;
      params.stab_mult = spec.kllo_stab;
      const runner::KlloConformance kllo =
          runner::kllo_conformance(run.trace, measure_schedule, params);
      out.kllo_ratio = kllo.ratio;
      out.kllo_violations = kllo.violations;
      out.edge_age_min = kllo.edge_age_min;
    });
    trace.events += run.events;
    trace.messages += run.physical_messages;
    trace.sign_ops += run.sign_ops;
    trace.verify_ops += run.verify_ops;
  };

  if (!(relay::adaptive(spec.relay_fault) && spec.f_actual > 0)) {
    run_candidate(0, result);
    return;
  }
  // The runner's attack search: candidate 0 plays greedy, the rest replay
  // seeded schedules, and the first argmax max_skew wins.
  const std::uint32_t budget =
      spec.relay_fault == relay::RelayFaultKind::kSearch
          ? std::max(spec.search_budget, 1u)
          : 1u;
  ++trace.adaptive_cells;
  trace.candidates += budget;
  const ScenarioResult base = result;
  std::optional<ScenarioResult> best;
  double best_score = -std::numeric_limits<double>::infinity();
  std::uint64_t best_seed = 0;
  for (std::uint32_t k = 0; k < budget; ++k) {
    std::uint64_t attack_seed = 0;
    if (k > 0) {
      attack_seed = util::Rng(result.seed ^ 0xa77ac4ULL).fork(k).next_u64();
      if (attack_seed == 0) attack_seed = 1;
    }
    ScenarioResult candidate = base;
    run_candidate(attack_seed, candidate);
    const double score =
        candidate.rounds_completed > 0 && std::isfinite(candidate.max_skew)
            ? candidate.max_skew
            : -std::numeric_limits<double>::infinity();
    if (!best || score > best_score) {
      best = std::move(candidate);
      best_score = score;
      best_seed = attack_seed;
    }
  }
  result = *best;
  result.attack_iters = budget;
  result.attack_best_seed = best_seed;
}

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

}  // namespace

const char* layer_name(Layer layer) {
  switch (layer) {
    case Layer::kTopology: return "relay.topology";
    case Layer::kSchedule: return "relay.schedule";
    case Layer::kAnalysis: return "relay.analysis";
    case Layer::kWorldSetup: return "sim.world_setup";
    case Layer::kEngine: return "sim.engine";
    case Layer::kMetrics: return "runner.metrics";
    case Layer::kSink: return "runner.sink";
  }
  return "?";
}

LayerTrace::LayerTrace() : origin_ns_(now_ns()) {}

double LayerTrace::elapsed() const {
  return static_cast<double>(now_ns() - origin_ns_) * 1e-9;
}

void LayerTrace::record(Layer layer, double start, double end) {
  seconds_[static_cast<std::size_t>(layer)] += end - start;
  spans_.push_back({layer, cell_, start, end});
}

void LayerTrace::begin_cell(std::size_t cell) {
  cell_ = cell;
  cell_start_ = elapsed();
}

void LayerTrace::end_cell() { cell_seconds_.push_back(elapsed() - cell_start_); }

double LayerTrace::total_seconds() const {
  double total = 0.0;
  for (const double s : seconds_) total += s;
  return total;
}

double LayerTrace::setup_seconds() const {
  return seconds(Layer::kTopology) + seconds(Layer::kSchedule) +
         seconds(Layer::kAnalysis) + seconds(Layer::kWorldSetup);
}

ReplayedCell replay_cell(const ScenarioSpec& spec, std::uint64_t base_seed,
                         relay::EffectiveCache& cache, bool setup_only,
                         LayerTrace& trace) {
  ReplayedCell out;
  ScenarioResult& result = out.result;
  result = blank_result(spec, base_seed);
  const bool relay_world = spec.world == WorldKind::kRelay;
  try {
    if (spec.world == WorldKind::kTheorem5 || spec.custom_delay ||
        baselines::neighbor_cast(spec.protocol) ||
        (spec.dynamic() && spec.f_actual > 0))
      throw std::invalid_argument(
          "replica: cell shape outside the benchmark workloads");

    relay::RelayConfig config;
    if (relay_world) {
      config.hop_model = spec.model();
      config.hop_model.validate();
      config.seed = result.seed;
      config.clock_kind = spec.clocks;
      config.delay_kind = spec.delay;
      config.faulty = sim::default_faulty_set(spec.f_actual);
      config.fault_kind = spec.relay_fault;
      config.pki_kind = pki_kind_for(spec.crypto);
    }
    // The overlay layers. A complete-world cell has no overlay, so there
    // these spans measure only the branch that skips the call.
    trace.time(Layer::kTopology, [&] {
      if (relay_world) config.topology = build_topology(spec, result.seed);
    });
    if (relay_world) trace.topology_edges += config.topology.edge_count();

    std::shared_ptr<const relay::TopologySchedule> schedule;
    trace.time(Layer::kSchedule, [&] {
      if (!spec.dynamic()) return;
      relay::ChurnPolicy policy;
      policy.churn_rate = spec.churn_rate;
      policy.join_batch = spec.join_batch;
      policy.reconnect = spec.reconnect;
      schedule = std::make_shared<const relay::TopologySchedule>(
          relay::TopologySchedule::generate(
              config.topology, policy,
              static_cast<std::uint32_t>(spec.rounds + 2),
              result.seed ^ 0x5c4ed7ULL));
    });
    if (schedule != nullptr && schedule->dynamic()) {
      config.schedule = schedule;
      trace.schedule_epochs += schedule->deltas().size();
      for (const auto& delta : schedule->deltas())
        trace.rewired_edges += delta.removed.size();
    }

    std::optional<relay::RelayEffective> effective;
    const std::size_t misses_before = cache.misses();
    trace.time(Layer::kAnalysis, [&] {
      if (!relay_world) return;
      effective =
          config.schedule != nullptr
              ? relay::effective_from_hops(
                    config.hop_model,
                    relay::analyze_schedule_worst_hops(*config.schedule,
                                                       spec.f))
              : cache.get(relay_analysis_key(spec, result.seed), config);
    });
    trace.analysis_graphs += config.schedule != nullptr
                                 ? config.schedule->deltas().size() + 1
                                 : cache.misses() - misses_before;

    if (relay_world)
      replay_relay(spec, std::move(config), *effective, setup_only, trace,
                   result);
    else
      replay_complete(spec, setup_only, trace, result);
    if (!setup_only) trace.time(Layer::kMetrics, [&] { fill_ratios(result); });
  } catch (const std::exception& e) {
    result.error = e.what();
  }
  if (setup_only) return out;
  trace.time(Layer::kSink, [&] {
    std::ostringstream os;
    runner::write_csv_row(os, result);
    out.csv_row = os.str();
  });
  trace.sink_bytes += out.csv_row.size();
  return out;
}

std::string replica_mismatch(const ScenarioResult& expected,
                             const std::string& expected_row,
                             const ReplayedCell& replayed) {
  const ScenarioResult& got = replayed.result;
  std::ostringstream why;
  why << expected.spec.name() << ": ";
  if (got.events != expected.events)
    return why.str() + "events differ";
  if (got.messages != expected.messages)
    return why.str() + "messages differ";
  if (!same_bits(got.max_skew, expected.max_skew))
    return why.str() + "max_skew differs";
  if (!same_bits(got.d_eff, expected.d_eff))
    return why.str() + "d_eff differs";
  if (got.worst_hops != expected.worst_hops)
    return why.str() + "worst_hops differs";
  if (got.d_eff_exact != expected.d_eff_exact)
    return why.str() + "d_eff_exact differs";
  if (!same_bits(got.kllo_ratio, expected.kllo_ratio))
    return why.str() + "kllo_ratio differs";
  if (replayed.csv_row != expected_row)
    return why.str() + "CSV rows differ:\n  runner:  " + expected_row +
           "  replica: " + replayed.csv_row;
  return {};
}

CryptoCost time_crypto(const std::vector<ScenarioSpec>& specs,
                       std::uint64_t seed) {
  const ScenarioSpec& largest = *std::max_element(
      specs.begin(), specs.end(),
      [](const auto& a, const auto& b) { return a.n < b.n; });
  const std::uint32_t n = largest.n;
  const crypto::Pki::Kind kind = pki_kind_for(largest.crypto);
  // Per batch: kSigns signatures spread over every signer and consecutive
  // rounds (what a run's registry holds), each verified kVerifies times.
  constexpr std::size_t kSigns = 4096;
  constexpr std::size_t kVerifies = 4;
  constexpr int kBatches = 9;
  std::vector<crypto::SignedPayload> payloads;
  for (Round r = 0; r * n < kSigns; ++r)
    payloads.push_back(crypto::make_pulse_payload(r));

  util::Samples sign_ns;
  util::Samples verify_ns;
  std::vector<crypto::Signature> signatures;
  signatures.reserve(kSigns);
  for (int batch = 0; batch < kBatches; ++batch) {
    crypto::Pki pki(n, kind, seed + static_cast<std::uint64_t>(batch));
    signatures.clear();
    const std::int64_t t0 = now_ns();
    for (std::size_t i = 0; i < kSigns; ++i)
      signatures.push_back(pki.sign(static_cast<NodeId>(i % n),
                                    payloads[i / n]));
    const std::int64_t t1 = now_ns();
    std::size_t valid = 0;
    for (std::size_t k = 0; k < kVerifies; ++k)
      for (std::size_t i = 0; i < kSigns; ++i)
        valid += pki.verify(signatures[i], payloads[i / n]) ? 1 : 0;
    const std::int64_t t2 = now_ns();
    if (valid != kSigns * kVerifies)
      throw std::runtime_error("crypto timing: a valid signature failed");
    sign_ns.add(static_cast<double>(t1 - t0) / kSigns);
    verify_ns.add(static_cast<double>(t2 - t1) / (kSigns * kVerifies));
  }
  return {sign_ns.median(), verify_ns.median()};
}

}  // namespace perfbench
