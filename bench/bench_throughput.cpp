// E10 — substrate micro-benchmarks (google-benchmark): event queue, hardware
// clocks, crypto, and end-to-end CPS simulation throughput.

#include <benchmark/benchmark.h>
#include <cstdint>

#include "bench_common.hpp"
#include "crypto/signature.hpp"
#include "sim/engine.hpp"
#include "sim/hardware_clock.hpp"

namespace crusader {
namespace {

void BM_EventQueueScheduleRun(benchmark::State& state) {
  for (auto _ : state) {
    sim::EventQueue queue;
    for (int i = 0; i < 1000; ++i)
      queue.schedule(static_cast<double>((i * 7919) % 1000), [] {});
    while (!queue.empty()) queue.pop_and_run();
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_EventQueueScheduleRun);

void BM_HardwareClockEval(benchmark::State& state) {
  util::Rng rng(1);
  const auto clock = sim::HardwareClock::random_walk(rng, 1.05, 0.1, 1.0, 1000.0);
  double t = 0.0;
  for (auto _ : state) {
    t += 0.37;
    if (t > 900.0) t = 0.0;
    benchmark::DoNotOptimize(clock.local(t));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HardwareClockEval);

void BM_HardwareClockInverse(benchmark::State& state) {
  util::Rng rng(1);
  const auto clock = sim::HardwareClock::random_walk(rng, 1.05, 0.1, 1.0, 1000.0);
  double h = 1.0;
  for (auto _ : state) {
    h += 0.37;
    if (h > 900.0) h = 1.0;
    benchmark::DoNotOptimize(clock.real(h));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HardwareClockInverse);

void BM_HmacSign(benchmark::State& state) {
  crypto::Pki pki(8, crypto::Pki::Kind::kHmac, 1);
  Round round = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        pki.sign(0, crypto::make_pulse_payload(++round)));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HmacSign);

void BM_SymbolicSign(benchmark::State& state) {
  crypto::Pki pki(8, crypto::Pki::Kind::kSymbolic, 1);
  Round round = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        pki.sign(0, crypto::make_pulse_payload(++round)));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SymbolicSign);

/// End-to-end: one full CPS world (n nodes, 10 pulse rounds). Items = engine
/// events processed, so the counter reports simulator events/second.
void BM_CpsWorld(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  const auto model =
      bench::bench_model(n, sim::ModelParams::max_faults_signed(n));
  std::uint64_t events = 0;
  std::uint64_t seed = 1;
  for (auto _ : state) {
    const auto result =
        bench::run_protocol(baselines::ProtocolKind::kCps, model, 0,
                            core::ByzStrategy::kCrash, ++seed, 10);
    events += result.events;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
}
BENCHMARK(BM_CpsWorld)->Arg(5)->Arg(9)->Arg(15)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace crusader

BENCHMARK_MAIN();
