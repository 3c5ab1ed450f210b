#pragma once
// Shared plumbing for bench_sweep and bench_throughput: the canonical bench
// model, one complete-world protocol run, and table printing via util::Table.

#include <cstddef>
#include <cstdint>
#include <iostream>

#include "baselines/factories.hpp"
#include "core/adversaries.hpp"
#include "sim/world.hpp"
#include "util/table.hpp"

namespace crusader::bench {

/// Canonical bench model: d = 1 time unit.
inline sim::ModelParams bench_model(std::uint32_t n, std::uint32_t f,
                                    double u = 0.05, double vartheta = 1.01,
                                    double d = 1.0) {
  sim::ModelParams m;
  m.n = n;
  m.f = f;
  m.d = d;
  m.u = u;
  m.u_tilde = u;
  m.vartheta = vartheta;
  return m;
}

/// Runs `kind` for `rounds` pulse rounds on spread clocks and random delays,
/// with `f_actual` Byzantine nodes of `strategy`.
inline sim::RunResult run_protocol(baselines::ProtocolKind kind,
                                   const sim::ModelParams& model,
                                   std::uint32_t f_actual,
                                   core::ByzStrategy strategy,
                                   std::uint64_t seed, std::size_t rounds) {
  const auto setup = baselines::make_setup(kind, model);
  auto honest = baselines::make_protocol_factory(setup);

  sim::WorldConfig config;
  config.model = model;
  config.seed = seed;
  config.initial_offset = setup.initial_offset;
  config.horizon = setup.initial_offset +
                   static_cast<double>(rounds + 2) * setup.round_length;
  config.clock_kind = sim::ClockKind::kSpread;
  config.delay_kind = sim::DelayKind::kRandom;
  config.faulty = sim::default_faulty_set(f_actual);

  sim::ByzantineFactory byz;
  if (f_actual > 0)
    byz = core::make_byzantine_factory(strategy, honest, seed, 0.0, 0.0);
  sim::World world(config, honest, byz);
  return world.run();
}

inline void print(const util::Table& table) {
  table.print(std::cout);
  std::cout << '\n';
}

}  // namespace crusader::bench
