#include "workloads.hpp"

#include <utility>

namespace perfbench {

namespace {

using crusader::baselines::ProtocolKind;
using crusader::core::ByzStrategy;
using crusader::relay::ReconnectPolicy;
using crusader::relay::RelayFaultKind;
using crusader::runner::CryptoMode;
using crusader::runner::ScenarioSpec;
using crusader::runner::SweepGrid;
using crusader::runner::TopologyKind;
using crusader::runner::WorldKind;
using crusader::sim::DelayKind;

constexpr double kU = 0.01;
constexpr double kVartheta = 1.001;

/// The paper's headline regime: CPS on the complete world at the top of its
/// resilience range, n = 128, f = f_actual = ⌈n/2⌉ − 1, split Byzantine
/// timing under split delays, SHA-256-backed signatures.
Workload complete_byzantine() {
  ScenarioSpec spec;
  spec.world = WorldKind::kComplete;
  spec.protocol = ProtocolKind::kCps;
  spec.n = 128;
  spec.f = 63;
  spec.f_actual = 63;
  spec.strategy = ByzStrategy::kSplit;
  spec.delay = DelayKind::kSplit;
  spec.u = kU;
  spec.u_tilde = kU;
  spec.vartheta = kVartheta;
  spec.crypto = CryptoMode::kReal;
  spec.rounds = 8;
  spec.warmup = 2;
  return {"complete-byzantine", {spec}, 1};
}

/// The dynamic-network regime: the flood probe over a churned 2^12
/// hypercube, fault-free, abstract crypto. Churn-schedule generation and the
/// per-epoch D_f analysis dominate its wall time. (At 2^13 one pass takes
/// about 7 s and its time varied by a tenth from pass to pass on a shared
/// 4-core host: too few passes fit in one benchmark run to steady it.)
Workload churn_hypercube() {
  ScenarioSpec spec;
  spec.world = WorldKind::kRelay;
  spec.protocol = ProtocolKind::kFloodProbe;
  spec.topology = TopologyKind::kHypercube;
  spec.n = 4096;
  spec.delay = DelayKind::kSplit;
  spec.u = kU;
  spec.u_tilde = kU;
  spec.vartheta = kVartheta;
  spec.crypto = CryptoMode::kAbstract;
  spec.churn_rate = 0.02;
  spec.reconnect = ReconnectPolicy::kRandom;
  spec.rounds = 8;
  spec.warmup = 2;
  return {"churn-hypercube", {spec}, 1};
}

/// The grid a user sweeps: relay cells under every relay fault kind,
/// sampled-D_f relay cells past the subset budget, and complete-world cells
/// across protocols, sizes, fault loads, Byzantine strategies and delays.
Workload adversary_sweep() {
  auto base = [] {
    SweepGrid grid;
    grid.us = {kU};
    grid.varthetas = {kVartheta};
    grid.rounds = 10;
    grid.warmup = 3;
    return grid;
  };
  std::vector<ScenarioSpec> specs;
  auto append = [&](const SweepGrid& grid) {
    for (auto& spec : grid.expand()) specs.push_back(std::move(spec));
  };

  SweepGrid relay_all = base();
  relay_all.worlds = {WorldKind::kRelay};
  relay_all.protocols = {ProtocolKind::kCps, ProtocolKind::kSrikanthToueg};
  relay_all.ns = {16};
  relay_all.topologies = {TopologyKind::kChordalRing, TopologyKind::kHypercube,
                          TopologyKind::kRingOfCliques};
  relay_all.fault_loads = {SweepGrid::kMaxResilience};
  relay_all.relay_faults = {
      RelayFaultKind::kCrash,         RelayFaultKind::kMaxDelay,
      RelayFaultKind::kReorder,       RelayFaultKind::kSelectiveDrop,
      RelayFaultKind::kGreedySkew,    RelayFaultKind::kSearch};
  relay_all.search_budgets = {8};
  relay_all.delays = {DelayKind::kMax};
  append(relay_all);

  SweepGrid relay_sampled = relay_all;
  relay_sampled.protocols = {ProtocolKind::kSrikanthToueg};
  relay_sampled.ns = {32};
  relay_sampled.topologies = {TopologyKind::kChordalRing,
                              TopologyKind::kRingOfCliques};
  relay_sampled.relay_faults = {RelayFaultKind::kCrash,
                                RelayFaultKind::kGreedySkew};
  append(relay_sampled);

  SweepGrid complete = base();
  complete.worlds = {WorldKind::kComplete};
  complete.protocols = {ProtocolKind::kCps, ProtocolKind::kLynchWelch,
                        ProtocolKind::kSrikanthToueg};
  complete.ns = {7, 10, 13, 16};
  complete.fault_loads = {0, SweepGrid::kMaxResilience};
  complete.strategies = {ByzStrategy::kCrash, ByzStrategy::kSplit};
  complete.delays = {DelayKind::kRandom, DelayKind::kSplit};
  append(complete);

  return {"adversary-sweep", std::move(specs), 2};
}

}  // namespace

std::optional<Workload> make_workload(std::string_view name) {
  if (name == "complete-byzantine") return complete_byzantine();
  if (name == "churn-hypercube") return churn_hypercube();
  if (name == "adversary-sweep") return adversary_sweep();
  return std::nullopt;
}

}  // namespace perfbench
