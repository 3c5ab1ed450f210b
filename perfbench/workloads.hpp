#pragma once
// The benchmark's workloads: each is a fixed list of ScenarioSpecs plus how
// the untraced pass drives it through the public runner. The specs do not
// depend on the seed; the seed enters only as RunnerOptions::base_seed, from
// which the runner derives every scenario's world seed.

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "runner/scenario.hpp"

namespace perfbench {

/// A single-cell workload runs through runner::run_scenario; a multi-cell
/// one is one runner::run_sweep_streamed sweep.
struct Workload {
  std::string name;
  std::vector<crusader::runner::ScenarioSpec> specs;
  /// Runner worker threads of the untraced pass.
  unsigned threads = 1;
};

/// nullopt for an unknown name.
[[nodiscard]] std::optional<Workload> make_workload(std::string_view name);

}  // namespace perfbench
