#include "runner/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <type_traits>
#include <utility>

#include "baselines/factories.hpp"
#include "core/adversaries.hpp"
#include "relay/adversary.hpp"
#include "runner/runner.hpp"
#include "util/fmt.hpp"

namespace crusader::runner {

namespace {

using R = ScenarioResult;
using S = ScenarioSpec;

/// A ScenarioResult member, or a ScenarioSpec member read through
/// result.spec.
template <auto M>
const auto& value_of(const R& r) {
  if constexpr (std::is_invocable_v<decltype(M), const S&>)
    return std::invoke(M, r.spec);
  else
    return std::invoke(M, r);
}

template <auto M>
using ValueOf = std::decay_t<decltype(value_of<M>(std::declval<const R&>()))>;

template <auto M>
std::string text_of(const R& r) {
  const auto& v = value_of<M>(r);
  using T = ValueOf<M>;
  if constexpr (std::is_same_v<T, std::string>)
    return v;
  else if constexpr (std::is_enum_v<T>)
    return to_string(v);  // the enum's own spelling, by argument lookup
  else if constexpr (std::is_same_v<T, bool>)
    return v ? "1" : "0";
  else if constexpr (std::is_floating_point_v<T>)
    return std::isfinite(v) ? util::fmt_double(v) : std::string();
  else
    return std::to_string(v);
}

template <auto M>
void replay_into(std::string_view cell, R& r) {
  auto& v = r.*M;
  using T = std::decay_t<decltype(v)>;
  if constexpr (std::is_same_v<T, std::string>)
    v = std::string(cell);
  else if constexpr (std::is_same_v<T, bool>)
    v = cell == "1";
  else if constexpr (std::is_floating_point_v<T>)
    v = parse_double_strict(cell).value_or(kNan);
  else
    v = static_cast<T>(parse_u64_strict(cell).value_or(0));
}

template <auto M>
bool exceeds(const R& r, double ratio) {
  return std::isfinite(r.*M) && r.*M > ratio + kGateHeadroom;
}

constexpr Column text(std::string_view name, Scope scope,
                      std::string (*fn)(const R&)) {
  Column column;
  column.name = name;
  column.format = Format::kText;
  column.scope = scope;
  column.text = fn;
  return column;
}

template <auto M>
constexpr Column member(std::string_view name, Scope scope = Scope::kAll) {
  using T = ValueOf<M>;
  Column column = text(name, scope, &text_of<M>);
  if (!std::is_same_v<T, std::string> && !std::is_enum_v<T>)
    column.format = Format::kNumber;
  return column;
}

/// A member column campaign resume reads back.
template <auto M>
constexpr Column replayed(std::string_view name, Scope scope = Scope::kAll) {
  Column column = member<M>(name, scope);
  column.replay = &replay_into<M>;
  return column;
}

constexpr Column gated(Column column, std::string_view flag,
                       bool (*trips)(const R&, double)) {
  column.gate = flag;
  column.trips = trips;
  return column;
}

constexpr std::array kColumns = {
    text("scenario", Scope::kAll, [](const R& r) { return r.spec.name(); }),
    member<&S::protocol>("protocol"),
    member<&S::world>("world"),
    member<&S::topology>("topology", Scope::kRelay),
    member<&S::n>("n"),
    member<&S::f>("f"),
    member<&S::f_actual>("f_actual"),
    member<&S::d>("d"),
    member<&S::u>("u"),
    member<&S::u_tilde>("u_tilde"),
    member<&S::vartheta>("vartheta"),
    // Custom policies export their spelling (e.g. "custom:target:3") — the
    // placeholder DelayKind underneath would misattribute the adversary.
    text("delay", Scope::kAll,
         [](const R& r) -> std::string {
           return r.spec.custom_delay ? r.spec.custom_delay->spelling()
                                      : sim::to_string(r.spec.delay);
         }),
    member<&S::clocks>("clocks"),
    member<&S::crypto>("crypto"),
    // The two fault-behavior columns mirror each other: "-" where the axis
    // does not apply, "none" where it applies but no faulty node is
    // instantiated.
    text("byz", Scope::kComplete,
         [](const R& r) -> std::string {
           if (r.spec.f_actual == 0) return "none";
           return r.spec.st_accelerator ? "st-accel"
                                        : core::to_string(r.spec.strategy);
         }),
    text("relay_fault", Scope::kRelay,
         [](const R& r) -> std::string {
           return r.spec.f_actual == 0 ? "none"
                                       : relay::to_string(r.spec.relay_fault);
         }),
    member<&S::churn_rate>("churn_rate", Scope::kRelay),
    member<&S::join_batch>("join_batch", Scope::kRelay),
    member<&S::reconnect>("reconnect", Scope::kDynamic),
    member<&S::rounds>("rounds"),
    member<&S::warmup>("warmup"),
    replayed<&R::seed>("seed"),
    replayed<&R::feasible>("feasible"),
    replayed<&R::live>("live"),
    replayed<&R::rounds_completed>("rounds_completed"),
    member<&R::max_skew>("max_skew"),
    member<&R::steady_skew>("steady_skew"),
    member<&R::skew_p50>("skew_p50"),
    member<&R::skew_p99>("skew_p99"),
    member<&R::min_period>("min_period"),
    member<&R::max_period>("max_period"),
    member<&R::predicted_skew>("predicted_skew"),
    replayed<&R::within_bound>("within_bound"),
    gated(replayed<&R::skew_ratio>("skew_ratio"), "gate", &violates_gate),
    replayed<&R::local_skew>("local_skew"),
    // The world-aware gradient gate: it binds wherever the local metric is
    // defined, including dynamic cells where the global gate is suspended.
    gated(replayed<&R::local_skew_ratio>("local_skew_ratio"), "gate-local",
          &exceeds<&R::local_skew_ratio>),
    member<&R::d_eff>("d_eff", Scope::kRelay),
    member<&R::u_eff>("u_eff", Scope::kRelay),
    member<&R::worst_hops>("worst_hops", Scope::kRelay),
    // Sampled-vs-exact D_f regime, so history analytics can segment sampled
    // cells (and the sweep summary can count them).
    replayed<&R::d_eff_exact>("d_eff_exact", Scope::kRelay),
    // KLLO per-edge-age envelope block (runner/kllo.hpp); the stab
    // multiplier is a spec axis like churn_rate.
    replayed<&R::edge_age_min>("edge_age_min", Scope::kRelay),
    member<&S::kllo_stab>("kllo_stab", Scope::kRelay),
    gated(replayed<&R::kllo_ratio>("kllo_ratio", Scope::kRelay), "gate-kllo",
          &exceeds<&R::kllo_ratio>),
    member<&R::kllo_violations>("kllo_violations", Scope::kRelay),
    // Populated only where the search loop ran, so oblivious rows never
    // read as zero-iteration attacks.
    member<&R::attack_iters>("attack_iters", Scope::kAdaptive),
    member<&R::attack_best_seed>("attack_best_seed", Scope::kAdaptive),
    member<&R::messages>("messages"),
    member<&R::events>("events"),
    member<&R::sign_ops>("sign_ops"),
    member<&R::verify_ops>("verify_ops"),
    member<&R::signatures_carried>("signatures_carried"),
    member<&R::violations>("violations"),
    replayed<&R::timed_out>("timed_out"),
    replayed<&R::error>("error"),
};

}  // namespace

bool in_scope(Scope scope, const ScenarioSpec& spec) noexcept {
  const bool relay = spec.world == WorldKind::kRelay;
  switch (scope) {
    case Scope::kAll: return true;
    case Scope::kComplete: return spec.world == WorldKind::kComplete;
    case Scope::kRelay: return relay;
    case Scope::kDynamic: return spec.dynamic();
    case Scope::kAdaptive:
      return relay && spec.f_actual > 0 && relay::adaptive(spec.relay_fault);
  }
  return false;
}

std::span<const Column> columns() { return kColumns; }

const Column* gate_column(std::string_view flag) {
  for (const Column& column : kColumns) {
    if (column.gate.empty() || column.gate.size() != flag.size()) continue;
    if (std::equal(flag.begin(), flag.end(), column.gate.begin(),
                   [](char typed, char canonical) {
                     return typed == canonical ||
                            (typed == '_' && canonical == '-');
                   }))
      return &column;
  }
  return nullptr;
}

std::optional<std::size_t> history_series_index(
    std::string_view prefix) noexcept {
  for (std::size_t i = 0; i < kHistorySeries.size(); ++i)
    if (kHistorySeries[i].prefix == prefix) return i;
  return std::nullopt;
}

}  // namespace crusader::runner
