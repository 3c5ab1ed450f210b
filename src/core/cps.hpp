#pragma once
// Crusader Pulse Synchronization — Figure 3 of the paper, the primary
// contribution: pulse synchronization with skew Θ(u + (ϑ−1)d) at resilience
// f = ⌈n/2⌉ − 1, assuming unforgeable signatures and minimum delay d−u on
// all links (d−ũ with ũ=u on faulty links; Theorem 5 shows why that is
// necessary).
//
// Per pulse round r (all times local):
//   1. pulse at L = H_v(p_v^r);
//   2. run TCB_r with every node as dealer (own signature sent at L + ϑS);
//   3. for each accepted output h: Δ_{v,y} = h − L − d + u − S; ⊥ otherwise;
//      Δ_{v,v} = 0;
//   4. apply the Figure-1 selection rule (discard f−b per side, midpoint);
//   5. pulse round r+1 at local time L + Δ + T.

#include <cstdint>
#include <optional>
#include <vector>

#include "core/params.hpp"
#include "core/tcb.hpp"
#include "sim/node.hpp"

namespace crusader::core {

struct CpsConfig {
  CpsParams params;
  /// Protocol resilience constant f used by the discard rule. Defaults to
  /// ⌈n/2⌉ − 1 when 0xffffffff.
  std::uint32_t f = 0xffffffffu;
  /// Stop pulsing after this many rounds (0 = run to the horizon).
  Round max_rounds = 0;
  /// Record every raw offset estimate Δ_{v,y} (diagnostics; the Lemma 12/13
  /// tests in test_cps.cpp read them).
  bool record_estimates = false;
};

/// One recorded raw estimate (only when CpsConfig::record_estimates).
struct EstimateRecord {
  Round round = 0;        ///< 1-based pulse round
  NodeId dealer = kInvalidNode;
  bool bot = false;       ///< TCB output was ⊥
  double delta = 0.0;     ///< Δ_{v,dealer}, meaningful when !bot
};

struct CpsNodeStats {
  Round rounds_completed = 0;      ///< rounds whose Δ was computed
  std::uint64_t bot_estimates = 0; ///< ⊥ outputs across all TCB instances
  std::uint64_t accepted = 0;      ///< non-⊥ TCB outputs
  std::uint64_t stale_messages = 0;
  std::uint64_t invalid_signatures = 0;
  std::uint64_t negative_waits = 0;  ///< should stay 0 while ∥p∥ ≤ S holds
  double max_abs_delta = 0.0;        ///< largest |Δ| correction applied
};

class CpsNode : public sim::PulseNode {
 public:
  explicit CpsNode(const CpsConfig& config);

  void on_start(sim::Env& env) override;
  void on_message(sim::Env& env, const sim::Message& m) override;
  void on_timer(sim::Env& env, std::uint64_t tag) override;

  [[nodiscard]] const CpsNodeStats& stats() const noexcept { return stats_; }
  [[nodiscard]] Round current_round() const noexcept { return round_; }

  /// Per-round Δ corrections (diagnostics for tests/benches).
  [[nodiscard]] const std::vector<double>& deltas() const noexcept {
    return deltas_;
  }

  /// Raw per-dealer estimates (populated when config.record_estimates).
  [[nodiscard]] const std::vector<EstimateRecord>& estimates() const noexcept {
    return estimates_;
  }

 private:
  // Timer tag encoding: kind | round << 3 | dealer << 40.
  enum TagKind : std::uint64_t {
    kTagPulse = 1,
    kTagDealerSend = 2,
    kTagWindowClose = 3,
    kTagGuard = 4,
  };
  [[nodiscard]] static std::uint64_t encode_tag(TagKind kind, Round round,
                                                NodeId dealer = 0) noexcept {
    return static_cast<std::uint64_t>(kind) | (round << 3) |
           (static_cast<std::uint64_t>(dealer) << 40);
  }

  void do_pulse(sim::Env& env);
  void do_dealer_send(sim::Env& env);
  void handle_tcb_message(sim::Env& env, const sim::Message& m);
  void maybe_finish_round(sim::Env& env);

  [[nodiscard]] TcbInstance& instance(NodeId dealer);

  CpsConfig config_;
  std::uint32_t f_ = 0;
  Round round_ = 0;          // current pulse round (1-based)
  double pulse_local_ = 0.0; // L = H_v(p_v^r)
  bool collecting_ = false;
  // One slot per dealer; the self slot stays empty (Δ_{v,v} = 0).
  std::vector<std::optional<TcbInstance>> instances_;
  CpsNodeStats stats_;
  std::vector<double> deltas_;
  std::vector<EstimateRecord> estimates_;
};

}  // namespace crusader::core
