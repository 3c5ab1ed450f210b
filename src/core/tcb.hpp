#pragma once
// Timed Crusader Broadcast — Figure 2 of the paper — as a pure local-time
// state machine. One instance per (pulse round r, dealer y) at each node.
//
// From the view of a non-dealer node v with pulse local time L = H_v(p_v^r):
//   * accept the FIRST validly-signed ⟨r⟩_y received directly from y at a
//     local time h ∈ (L, L + W) where W = ϑ(d + (ϑ+1)S); forward it;
//   * output ⊥ if a valid ⟨r⟩_y arrives from any x ≠ y at a local time
//     h' ∈ (L, h + d − 2u);
//   * otherwise terminate with output h at local time h + d − 2u.
//
// The instance is driven by its owner (CpsNode, or tests), which supplies
// events with local timestamps and schedules the two timers (window close,
// echo guard). This keeps the logic runnable under both the real-time engine
// and the lower-bound co-simulator.

#include <optional>

#include "util/ids.hpp"

namespace crusader::core {

class TcbInstance {
 public:
  enum class State { kWaiting, kAccepted, kDone };

  struct Config {
    double pulse_local = 0.0;    ///< L = H_v(p_v^r)
    double accept_window = 0.0;  ///< W = ϑ(d + (ϑ+1)S)
    double echo_guard = 0.0;     ///< d − 2u
  };

  TcbInstance(NodeId dealer, const Config& config);

  /// Valid ⟨r⟩_y received directly from the dealer at local time h.
  /// Returns true when this message is accepted — the caller must forward
  /// (echo) it to all nodes at this local time (Figure 2).
  bool on_direct(double h);

  /// Valid ⟨r⟩_y received from some x ≠ y at local time h.
  void on_third_party(double h);

  /// Timer: the acceptance window closed (local time L + W).
  void on_window_close();

  /// Timer: the echo guard elapsed for the accepted message
  /// (local time h + d − 2u).
  void on_guard_elapsed();

  [[nodiscard]] State state() const noexcept { return state_; }
  [[nodiscard]] bool done() const noexcept { return state_ == State::kDone; }

  /// Defined once done(): the accept local time h, or nullopt for ⊥.
  [[nodiscard]] std::optional<double> output() const;

  /// Defined in kAccepted and after: the accept local time h.
  [[nodiscard]] double accept_time() const;

  /// Local time at which the guard timer must fire (valid in kAccepted).
  [[nodiscard]] double guard_deadline() const;

  [[nodiscard]] NodeId dealer() const noexcept { return dealer_; }

 private:
  void finish(std::optional<double> output);

  NodeId dealer_;
  Config config_;
  State state_ = State::kWaiting;
  bool poisoned_ = false;  // a third-party copy arrived inside (L, …)
  double accept_time_ = 0.0;
  std::optional<double> output_;
};

}  // namespace crusader::core
