#include "core/tcb.hpp"

#include <optional>

#include "sim/time.hpp"
#include "util/check.hpp"

namespace crusader::core {

TcbInstance::TcbInstance(NodeId dealer, const Config& config)
    : dealer_(dealer), config_(config) {
  CS_CHECK_MSG(config_.accept_window > 0.0, "acceptance window must be positive");
  CS_CHECK_MSG(config_.echo_guard > 0.0, "echo guard d-2u must be positive");
}

void TcbInstance::finish(std::optional<double> output) {
  state_ = State::kDone;
  output_ = output;
}

bool TcbInstance::on_direct(double h) {
  if (state_ != State::kWaiting) return false;
  // Figure 2: h must lie in the window (L, L + W); both ends carry the
  // boundary slack because extremal worlds achieve them exactly.
  if (h <= config_.pulse_local - sim::kTimeEps ||
      h >= config_.pulse_local + config_.accept_window + sim::kBoundarySlack) {
    return false;
  }
  accept_time_ = h;
  state_ = State::kAccepted;
  // A third-party copy observed earlier (inside (L, h)) is necessarily inside
  // (L, h + d − 2u) as well: the instance is doomed to ⊥, but the message is
  // still forwarded first (Figure 2 forwards unconditionally on acceptance).
  if (poisoned_) finish(std::nullopt);
  return true;
}

void TcbInstance::on_third_party(double h) {
  if (state_ == State::kDone) return;
  // Only copies inside the open interval starting at L count.
  if (!sim::lt_eps(config_.pulse_local, h)) return;
  if (state_ == State::kWaiting) {
    poisoned_ = true;
    return;
  }
  // kAccepted: reject if the copy arrived before the guard elapsed.
  if (sim::lt_eps(h, accept_time_ + config_.echo_guard)) {
    finish(std::nullopt);
  }
}

void TcbInstance::on_window_close() {
  if (state_ == State::kWaiting) finish(std::nullopt);
}

void TcbInstance::on_guard_elapsed() {
  if (state_ == State::kAccepted) finish(accept_time_);
}

std::optional<double> TcbInstance::output() const {
  CS_CHECK_MSG(done(), "output queried before termination");
  return output_;
}

double TcbInstance::accept_time() const {
  CS_CHECK_MSG(state_ != State::kWaiting, "no message accepted");
  return accept_time_;
}

double TcbInstance::guard_deadline() const {
  CS_CHECK_MSG(state_ == State::kAccepted, "guard only runs while accepted");
  return accept_time_ + config_.echo_guard;
}

}  // namespace crusader::core
