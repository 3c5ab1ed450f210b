#pragma once
// The environment a protocol node runs against.
//
// Protocol logic only ever sees LOCAL time through this interface — exactly
// the information the paper's model grants a node. The same node code runs
// under sim::World (real-time engine + hardware clocks), under
// relay::RelayWorld (the same engine and clocks, with broadcasts flooded over
// a sparse topology), and under the lower-bound co-simulator
// (lowerbound::TripleExecution).

#include <cstdint>

#include "crypto/signature.hpp"
#include "sim/message.hpp"
#include "sim/model.hpp"
#include "util/ids.hpp"

namespace crusader::sim {

using TimerId = std::uint64_t;

class Env {
 public:
  virtual ~Env() = default;

  [[nodiscard]] virtual NodeId id() const = 0;
  [[nodiscard]] virtual const ModelParams& model() const = 0;

  /// Current hardware-clock reading H_v(t). Never real time.
  [[nodiscard]] virtual double local_now() const = 0;

  /// Send `m` to `to` (delay chosen by the adversary within model bounds).
  virtual void send(NodeId to, Message m) = 0;

  /// Send `m` to every node except self.
  virtual void broadcast(const Message& m) = 0;

  /// Fire on_timer(tag) when the local clock reads `local_time`. If that is
  /// in the past, fires immediately (callers check when it matters).
  virtual TimerId schedule_at_local(double local_time, std::uint64_t tag) = 0;
  virtual void cancel_timer(TimerId id) = 0;

  /// Record a pulse of this node now.
  virtual void pulse() = 0;

  /// Sign with this node's own secret key (nonce 0 — honest signing).
  [[nodiscard]] virtual crypto::Signature sign(
      const crypto::SignedPayload& payload) = 0;

  [[nodiscard]] virtual bool verify(const crypto::Signature& sig,
                                    const crypto::SignedPayload& payload) const = 0;
};

/// Additional powers granted to Byzantine nodes: choosing per-message delays
/// (within the model's faulty-link bounds) and randomized signing.
class AdversaryEnv : public Env {
 public:
  /// Send with an explicit delay; the network checks
  /// delay ∈ [d - u_tilde, d] and throws ModelViolation otherwise.
  virtual void send_with_delay(NodeId to, Message m, double delay) = 0;

  /// Sign with an explicit nonce (models randomized signatures, letting a
  /// Byzantine signer mint several distinct valid signatures on one payload).
  [[nodiscard]] virtual crypto::Signature sign_nonced(
      const crypto::SignedPayload& payload, std::uint64_t nonce) = 0;

  /// Real time — Byzantine nodes are not bound by hardware clocks.
  [[nodiscard]] virtual double real_now() const = 0;
};

}  // namespace crusader::sim
