#pragma once
// Fully connected message-passing network under adversarial delay control.
//
// The adversary chooses every delay within the model bounds: [d-u, d] when
// both endpoints are honest, [d-u_tilde, d] when either endpoint is faulty
// (Section 2 of the paper; u_tilde in [u, d]). The network also enforces the
// Dolev–Yao restriction: a faulty node may only send an honest node's
// signature after some faulty node has received it.

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "crypto/signature.hpp"
#include "sim/engine.hpp"
#include "sim/message.hpp"
#include "sim/message_arena.hpp"
#include "sim/model.hpp"
#include "util/rng.hpp"

namespace crusader::sim {

/// Chooses a delay in [lo, hi] for each message. Implementations are the
/// adversary's delay strategy.
class DelayPolicy {
 public:
  virtual ~DelayPolicy() = default;
  [[nodiscard]] virtual double delay(NodeId from, NodeId to, double send_time,
                                     const Message& m, double lo, double hi,
                                     util::Rng& rng) = 0;
  [[nodiscard]] virtual std::string name() const = 0;
};

/// Every message takes the maximum delay d.
class MaxDelayPolicy final : public DelayPolicy {
 public:
  double delay(NodeId, NodeId, double, const Message&, double, double hi,
               util::Rng&) override {
    return hi;
  }
  [[nodiscard]] std::string name() const override { return "max"; }
};

/// Every message takes the minimum allowed delay.
class MinDelayPolicy final : public DelayPolicy {
 public:
  double delay(NodeId, NodeId, double, const Message&, double lo, double,
               util::Rng&) override {
    return lo;
  }
  [[nodiscard]] std::string name() const override { return "min"; }
};

/// Uniformly random delay in [lo, hi] (jitter).
class RandomDelayPolicy final : public DelayPolicy {
 public:
  double delay(NodeId, NodeId, double, const Message&, double lo, double hi,
               util::Rng& rng) override {
    return rng.uniform(lo, hi);
  }
  [[nodiscard]] std::string name() const override { return "random"; }
};

/// Coordinated split: receivers with id < n/2 get minimum delay, the rest get
/// maximum — the classic worst case for averaging-based synchronizers,
/// because it systematically biases offset estimates apart.
class SplitDelayPolicy final : public DelayPolicy {
 public:
  explicit SplitDelayPolicy(std::uint32_t n) : half_(n / 2) {}
  double delay(NodeId, NodeId to, double, const Message&, double lo, double hi,
               util::Rng&) override {
    return to < half_ ? lo : hi;
  }
  [[nodiscard]] std::string name() const override { return "split"; }

 private:
  std::uint32_t half_;
};

/// Every delay at lo + fraction·(hi − lo): a dial between the min and max
/// adversaries (CLI spelling "custom:fixed:<fraction>").
class FixedFractionDelayPolicy final : public DelayPolicy {
 public:
  explicit FixedFractionDelayPolicy(double fraction) : fraction_(fraction) {}
  double delay(NodeId, NodeId, double, const Message&, double lo, double hi,
               util::Rng&) override {
    return lo + fraction_ * (hi - lo);
  }
  [[nodiscard]] std::string name() const override { return "custom:fixed"; }

 private:
  double fraction_;
};

/// Alternates min/max delay per message sent — maximal per-message jitter
/// without randomness (CLI spelling "custom:alternate").
class AlternatingDelayPolicy final : public DelayPolicy {
 public:
  double delay(NodeId, NodeId, double, const Message&, double lo, double hi,
               util::Rng&) override {
    flip_ = !flip_;
    return flip_ ? lo : hi;
  }
  [[nodiscard]] std::string name() const override { return "custom:alternate"; }

 private:
  bool flip_ = false;
};

/// One victim receiver gets every message at maximum delay while everyone
/// else gets minimum — the SecureTime-style targeted-delay adversary that
/// isolates a single node's view (CLI spelling "custom:target:<node>").
class TargetedDelayPolicy final : public DelayPolicy {
 public:
  explicit TargetedDelayPolicy(NodeId target) : target_(target) {}
  double delay(NodeId, NodeId to, double, const Message&, double lo, double hi,
               util::Rng&) override {
    return to == target_ ? hi : lo;
  }
  [[nodiscard]] std::string name() const override { return "custom:target"; }

 private:
  NodeId target_;
};

enum class DelayKind { kMax, kMin, kRandom, kSplit };

[[nodiscard]] const char* to_string(DelayKind kind);

[[nodiscard]] std::unique_ptr<DelayPolicy> make_delay_policy(DelayKind kind,
                                                             std::uint32_t n);

/// Marks "no index to skip" for for_each_delay_run.
inline constexpr std::uint32_t kNoSkip = ~std::uint32_t{0};

/// Equal-delay run grouping shared by Network::broadcast and the relay
/// flood: walks indices 0..count-1 in order, skipping `skip` (kNoSkip for
/// none), calls `delay_of(i)` once per visited index, and reports each
/// maximal run of consecutive visited indices with exactly equal delay as
/// `emit(delay, first, last, size)`. A skipped index never breaks a run, so
/// [first, last] may contain it; `size` counts the visited indices only.
/// Runs are emitted in index order, each right after the delay that ends it
/// is drawn (or after the walk), so delay draws and scheduling interleave
/// exactly as in a per-index loop that flushes on every delay change.
template <class DelayOf, class Emit>
void for_each_delay_run(std::uint32_t count, std::uint32_t skip,
                        DelayOf&& delay_of, Emit&& emit) {
  double run_delay = 0.0;
  std::uint32_t first = 0;
  std::uint32_t last = 0;
  std::uint32_t size = 0;
  for (std::uint32_t i = 0; i < count; ++i) {
    if (i == skip) continue;
    const double delay = delay_of(i);
    if (size > 0 && delay == run_delay) {
      last = i;
      ++size;
      continue;
    }
    if (size > 0) emit(run_delay, first, last, size);
    run_delay = delay;
    first = last = i;
    size = 1;
  }
  if (size > 0) emit(run_delay, first, last, size);
}

/// How model violations by adversary code are handled.
enum class Enforcement {
  kThrow,   // throw ModelViolation (tests assert legality of adversaries)
  kRecord,  // record in violations() and deliver anyway (failure injection)
};

struct NetworkStats {
  std::uint64_t messages = 0;
  std::array<std::uint64_t, 5> by_kind{};  // indexed by MsgKind
  std::uint64_t signatures_carried = 0;
};

class Network {
 public:
  using DeliverFn = std::function<void(NodeId to, const Message&)>;

  Network(Engine& engine, ModelParams model, std::vector<bool> faulty,
          std::unique_ptr<DelayPolicy> policy, util::Rng rng,
          Enforcement enforcement = Enforcement::kThrow);

  /// World installs the delivery hook (runner dispatch).
  void set_deliver(DeliverFn fn) { deliver_ = std::move(fn); }

  /// Standard send: the delay policy picks the delay within model bounds.
  void send(NodeId from, NodeId to, Message m);

  /// Send `m` to every node except `from`. With batching enabled (the
  /// default) the broadcast shares one arena payload and schedules one
  /// aggregate event per maximal run of consecutive receivers with equal
  /// delay — O(runs) events instead of O(n) — while remaining
  /// delivery-order- and stats-identical to the per-receiver loop. Faulty
  /// senders batch too: the Dolev–Yao check never reads the receiver and
  /// nothing is delivered during the call, so it is evaluated once. The
  /// per-receiver reference path runs only with batching off or when that
  /// check fails, so a violation is recorded once per receiver (kRecord) or
  /// thrown before anything is enqueued (kThrow).
  void broadcast(NodeId from, const Message& m);

  /// Byzantine send with an explicit delay; must lie within the faulty-link
  /// bounds [d - u_tilde, d].
  void send_with_delay(NodeId from, NodeId to, Message m, double delay);

  /// Toggle the broadcast fast path (on by default). Off forces the
  /// per-receiver reference path; the differential tests diff the two.
  void set_batch(bool on) noexcept { batch_ = on; }
  [[nodiscard]] bool batch() const noexcept { return batch_; }

  /// The payload arena (diagnostics for allocator tests).
  [[nodiscard]] const MessageArena& arena() const noexcept { return arena_; }

  [[nodiscard]] bool is_faulty(NodeId v) const { return faulty_.at(v); }
  [[nodiscard]] const NetworkStats& stats() const noexcept { return stats_; }
  [[nodiscard]] const std::vector<std::string>& violations() const noexcept {
    return violations_;
  }
  [[nodiscard]] crypto::KnowledgeTracker& knowledge() noexcept {
    return knowledge_;
  }

  /// Lower delay bound for the (from, to) link per the model.
  [[nodiscard]] double min_delay(NodeId from, NodeId to) const;

 private:
  /// True for an honest node's signature that no faulty node has received
  /// yet: the Dolev–Yao rule forbids the adversary to send it (its own and
  /// colluding keys are always known).
  [[nodiscard]] bool unknown_honest(const crypto::Signature& sig) const;
  /// True when the adversary may send every honest signature in `m`; always
  /// true for an honest sender. Independent of the receiver.
  [[nodiscard]] bool adversary_may_send(NodeId from, const Message& m) const;
  /// Flags (per Enforcement) each signature adversary_may_send rejects.
  void check_adversary_knowledge(NodeId from, const Message& m);
  void enqueue(NodeId from, NodeId to, Message m, double delay);
  /// Stats/knowledge/delivery for one receiver — shared by the per-message
  /// closure and the aggregate broadcast event.
  void deliver_one(NodeId to, const Message& m);
  void count_message(const Message& m);
  double choose_delay(NodeId from, NodeId to, const Message& m);
  void flag(const std::string& what);

  Engine& engine_;
  ModelParams model_;
  std::vector<bool> faulty_;
  std::unique_ptr<DelayPolicy> policy_;
  util::Rng rng_;
  Enforcement enforcement_;
  DeliverFn deliver_;
  crypto::KnowledgeTracker knowledge_;
  MessageArena arena_;
  NetworkStats stats_;
  std::vector<std::string> violations_;
  bool batch_ = true;
};

}  // namespace crusader::sim
