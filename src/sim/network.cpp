#include "sim/network.hpp"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "sim/time.hpp"
#include "util/check.hpp"
#include "util/log.hpp"

namespace crusader::sim {

const char* to_string(DelayKind kind) {
  switch (kind) {
    case DelayKind::kMax: return "max";
    case DelayKind::kMin: return "min";
    case DelayKind::kRandom: return "random";
    case DelayKind::kSplit: return "split";
  }
  return "?";
}

std::unique_ptr<DelayPolicy> make_delay_policy(DelayKind kind, std::uint32_t n) {
  switch (kind) {
    case DelayKind::kMax: return std::make_unique<MaxDelayPolicy>();
    case DelayKind::kMin: return std::make_unique<MinDelayPolicy>();
    case DelayKind::kRandom: return std::make_unique<RandomDelayPolicy>();
    case DelayKind::kSplit: return std::make_unique<SplitDelayPolicy>(n);
  }
  CS_CHECK_MSG(false, "unknown delay kind");
  return nullptr;
}

Network::Network(Engine& engine, ModelParams model, std::vector<bool> faulty,
                 std::unique_ptr<DelayPolicy> policy, util::Rng rng,
                 Enforcement enforcement)
    : engine_(engine),
      model_(model),
      faulty_(std::move(faulty)),
      policy_(std::move(policy)),
      rng_(rng),
      enforcement_(enforcement) {
  model_.validate();
  CS_CHECK(faulty_.size() == model_.n);
  CS_CHECK(policy_ != nullptr);
}

double Network::min_delay(NodeId from, NodeId to) const {
  const bool faulty_endpoint = faulty_.at(from) || faulty_.at(to);
  return model_.d - (faulty_endpoint ? model_.u_tilde : model_.u);
}

void Network::flag(const std::string& what) {
  if (enforcement_ == Enforcement::kThrow) throw util::ModelViolation(what);
  violations_.push_back(what);
  CS_WARN << "model violation recorded: " << what;
}

bool Network::unknown_honest(const crypto::Signature& sig) const {
  return sig.signer != kInvalidNode && !faulty_.at(sig.signer) &&
         !knowledge_.knows(sig);
}

bool Network::adversary_may_send(NodeId from, const Message& m) const {
  if (!faulty_.at(from) || !m.carries_signature()) return true;
  if (unknown_honest(m.sig)) return false;
  return std::none_of(m.sigs.begin(), m.sigs.end(),
                      [&](const crypto::Signature& s) {
                        return unknown_honest(s);
                      });
}

void Network::check_adversary_knowledge(NodeId from, const Message& m) {
  if (adversary_may_send(from, m)) return;
  auto check_one = [&](const crypto::Signature& sig) {
    if (!unknown_honest(sig)) return;
    std::ostringstream oss;
    oss << "faulty node " << from << " sent signature of honest node "
        << sig.signer << " (payload " << sig.payload_hash
        << ") before receiving it";
    flag(oss.str());
  };
  check_one(m.sig);
  for (const auto& s : m.sigs) check_one(s);
}

void Network::count_message(const Message& m) {
  ++stats_.messages;
  ++stats_.by_kind[static_cast<std::size_t>(m.kind)];
  if (m.sig.signer != kInvalidNode) ++stats_.signatures_carried;
  stats_.signatures_carried += m.sigs.size();
}

void Network::deliver_one(NodeId to, const Message& m) {
  // The adversary learns every signature delivered to a faulty node
  // (execution well-formedness rule, Section 2).
  if (faulty_.at(to)) {
    if (m.sig.signer != kInvalidNode) knowledge_.learn(m.sig);
    for (const auto& s : m.sigs) knowledge_.learn(s);
  }
  CS_CHECK_MSG(deliver_, "network delivery hook not installed");
  deliver_(to, m);
}

void Network::enqueue(NodeId from, NodeId to, Message m, double delay) {
  CS_CHECK_MSG(to < model_.n, "recipient " << to << " out of range");
  CS_CHECK_MSG(from != to, "self-sends are modeled as local computation");
  m.sender = from;
  count_message(m);

  auto ref = arena_.acquire(m);
  engine_.at(engine_.now() + delay, [this, to, ref = std::move(ref)] {
    deliver_one(to, *ref);
  });
}

double Network::choose_delay(NodeId from, NodeId to, const Message& m) {
  const double lo = min_delay(from, to);
  const double hi = model_.d;
  double delay = policy_->delay(from, to, engine_.now(), m, lo, hi, rng_);
  if (delay < lo - kTimeEps || delay > hi + kTimeEps) {
    std::ostringstream oss;
    oss << "delay policy returned " << delay << " outside [" << lo << ", "
        << hi << "]";
    flag(oss.str());
    delay = std::min(std::max(delay, lo), hi);
  }
  return delay;
}

void Network::send(NodeId from, NodeId to, Message m) {
  check_adversary_knowledge(from, m);
  const double delay = choose_delay(from, to, m);
  enqueue(from, to, std::move(m), delay);
}

void Network::broadcast(NodeId from, const Message& m) {
  CS_CHECK_MSG(from < model_.n, "sender " << from << " out of range");
  // The knowledge check never reads the receiver, and no delivery runs
  // inside this call, so one evaluation answers for every receiver. Only a
  // failing check takes the per-receiver path, where each send records its
  // own violation (kRecord) or the first one throws before any enqueue.
  if (!batch_ || !adversary_may_send(from, m)) {
    for (NodeId to = 0; to < model_.n; ++to)
      if (to != from) send(from, to, m);
    return;
  }

  // One shared payload for the whole broadcast; receivers only read it.
  Message stamped = m;
  stamped.sender = from;
  const MessageArena::Ref ref = arena_.acquire(stamped);

  // Group maximal runs of consecutive receivers with exactly-equal delay
  // into one aggregate event each. Delivery order is identical to the
  // per-receiver path: within a run receivers fire in id order, and runs at
  // equal times fire in scheduling (= id) order by the queue's FIFO
  // tie-break. The aggregate credits the engine so events_processed()
  // reports per-receiver logical events.
  double run_delay = 0.0;
  NodeId run_begin = 0;
  NodeId run_end = 0;
  std::uint32_t run_count = 0;
  auto flush = [&] {
    if (run_count == 0) return;
    engine_.at(engine_.now() + run_delay,
               [this, a = run_begin, b = run_end, k = run_count, ref] {
                 engine_.credit_events(k - 1);
                 // The captured Ref pins the slot, and the slab's deque
                 // keeps its address while deliveries grow the arena.
                 const Message& msg = *ref;
                 for (NodeId to = a; to <= b; ++to) {
                   if (to == msg.sender) continue;
                   deliver_one(to, msg);
                 }
               });
  };
  for (NodeId to = 0; to < model_.n; ++to) {
    if (to == from) continue;
    count_message(stamped);
    // Policies see the caller's message, exactly like send() (the sender
    // stamp happens on the payload copy, after delay selection).
    const double delay = choose_delay(from, to, m);
    if (run_count > 0 && delay == run_delay) {
      run_end = to;
      ++run_count;
    } else {
      flush();
      run_delay = delay;
      run_begin = run_end = to;
      run_count = 1;
    }
  }
  flush();
}

void Network::send_with_delay(NodeId from, NodeId to, Message m, double delay) {
  CS_CHECK_MSG(faulty_.at(from), "send_with_delay is a Byzantine capability");
  check_adversary_knowledge(from, m);
  const double lo = min_delay(from, to);
  const double hi = model_.d;
  if (delay < lo - kTimeEps || delay > hi + kTimeEps) {
    std::ostringstream oss;
    oss << "Byzantine node " << from << " requested delay " << delay
        << " outside [" << lo << ", " << hi << "] toward node " << to;
    flag(oss.str());
    delay = std::min(std::max(delay, lo), hi);
  }
  enqueue(from, to, std::move(m), delay);
}

}  // namespace crusader::sim
