#include "sim/world.hpp"

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "util/check.hpp"

namespace crusader::sim {

std::vector<NodeId> default_faulty_set(std::uint32_t f) {
  std::vector<NodeId> out(f);
  for (std::uint32_t i = 0; i < f; ++i) out[i] = i;
  return out;
}

std::vector<bool> faulty_mask(std::uint32_t n,
                              const std::vector<NodeId>& faulty,
                              std::uint32_t f) {
  std::vector<bool> mask(n, false);
  for (NodeId v : faulty) {
    CS_CHECK_MSG(v < n, "faulty id " << v << " out of range");
    CS_CHECK_MSG(!mask[v], "duplicate faulty id " << v);
    mask[v] = true;
  }
  CS_CHECK_MSG(faulty.size() <= f,
               "more faulty nodes than the configured bound f");
  return mask;
}

// --- Host -------------------------------------------------------------------

/// One node's seat in the world. An honest node sees it as its Env, a
/// Byzantine node as its AdversaryEnv; exactly one of the two is set. Engine
/// closures hold its address, so it is neither copied nor moved: World
/// sizes its host vector once and seats each host in place.
class World::Host final : public AdversaryEnv {
 public:
  Host() = default;
  Host(const Host&) = delete;
  Host& operator=(const Host&) = delete;
  Host(Host&&) = delete;
  Host& operator=(Host&&) = delete;

  void seat(World& world, NodeId id, std::unique_ptr<PulseNode> honest,
            std::unique_ptr<ByzantineNode> byzantine) {
    world_ = &world;
    id_ = id;
    honest_ = std::move(honest);
    byzantine_ = std::move(byzantine);
  }

  void start() {
    if (honest_) {
      honest_->on_start(*this);
    } else {
      byzantine_->on_start(*this);
    }
  }
  void deliver(const Message& m) {
    if (honest_) {
      honest_->on_message(*this, m);
    } else {
      byzantine_->on_message(*this, m);
    }
  }
  void fire(std::uint64_t tag) {
    if (honest_) {
      honest_->on_timer(*this, tag);
    } else {
      byzantine_->on_timer(*this, tag);
    }
  }

  [[nodiscard]] NodeId id() const override { return id_; }
  [[nodiscard]] const ModelParams& model() const override {
    return world_->config_.model;
  }
  [[nodiscard]] double local_now() const override {
    return world_->clocks_[id_].local(real_now());
  }
  [[nodiscard]] double real_now() const override {
    return world_->engine_->now();
  }

  void send(NodeId to, Message m) override {
    world_->network_->send(id_, to, std::move(m));
  }

  void send_with_delay(NodeId to, Message m, double delay) override {
    world_->network_->send_with_delay(id_, to, std::move(m), delay);
  }

  void broadcast(const Message& m) override {
    // A faulty sender's broadcast is batched too once the network's
    // Dolev–Yao check passes; a failing check falls back to per-receiver
    // sends.
    world_->network_->broadcast(id_, m);
  }

  TimerId schedule_at_local(double local_time, std::uint64_t tag) override {
    return world_->engine_->at(world_->clocks_[id_].timer_time(local_time),
                               [this, tag] { fire(tag); });
  }

  void cancel_timer(TimerId id) override { world_->engine_->cancel(id); }

  void pulse() override {
    // Faulty nodes' pulses are recorded too; quality metrics ignore them.
    world_->trace_->record(id_, real_now(), local_now());
  }

  [[nodiscard]] crypto::Signature sign(
      const crypto::SignedPayload& payload) override {
    return world_->pki_->sign(id_, payload, 0);
  }

  [[nodiscard]] crypto::Signature sign_nonced(
      const crypto::SignedPayload& payload, std::uint64_t nonce) override {
    return world_->pki_->sign(id_, payload, nonce);
  }

  [[nodiscard]] bool verify(const crypto::Signature& sig,
                            const crypto::SignedPayload& payload) const override {
    return world_->pki_->verify(sig, payload);
  }

 private:
  World* world_ = nullptr;
  NodeId id_ = 0;
  std::unique_ptr<PulseNode> honest_;
  std::unique_ptr<ByzantineNode> byzantine_;
};

// --- World ------------------------------------------------------------------

World::World(WorldConfig config, HonestFactory honest,
             ByzantineFactory byzantine)
    : config_(std::move(config)), rng_(config_.seed) {
  config_.model.validate();
  const std::uint32_t n = config_.model.n;
  faulty_ = faulty_mask(n, config_.faulty, config_.model.f);

  engine_ = std::make_unique<Engine>();
  pki_ = std::make_unique<crypto::Pki>(n, config_.pki_kind,
                                       config_.seed ^ 0x5bd1e995u);
  auto policy = config_.custom_delay
                    ? config_.custom_delay()
                    : make_delay_policy(config_.delay_kind, n);
  network_ = std::make_unique<Network>(*engine_, config_.model, faulty_,
                                       std::move(policy), rng_.fork(0xdeadu),
                                       config_.enforcement);
  network_->set_batch(config_.batch);
  trace_ = std::make_unique<PulseTrace>(n, faulty_);

  clocks_ = make_clocks(config_.clock_kind, n, config_.model.vartheta,
                        config_.initial_offset, rng_,
                        config_.horizon + config_.model.d,
                        &config_.custom_clocks);
  build_hosts(std::move(honest), std::move(byzantine));

  network_->set_deliver(
      [this](NodeId to, const Message& m) { hosts_[to].deliver(m); });
}

World::~World() = default;

void World::build_hosts(HonestFactory honest, ByzantineFactory byzantine) {
  const std::uint32_t n = config_.model.n;
  hosts_ = std::vector<Host>(n);
  for (NodeId v = 0; v < n; ++v) {
    if (faulty_[v]) {
      CS_CHECK_MSG(byzantine, "faulty node configured but no Byzantine factory");
      auto node = byzantine(v);
      CS_CHECK_MSG(node, "Byzantine factory returned null for node " << v);
      hosts_[v].seat(*this, v, nullptr, std::move(node));
    } else {
      auto node = honest(v);
      CS_CHECK_MSG(node, "honest factory returned null for node " << v);
      hosts_[v].seat(*this, v, std::move(node), nullptr);
    }
  }
}

void World::start() {
  if (started_) return;
  started_ = true;
  for (Host& host : hosts_) engine_->at(0.0, [&host] { host.start(); });
}

RunResult World::run() {
  start();
  engine_->run_until(config_.horizon);

  RunResult result{*trace_, 0, 0, 0, 0, 0, {}, 0};
  result.messages = network_->stats().messages;
  result.events = engine_->events_processed();
  result.queue_events = engine_->events_scheduled();
  result.sign_ops = pki_->sign_count();
  result.verify_ops = pki_->verify_count();
  result.signatures_carried = network_->stats().signatures_carried;
  result.violations = network_->violations();
  return result;
}

}  // namespace crusader::sim
