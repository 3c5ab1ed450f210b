#include "relay/flood_world.hpp"

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "util/check.hpp"

namespace crusader::relay {

RelayAnalysis analyze_worst_hops(const RelayConfig& config) {
  const auto& hop = config.hop_model;
  const std::uint32_t n = config.topology.n();
  CS_CHECK_MSG(hop.n == n, "hop_model.n must match the topology");
  const bool exact = config.topology.worst_case_distance_is_exact(hop.f);
  if (exact) {
    // Within the budgets both checks are exhaustive (exact).
    CS_CHECK_MSG(config.topology.survives_faults(hop.f),
                 "topology is not (f+1)-connected");
  }
  std::uint32_t worst = config.topology.worst_case_distance(hop.f);
  if (!exact) {
    // Beyond the budgets the exhaustive checks would enumerate C(n, f)
    // subsets (or n sources) — the cliff the budgets exist to avoid — so
    // they degrade together: the sampled walk estimates the all-fault-sets
    // D_f, and the configured faulty set is verified here (connectivity
    // exactly — any BFS reaching every survivor proves it — distances up
    // to the source sample), keeping the hold schedule and the exported
    // bound sound for the adversary this world actually instantiates. An
    // empty configured set is dominated by every probe the sampled walk
    // already ran (removing nodes never shrinks distances), so it needs no
    // extra pass.
    if (!config.faulty.empty()) {
      worst = std::max(worst,
                       config.topology.worst_distance_with_faults(
                           sim::faulty_mask(n, config.faulty, hop.f),
                           config.topology.sampled_source_cap()));
    }
    // No warning here: the row exports d_eff_exact=0, and a sweep reports
    // its sampled cells in one counted line.
  }
  return RelayAnalysis{worst, exact};
}

RelayAnalysis analyze_schedule_worst_hops(const TopologySchedule& schedule,
                                          std::uint32_t /*f*/) {
  const std::uint32_t n = schedule.initial().n();
  // Per-epoch, the excluded set is the concrete down mask — no C(n, f)
  // subset walk — so exactness only hinges on the source budget.
  const bool exact = n <= Topology::kWorstCaseSourceBudget;
  const std::uint32_t source_budget =
      exact ? 0u : schedule.initial().sampled_source_cap();
  // Walk the epochs incrementally: analyze epoch e's graph, then apply
  // delta e to reach epoch e + 1.
  Topology topo = schedule.initial();
  std::vector<bool> down(n, false);
  std::uint32_t worst = topo.worst_distance_with_faults(down, source_budget);
  for (const EpochDelta& delta : schedule.deltas()) {
    apply_delta(delta, topo, down);
    worst = std::max(worst,
                     topo.worst_distance_with_faults(down, source_budget));
  }
  return RelayAnalysis{worst, exact};
}

RelayEffective effective_from_hops(const sim::ModelParams& hop,
                                   RelayAnalysis analysis) {
  sim::ModelParams eff = hop;
  const double hops = static_cast<double>(analysis.worst_hops);
  eff.d = hops * hop.d;
  // Balanced delivery: uncertainty = accumulated per-hop uncertainty plus
  // the drift of the destination-side hold (measured on a local clock).
  eff.u = hops * hop.u + (hop.vartheta - 1.0) * hops * hop.d;
  eff.u_tilde = eff.u;
  eff.validate();  // also enforces d_eff > 2 u_eff
  return RelayEffective{eff, analysis.worst_hops, analysis.exact};
}

RelayEffective compute_effective(const RelayConfig& config) {
  return effective_from_hops(config.hop_model, analyze_worst_hops(config));
}

sim::ModelParams effective_model(const RelayConfig& config) {
  return compute_effective(config).model;
}

RelayEffective EffectiveCache::get(std::uint64_t key,
                                   const RelayConfig& config) {
  // The memo key digests static analysis inputs only; a churned cell's
  // per-epoch analysis must never alias a static family's entry (or another
  // schedule's). Dynamic cells go through analyze_schedule_worst_hops
  // directly.
  CS_CHECK_MSG(config.schedule == nullptr || !config.schedule->dynamic(),
               "EffectiveCache must not serve dynamic schedules");
  {
    util::MutexLock lock(mu_);
    const auto it = analyses_.find(key);
    if (it != analyses_.end()) {
      ++hits_;
      // The hit path is pure arithmetic: D_f AND the exactness/budget
      // decision replay from the cache, so n = 10^5 setup stays O(1) after
      // the first cell.
      return effective_from_hops(config.hop_model, it->second);
    }
  }
  // Analyze outside the lock: a racing duplicate computes the same value
  // (analysis is a pure function of the keyed inputs); emplace keeps one.
  const RelayAnalysis analysis = analyze_worst_hops(config);
  util::MutexLock lock(mu_);
  analyses_.emplace(key, analysis);
  ++misses_;
  return effective_from_hops(config.hop_model, analysis);
}

std::size_t EffectiveCache::hits() const {
  util::MutexLock lock(mu_);
  return hits_;
}

std::size_t EffectiveCache::misses() const {
  util::MutexLock lock(mu_);
  return misses_;
}

/// Env implementation: physical sends become floods; everything else is the
/// standard world machinery.
class RelayWorld::NodeHost final : public sim::Env {
 public:
  NodeHost(NodeId id, RelayWorld* world, std::unique_ptr<sim::PulseNode> node)
      : id_(id), world_(world), node_(std::move(node)) {}

  void start() { node_->on_start(*this); }

  /// Leave teardown: the host moves to the graveyard (queued engine closures
  /// still point at it) and must go silent — queued timers fire into a
  /// deactivated host and do nothing.
  void deactivate() { active_ = false; }

  /// First copy of a flood processed here (post-hold).
  void process(const sim::Message& m) { node_->on_message(*this, m); }

  /// Flood bookkeeping: returns true when this id was not seen before.
  bool first_sight(std::uint64_t flood_id) {
    return seen_.insert(flood_id).second;
  }

  /// Destination-side hold management: keep the earliest processing time.
  /// Unordered: only ever probed by flood id, never iterated, so hash order
  /// cannot leak into execution order.
  struct PendingFlood {
    sim::EventId event = 0;
    double process_local = 0.0;
    bool processed = false;
  };
  std::unordered_map<std::uint64_t, PendingFlood> pending_;

  // --- sim::Env -----------------------------------------------------------
  [[nodiscard]] NodeId id() const override { return id_; }
  [[nodiscard]] const sim::ModelParams& model() const override {
    return world_->effective_;
  }
  [[nodiscard]] double local_now() const override {
    return world_->clocks_[id_].local(world_->engine_.now());
  }
  void send(NodeId to, sim::Message m) override {
    // Point-to-point sends also ride the flood (every protocol message here
    // is broadcast-like; unicast just gets filtered by recipients).
    (void)to;
    m.sender = id_;
    world_->flood_from(id_, m);
  }
  void broadcast(const sim::Message& m) override {
    sim::Message copy = m;
    copy.sender = id_;
    world_->flood_from(id_, copy);
  }
  sim::TimerId schedule_at_local(double local_time, std::uint64_t tag) override {
    return world_->engine_.at(world_->clocks_[id_].timer_time(local_time),
                              [this, tag] {
                                if (active_) node_->on_timer(*this, tag);
                              });
  }
  void cancel_timer(sim::TimerId id) override { world_->engine_.cancel(id); }
  void pulse() override {
    world_->trace_->record(id_, world_->engine_.now(), local_now());
  }
  [[nodiscard]] crypto::Signature sign(
      const crypto::SignedPayload& payload) override {
    return world_->pki_->sign(id_, payload, 0);
  }
  [[nodiscard]] bool verify(const crypto::Signature& sig,
                            const crypto::SignedPayload& payload) const override {
    return world_->pki_->verify(sig, payload);
  }

 private:
  NodeId id_;
  RelayWorld* world_;
  std::unique_ptr<sim::PulseNode> node_;
  bool active_ = true;
  std::unordered_set<std::uint64_t> seen_;  // membership only, never iterated
};

RelayWorld::RelayWorld(RelayConfig config, sim::HonestFactory factory,
                       std::optional<RelayEffective> effective)
    : config_(std::move(config)), rng_(config_.seed) {
  const RelayEffective eff =
      effective.has_value() ? *effective : compute_effective(config_);
  effective_ = eff.model;
  worst_hops_ = eff.worst_hops;
  const std::uint32_t n = config_.topology.n();
  faulty_ = sim::faulty_mask(n, config_.faulty, config_.hop_model.f);
  if (config_.schedule != nullptr && config_.schedule->dynamic()) {
    dynamic_ = true;
    CS_CHECK_MSG(config_.schedule->initial().n() == n,
                 "schedule initial graph must match the topology size");
    CS_CHECK_MSG(
        config_.faulty.empty() ||
            config_.fault_kind != RelayFaultKind::kCrash,
        "dynamic schedules need participating fault kinds; a crashed "
        "relay under churn is a leave the schedule never recorded");
    CS_CHECK_MSG(config_.epoch_start > 0.0 && config_.epoch_length > 0.0,
                 "dynamic schedule needs positive epoch timing");
    factory_ = factory;
    recent_.resize(n);
    age_check_ = std::make_unique<EdgeAgeTracker>(config_.topology);
  }
  adversary_ = std::make_unique<RelayAdversary>(
      config_.fault_kind, config_.topology, faulty_,
      config_.seed ^ 0xada7eULL, config_.attack_seed);

  pki_ = std::make_unique<crypto::Pki>(n, config_.pki_kind,
                                       config_.seed ^ 0xf100dULL);
  hop_policy_ = config_.custom_delay
                    ? config_.custom_delay()
                    : sim::make_delay_policy(config_.delay_kind, n);
  // Churned nodes are excluded from the skew metrics alongside faulty ones:
  // a torn-down host restarts its protocol from scratch on rejoin, so its
  // pulse numbering is not comparable with nodes that ran throughout.
  std::vector<bool> metric_mask = faulty_;
  if (dynamic_) {
    const std::vector<bool> churned = config_.schedule->ever_churned();
    for (NodeId v = 0; v < n; ++v) {
      if (churned[v]) metric_mask[v] = true;
    }
    // Faulty relays must be pinned against churn (ChurnPolicy::pinned): a
    // leave/rejoin of a Byzantine node is a crash-and-restart, a strictly
    // weaker adversary than the persistent one this cell claims to run.
    for (const NodeId v : config_.faulty)
      CS_CHECK_MSG(!churned[v],
                   "faulty relays may not churn; pin them in ChurnPolicy");
  }
  trace_ = std::make_unique<sim::PulseTrace>(n, metric_mask);

  // Clocks: the same make_clocks assignment as sim::World, with the random
  // walk run to horizon + d_eff.
  clocks_ = sim::make_clocks(config_.clock_kind, n, config_.hop_model.vartheta,
                             config_.initial_offset, rng_,
                             config_.horizon + effective_.d);

  for (NodeId v = 0; v < n; ++v) {
    if (!adversary_->participates(v)) {
      hosts_.push_back(nullptr);  // crashed node: no protocol, no relaying
      continue;
    }
    // Non-crash faulty nodes run the protocol too — their misbehavior lives
    // entirely in how they forward (and the trace excludes them from the
    // skew metrics regardless).
    hosts_.push_back(std::make_unique<NodeHost>(v, this, factory(v)));
  }

  if (dynamic_) {
    // Retain forwards long enough to bridge an epoch of disconnection plus
    // the in-flight horizon of a flood.
    retention_ = 2.0 * (config_.epoch_length + effective_.d);
    // Epoch boundary events are scheduled up front, before any protocol
    // event exists: at an equal timestamp the queue's FIFO tie-break then
    // fires the delta first, so round r provably runs on at_epoch(r).
    const std::size_t epochs = config_.schedule->deltas().size();
    for (std::size_t e = 0; e < epochs; ++e) {
      const double t =
          config_.epoch_start + static_cast<double>(e) * config_.epoch_length;
      if (t > config_.horizon) break;
      engine_.at(t, [this, e] { apply_delta(e); });
    }
  }
}

RelayWorld::~RelayWorld() = default;

void RelayWorld::apply_delta(std::size_t epoch) {
  const EpochDelta& delta = config_.schedule->deltas()[epoch];
  // Joins first: a rejoining node's fresh edges are in `added`, and its new
  // host must exist before retained floods replay across them. The restarted
  // protocol instance begins from scratch — convergence into the running
  // cell is the protocol's problem (and the metrics exclude the node).
  for (const NodeId v : delta.joins) {
    CS_CHECK(hosts_[v] == nullptr);
    hosts_[v] = std::make_unique<NodeHost>(v, this, factory_(v));
    hosts_[v]->start();
  }
  for (const auto& [a, b] : delta.removed) {
    config_.topology.remove_edge(a, b);
  }
  for (const auto& [a, b] : delta.added) {
    config_.topology.add_edge(a, b);
  }
  // Refresh topology-derived adversary state against the completed epoch
  // graph BEFORE replaying retained floods across the new edges: a faulty
  // relay's drop masks and victim lists must describe its post-rewire
  // neighbor set, never the stale initial one. The refresh is a pure
  // function of (kind, graph, faulty set, seed) — see RelayAdversary. The
  // replays themselves then run under the refreshed policy (reforward
  // consults the adversary like any other forward). Delay-policy RNG draws
  // happen in the same (a,b)/(b,a) order as before, so fault-free dynamic
  // cells keep their historical bytes.
  adversary_->refresh(config_.topology);
  for (const auto& [a, b] : delta.added) {
    reforward(a, b);
    reforward(b, a);
  }
  for (const NodeId v : delta.leaves) {
    CS_CHECK(hosts_[v] != nullptr);
    hosts_[v]->deactivate();
    graveyard_.push_back(std::move(hosts_[v]));
    hosts_[v] = nullptr;
    recent_[v].clear();
  }
  // Cross-check: the metric-side replay (EdgeAgeTracker, as walked by
  // runner/kllo.cpp) must land on exactly the graph the world now runs on.
  age_check_->apply(delta);
  CS_CHECK(age_check_->epoch() == epoch + 1);
  CS_CHECK(age_check_->topology().edge_count() ==
           config_.topology.edge_count());
  for (const auto& [a, b] : delta.added)
    CS_CHECK(age_check_->age(a, b) == 0);
  // Prune the retention window once per epoch — the only place entries age
  // out, so the per-node vectors stay bounded by the window's flood count.
  const double cutoff = engine_.now() - retention_;
  for (auto& retained : recent_) {
    retained.erase(std::remove_if(retained.begin(), retained.end(),
                                  [cutoff](const RetainedFlood& r) {
                                    return r.seen_at < cutoff;
                                  }),
                   retained.end());
  }
}

void RelayWorld::reforward(NodeId from, NodeId to) {
  if (hosts_[from] == nullptr) return;
  // A faulty retainer replays through the same adversary policy as a live
  // forward: pruned destinations stay pruned and delays stay overridden —
  // otherwise a rewire would launder an adversarial edge into an honest one.
  for (const RetainedFlood& r : recent_[from])
    forward(from, to, r.flood_id, r.hops + 1, r.ref);
}

void RelayWorld::forward(NodeId from, NodeId to, std::uint64_t flood_id,
                         std::uint32_t next_hops,
                         const sim::MessageArena::Ref& ref) {
  // Faulty relays forward through the adversary policy: neighbor pruning
  // (selective drop) and delay override (max-delay holds the full d_hop,
  // reorder pins window extremes) — all still within the model's legal
  // [d_hop − u_hop, d_hop].
  const bool adversarial = faulty_[from];
  if (adversarial && !adversary_->forwards(from, to, flood_id)) return;
  const double lo = config_.hop_model.d - config_.hop_model.u;
  const double hi = config_.hop_model.d;
  double delay = hop_policy_->delay(from, to, engine_.now(), *ref, lo, hi, rng_);
  if (adversarial)
    delay = adversary_->hop_delay(from, to, flood_id, delay, lo, hi);
  ++physical_messages_;
  engine_.at(engine_.now() + delay, [this, to, flood_id, next_hops, ref] {
    hop_deliver(to, flood_id, next_hops, ref);
  });
}

void RelayWorld::flood_from(NodeId origin, const sim::Message& m) {
  const std::uint64_t flood_id = next_flood_++;
  // One arena payload per flood: every hop, hold, and processing event
  // shares it instead of copying the Message per scheduled event.
  hop_deliver(origin, flood_id, 0, arena_.acquire(m));
}

void RelayWorld::hop_deliver(NodeId at, std::uint64_t flood_id,
                             std::uint32_t hops,
                             const sim::MessageArena::Ref& ref) {
  // `at` just obtained this flood copy after `hops` hops. Whether a faulty
  // node takes part at all is the adversary policy's call (kCrash drops
  // everything — including the node's own broadcasts, which never start
  // because crashed nodes have no host).
  if (hosts_[at] == nullptr) return;
  // Adaptive adversaries watch the whole frontier: every delivery (not just
  // first sights) feeds the observation stream. The guard keeps oblivious
  // kinds at zero cost; determinism holds because hop_deliver invocation
  // order is itself deterministic (and invariant across the batch fast path
  // and thread counts — see tests/test_relay_adaptive.cpp).
  if (adversary_->observing())
    adversary_->observe(at, flood_id, hops, engine_.now());
  NodeHost& host = *hosts_[at];
  const sim::Message& m = *ref;

  // Neighbor-cast: a received copy is processed on arrival — no hold (the
  // one-hop delay IS the per-edge link under test) — and never forwarded;
  // the hops == 0 origin falls through to the forwarding machinery below,
  // which reaches exactly the current neighbors.
  if (config_.neighbor_cast && hops > 0) {
    if (at != m.sender) host.process(m);
    return;
  }

  // Destination-side processing with path balancing. The origin never
  // processes copies of its own broadcast that cycle back to it.
  if (hops > 0 && at != m.sender) {
    const double hold_local =
        static_cast<double>(worst_hops_ - std::min(hops, worst_hops_)) *
        config_.hop_model.d;
    const double process_local = host.local_now() + hold_local;
    auto [it, inserted] = host.pending_.try_emplace(flood_id);
    auto& pending = it->second;
    // Keep the earliest processing time across copies (a later copy with a
    // smaller remaining hold can beat an earlier one).
    if (!pending.processed &&
        (inserted || process_local < pending.process_local - 1e-12)) {
      if (!inserted) engine_.cancel(pending.event);
      pending.process_local = process_local;
      const double t = clocks_[at].timer_time(process_local);
      pending.event = engine_.at(t, [this, at, flood_id, ref]() {
        if (hosts_[at] == nullptr) return;  // left before the hold expired
        auto& h = *hosts_[at];
        auto pit = h.pending_.find(flood_id);
        if (pit == h.pending_.end() || pit->second.processed) return;
        pit->second.processed = true;
        h.process(*ref);
      });
    }
  }

  // Forward once per flood id.
  if (!host.first_sight(flood_id)) return;
  if (dynamic_ && !config_.neighbor_cast) {
    // Record at forward time: whatever this node pushes to its current
    // neighbors is what a future edge to it must replay. Neighbor-cast
    // messages are strictly one-hop round beacons — a new edge simply
    // carries the next round, so nothing is retained or replayed.
    recent_[at].push_back(RetainedFlood{flood_id, hops, ref, engine_.now()});
  }
  const auto& nbrs = config_.topology.neighbors(at);

  if (!config_.batch || faulty_[at]) {
    // Reference path (and always the path for faulty relays: their forward
    // pruning and per-copy delay overrides are per neighbor).
    for (const NodeId next : nbrs) forward(at, next, flood_id, hops + 1, ref);
    return;
  }

  // Fast path: one aggregate event per maximal run of consecutive neighbors
  // with exactly-equal delay. Policy calls happen per neighbor in neighbor
  // order (identical RNG stream to the reference path); equal-time ordering
  // is preserved because within a run neighbors expand in list order and
  // runs fire in scheduling order under the queue's FIFO tie-break. The
  // aggregate credits the engine so events_processed() stays per-hop.
  const double lo = config_.hop_model.d - config_.hop_model.u;
  const double hi = config_.hop_model.d;
  sim::for_each_delay_run(
      static_cast<std::uint32_t>(nbrs.size()), sim::kNoSkip,
      [&](std::uint32_t i) {
        ++physical_messages_;
        return hop_policy_->delay(at, nbrs[i], engine_.now(), m, lo, hi, rng_);
      },
      [&](double delay, std::uint32_t i0, std::uint32_t i1, std::uint32_t) {
        if (dynamic_) {
          // An epoch delta can rewrite the adjacency list between
          // scheduling and firing, so the aggregate must capture the
          // neighbor ids, not indices into a list that may no longer exist.
          std::vector<NodeId> targets(nbrs.begin() + i0, nbrs.begin() + i1 + 1);
          engine_.at(engine_.now() + delay,
                     [this, targets = std::move(targets), flood_id,
                      next_hops = hops + 1, ref] {
                       engine_.credit_events(targets.size() - 1);
                       for (const NodeId next : targets)
                         hop_deliver(next, flood_id, next_hops, ref);
                     });
          return;
        }
        engine_.at(engine_.now() + delay,
                   [this, at, i0, i1, flood_id, next_hops = hops + 1, ref] {
                     engine_.credit_events(i1 - i0);
                     const auto& nb = config_.topology.neighbors(at);
                     for (std::uint32_t i = i0; i <= i1; ++i)
                       hop_deliver(nb[i], flood_id, next_hops, ref);
                   });
      });
}

RelayRunResult RelayWorld::run() {
  for (NodeId v = 0; v < config_.topology.n(); ++v) {
    if (hosts_[v] == nullptr) continue;
    engine_.at(0.0, [this, v] { hosts_[v]->start(); });
  }
  engine_.run_until(config_.horizon);

  RelayRunResult result;
  result.trace = *trace_;
  result.effective = effective_;
  result.worst_hops = worst_hops_;
  result.physical_messages = physical_messages_;
  result.floods = next_flood_;
  result.events = engine_.events_processed();
  result.sign_ops = pki_->sign_count();
  result.verify_ops = pki_->verify_count();
  return result;
}

}  // namespace crusader::relay
