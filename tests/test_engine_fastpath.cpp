// Differential harness for the engine fast path: the batched
// broadcast/flood delivery (WorldConfig::batch / RelayConfig::batch) and the
// abstract crypto mode must be behavior-preserving — identical traces, skew
// results, sign/verify op counts, and byte-identical CSV rows across every
// world kind, on 1 thread or 4.

#include <cstdint>
#include <gtest/gtest.h>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "baselines/factories.hpp"
#include "core/adversaries.hpp"
#include "crypto/signature.hpp"
#include "relay/flood_world.hpp"
#include "relay/topology.hpp"
#include "runner/export.hpp"
#include "runner/runner.hpp"
#include "runner/scenario.hpp"
#include "sim/network.hpp"
#include "sim/world.hpp"
#include "util/check.hpp"

namespace crusader {
namespace {

using runner::CryptoMode;
using runner::ScenarioSpec;
using runner::SweepGrid;
using runner::TopologyKind;
using runner::WorldKind;

/// Every world kind × a spread of protocols, fault loads, and both crypto
/// modes at small n — the cross product the fast path must be invisible on.
SweepGrid differential_grid() {
  SweepGrid grid;
  grid.worlds = {WorldKind::kComplete, WorldKind::kRelay,
                 WorldKind::kTheorem5};
  grid.protocols = {
      baselines::ProtocolKind::kCps, baselines::ProtocolKind::kLynchWelch,
      baselines::ProtocolKind::kSrikanthToueg,
      baselines::ProtocolKind::kFloodProbe};
  grid.ns = {4, 8};
  grid.fault_loads = {0, SweepGrid::kMaxResilience};
  // kMax: every delay equal → one aggregate per broadcast (maximal
  // batching). kSplit: exactly two runs. kRandom: per-receiver runs (the
  // fast path degenerates to the slow path, but must burn the same RNG
  // stream).
  grid.delays = {sim::DelayKind::kMax, sim::DelayKind::kRandom,
                 sim::DelayKind::kSplit};
  grid.topologies = {TopologyKind::kHypercube};
  // Every strategy: each one that broadcasts from a faulty node takes the
  // batched path once its Dolev–Yao check passes.
  grid.strategies = core::all_byz_strategies();
  grid.relay_faults = {relay::RelayFaultKind::kCrash,
                       relay::RelayFaultKind::kMaxDelay};
  grid.cryptos = {CryptoMode::kReal, CryptoMode::kAbstract};
  grid.rounds = 6;
  grid.warmup = 2;
  return grid;
}

std::string sweep_csv(const SweepGrid& grid, bool fast_path,
                      unsigned threads) {
  runner::RunnerOptions options;
  options.base_seed = 7;
  options.threads = threads;
  options.fast_path = fast_path;
  return runner::to_csv(runner::run_sweep(grid.expand(), options));
}

TEST(FastPathDifferential, CsvByteIdenticalAcrossBatchToggle) {
  const auto grid = differential_grid();
  const std::string fast = sweep_csv(grid, /*fast_path=*/true, 1);
  const std::string slow = sweep_csv(grid, /*fast_path=*/false, 1);
  EXPECT_EQ(fast, slow);
}

TEST(FastPathDifferential, CsvByteIdenticalAcrossThreadCounts) {
  const auto grid = differential_grid();
  const std::string one = sweep_csv(grid, /*fast_path=*/true, 1);
  const std::string four = sweep_csv(grid, /*fast_path=*/true, 4);
  EXPECT_EQ(one, four);
}

/// The KLLO additions under the same differential lens: the one-hop
/// gradient/jump-max protocols, churned schedules, and the per-edge-age
/// conformance metrics (kllo_ratio / kllo_violations / edge_age_min CSV
/// columns) must be byte-stable across the batch toggle and thread counts.
SweepGrid kllo_differential_grid() {
  SweepGrid grid;
  grid.worlds = {WorldKind::kRelay};
  grid.protocols = {baselines::ProtocolKind::kGradient,
                    baselines::ProtocolKind::kJumpMax};
  grid.ns = {8, 16};
  grid.fault_loads = {0};
  grid.delays = {sim::DelayKind::kRandom, sim::DelayKind::kSplit};
  grid.topologies = {TopologyKind::kHypercube};
  grid.churn_rates = {0.0, 0.1};
  grid.join_batches = {0, 1};
  grid.reconnects = {relay::ReconnectPolicy::kRandom,
                     relay::ReconnectPolicy::kRingRepair};
  grid.kllo_stabs = {1.0, 4.0};
  grid.rounds = 6;
  grid.warmup = 2;
  return grid;
}

TEST(KlloDifferential, ChurnedCsvByteIdenticalAcrossBatchToggle) {
  const auto grid = kllo_differential_grid();
  EXPECT_EQ(sweep_csv(grid, /*fast_path=*/true, 1),
            sweep_csv(grid, /*fast_path=*/false, 1));
}

TEST(KlloDifferential, ChurnedCsvByteIdenticalAcrossThreadCounts) {
  const auto grid = kllo_differential_grid();
  EXPECT_EQ(sweep_csv(grid, /*fast_path=*/true, 1),
            sweep_csv(grid, /*fast_path=*/true, 4));
}

TEST(KlloDifferential, StabAxisCollapsesOnStaticGrids) {
  // Like the reconnect axis: the stabilization multiplier means nothing
  // without churn, so a churn-free grid with a --kllo-stab axis must expand
  // to the very same cells (and the very same CSV bytes) as one without it.
  auto plain = kllo_differential_grid();
  plain.churn_rates = {0.0};
  plain.join_batches = {0};
  plain.kllo_stabs = {1.0};
  auto stabbed = plain;
  stabbed.kllo_stabs = {1.0, 2.0, 8.0};

  const auto plain_specs = plain.expand();
  const auto stabbed_specs = stabbed.expand();
  ASSERT_EQ(stabbed_specs.size(), plain_specs.size());
  for (std::size_t i = 0; i < plain_specs.size(); ++i)
    EXPECT_EQ(stabbed_specs[i].key(), plain_specs[i].key()) << i;
  EXPECT_EQ(sweep_csv(stabbed, true, 1), sweep_csv(plain, true, 1));

  // With churn the axis is real: it multiplies exactly the dynamic cells.
  auto churned = stabbed;
  churned.churn_rates = {0.0, 0.1};
  std::size_t dynamic_cells = 0;
  std::size_t stretched_cells = 0;
  for (const auto& spec : churned.expand()) {
    if (spec.dynamic()) ++dynamic_cells;
    if (spec.kllo_stab != 1.0) {
      ++stretched_cells;
      EXPECT_TRUE(spec.dynamic()) << spec.name();
    }
  }
  EXPECT_EQ(dynamic_cells % 3, 0u);
  EXPECT_EQ(stretched_cells * 3, dynamic_cells * 2);
}

void expect_traces_identical(const sim::PulseTrace& a,
                             const sim::PulseTrace& b) {
  ASSERT_EQ(a.n(), b.n());
  for (NodeId v = 0; v < a.n(); ++v) {
    ASSERT_EQ(a.pulse_count(v), b.pulse_count(v)) << "node " << v;
    for (std::size_t r = 0; r < a.pulse_count(v); ++r) {
      // Exact, not approximate: the fast path must schedule the very same
      // floating-point times, or seeds stop reproducing across the toggle.
      EXPECT_EQ(a.pulses(v)[r].real_time, b.pulses(v)[r].real_time)
          << "node " << v << " round " << r;
      EXPECT_EQ(a.pulses(v)[r].local_time, b.pulses(v)[r].local_time)
          << "node " << v << " round " << r;
    }
  }
}

void expect_runs_identical(const sim::RunResult& a, const sim::RunResult& b) {
  expect_traces_identical(a.trace, b.trace);
  EXPECT_EQ(a.messages, b.messages);
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.sign_ops, b.sign_ops);
  EXPECT_EQ(a.verify_ops, b.verify_ops);
  EXPECT_EQ(a.signatures_carried, b.signatures_carried);
  EXPECT_EQ(a.violations, b.violations);
}

/// One complete-world run with everything pinned except the knob under test.
sim::RunResult run_complete(baselines::ProtocolKind protocol,
                            crypto::Pki::Kind pki, bool batch,
                            std::uint32_t f, std::uint32_t n = 5,
                            sim::DelayKind delay = sim::DelayKind::kRandom) {
  sim::ModelParams model;
  model.n = n;
  model.f = f;
  model.d = 1.0;
  model.u = 0.05;
  model.u_tilde = 0.05;
  model.vartheta = 1.02;
  const auto setup = baselines::make_setup(protocol, model);
  EXPECT_TRUE(setup.feasible);
  auto honest = baselines::make_protocol_factory(setup, 6);

  sim::WorldConfig config;
  config.model = model;
  config.seed = 42;
  config.initial_offset = setup.initial_offset;
  config.horizon = setup.initial_offset + 8.0 * setup.round_length;
  config.pki_kind = pki;
  config.batch = batch;
  config.delay_kind = delay;
  config.faulty = sim::default_faulty_set(f);

  sim::ByzantineFactory byz;
  if (f > 0)
    byz = core::make_byzantine_factory(core::ByzStrategy::kSplit, honest, 42,
                                       0.0, 0.0);
  sim::World world(config, std::move(honest), std::move(byz));
  return world.run();
}

TEST(FastPathDifferential, CompleteWorldIdenticalAcrossBatchToggle) {
  for (const auto protocol :
       {baselines::ProtocolKind::kCps, baselines::ProtocolKind::kSrikanthToueg,
        baselines::ProtocolKind::kFloodProbe}) {
    for (const std::uint32_t f : {0u, 1u}) {
      const auto fast = run_complete(protocol, crypto::Pki::Kind::kSymbolic,
                                     /*batch=*/true, f);
      const auto slow = run_complete(protocol, crypto::Pki::Kind::kSymbolic,
                                     /*batch=*/false, f);
      expect_runs_identical(fast, slow);
    }
  }
}

TEST(FastPathDifferential, FaultyBroadcastsCoalesceAtMaxFaultLoad) {
  // n=32 with f=15 split-strategy Byzantine nodes echoing every dealer
  // signature: faulty broadcasts now batch too, so the queue schedules a
  // small fraction of the logical events while every observable (trace,
  // counters, violations) matches the per-receiver reference path.
  const auto fast =
      run_complete(baselines::ProtocolKind::kCps, crypto::Pki::Kind::kSymbolic,
                   /*batch=*/true, 15, 32, sim::DelayKind::kSplit);
  const auto slow =
      run_complete(baselines::ProtocolKind::kCps, crypto::Pki::Kind::kSymbolic,
                   /*batch=*/false, 15, 32, sim::DelayKind::kSplit);
  expect_runs_identical(fast, slow);
  EXPECT_GT(fast.events, 0u);
  EXPECT_LE(static_cast<double>(fast.queue_events),
            0.25 * static_cast<double>(fast.events));
  // The reference path schedules about one queue event per logical event.
  EXPECT_GE(static_cast<double>(slow.queue_events),
            0.9 * static_cast<double>(slow.events));
}

TEST(FastPathDifferential, CompleteWorldIdenticalAbstractVsRealCrypto) {
  // Same config seed, only the Pki kind varies: the signature registry that
  // every simulation runs must reproduce real HMAC-SHA-256 signing exactly
  // (op counts included) — unforgeability, not the tag bytes, drives the
  // protocols.
  for (const auto protocol :
       {baselines::ProtocolKind::kCps, baselines::ProtocolKind::kSrikanthToueg,
        baselines::ProtocolKind::kFloodProbe}) {
    const auto real = run_complete(protocol, crypto::Pki::Kind::kHmac,
                                   /*batch=*/true, 1);
    const auto abstracted = run_complete(
        protocol, crypto::Pki::Kind::kSymbolic, /*batch=*/true, 1);
    expect_runs_identical(real, abstracted);
    EXPECT_GT(real.sign_ops, 0u);
    EXPECT_GT(real.verify_ops, 0u);
  }
}

void expect_relay_runs_identical(const relay::RelayRunResult& a,
                                 const relay::RelayRunResult& b) {
  expect_traces_identical(a.trace, b.trace);
  EXPECT_EQ(a.worst_hops, b.worst_hops);
  EXPECT_EQ(a.physical_messages, b.physical_messages);
  EXPECT_EQ(a.floods, b.floods);
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.sign_ops, b.sign_ops);
  EXPECT_EQ(a.verify_ops, b.verify_ops);
}

relay::RelayRunResult run_relay(crypto::Pki::Kind pki, bool batch,
                                relay::RelayFaultKind fault_kind,
                                std::uint32_t f) {
  relay::RelayConfig config;
  config.topology = relay::Topology::hypercube(3);
  config.hop_model.n = 8;
  config.hop_model.f = f;
  config.hop_model.d = 1.0;
  config.hop_model.u = 0.05;
  config.hop_model.u_tilde = 0.05;
  config.hop_model.vartheta = 1.01;
  config.seed = 42;
  config.faulty = sim::default_faulty_set(f);
  config.fault_kind = fault_kind;
  config.pki_kind = pki;
  config.batch = batch;

  const auto effective = relay::compute_effective(config);
  const auto setup = baselines::make_setup(baselines::ProtocolKind::kCps,
                                           effective.model);
  EXPECT_TRUE(setup.feasible);
  config.initial_offset = setup.initial_offset;
  config.horizon = setup.initial_offset + 8.0 * setup.round_length;
  relay::RelayWorld world(config, baselines::make_protocol_factory(setup, 6),
                          effective);
  return world.run();
}

TEST(FastPathDifferential, RelayWorldIdenticalAcrossBatchToggle) {
  for (const auto fault : {relay::RelayFaultKind::kCrash,
                           relay::RelayFaultKind::kMaxDelay,
                           relay::RelayFaultKind::kReorder,
                           relay::RelayFaultKind::kSelectiveDrop}) {
    for (const std::uint32_t f : {0u, 1u}) {
      const auto fast = run_relay(crypto::Pki::Kind::kSymbolic,
                                  /*batch=*/true, fault, f);
      const auto slow = run_relay(crypto::Pki::Kind::kSymbolic,
                                  /*batch=*/false, fault, f);
      expect_relay_runs_identical(fast, slow);
    }
  }
}

TEST(FastPathDifferential, RelayWorldIdenticalAbstractVsRealCrypto) {
  // The registry against real HMAC-SHA-256 signing, as in the complete world.
  const auto real = run_relay(crypto::Pki::Kind::kHmac, /*batch=*/true,
                              relay::RelayFaultKind::kCrash, 1);
  const auto abstracted = run_relay(crypto::Pki::Kind::kSymbolic,
                                    /*batch=*/true,
                                    relay::RelayFaultKind::kCrash, 1);
  expect_relay_runs_identical(real, abstracted);
  EXPECT_GT(real.sign_ops, 0u);
  EXPECT_GT(real.verify_ops, 0u);
}

// --- Network-level delivery-order property -------------------------------

struct NetFixture {
  sim::Engine engine;
  std::vector<NodeId> order;
  std::unique_ptr<sim::Network> net;

  NetFixture(sim::DelayKind kind, bool batch,
             std::vector<bool> faulty = std::vector<bool>(6, false),
             sim::Enforcement enforcement = sim::Enforcement::kThrow) {
    sim::ModelParams m;
    m.n = 6;
    m.f = 2;
    m.d = 1.0;
    m.u = 0.2;
    m.u_tilde = 0.3;
    m.vartheta = 1.01;
    net = std::make_unique<sim::Network>(
        engine, m, std::move(faulty), sim::make_delay_policy(kind, 6),
        util::Rng(7), enforcement);
    net->set_batch(batch);
    net->set_deliver(
        [this](NodeId to, const sim::Message&) { order.push_back(to); });
  }
};

constexpr sim::DelayKind kAllDelayKinds[] = {
    sim::DelayKind::kMax, sim::DelayKind::kMin, sim::DelayKind::kRandom,
    sim::DelayKind::kSplit};

TEST(FastPathDifferential, BatchedBroadcastPreservesDeliveryOrder) {
  // Two broadcasts scheduled back-to-back: the batched path must deliver in
  // the exact per-receiver order of the reference path — within a run by
  // receiver order, across equal-time runs by scheduling order (the queue's
  // FIFO tie-break).
  for (const auto kind : kAllDelayKinds) {
    NetFixture fast(kind, /*batch=*/true);
    NetFixture slow(kind, /*batch=*/false);
    for (auto* fx : {&fast, &slow}) {
      fx->net->broadcast(0, sim::Message{});
      fx->net->broadcast(1, sim::Message{});
      fx->engine.run_until(2.0);
    }
    EXPECT_EQ(fast.order, slow.order) << sim::to_string(kind);
    EXPECT_EQ(fast.engine.events_processed(), slow.engine.events_processed())
        << sim::to_string(kind);
    EXPECT_EQ(fast.net->stats().messages, slow.net->stats().messages)
        << sim::to_string(kind);
  }
}

TEST(FastPathDifferential, BatchedBroadcastSharesOneArenaPayload) {
  // With all-equal delays a 5-receiver broadcast is one aggregate event over
  // one arena payload; the reference path acquires one payload per receiver.
  NetFixture fast(sim::DelayKind::kMax, /*batch=*/true);
  NetFixture slow(sim::DelayKind::kMax, /*batch=*/false);
  fast.net->broadcast(0, sim::Message{});
  slow.net->broadcast(0, sim::Message{});
  EXPECT_EQ(fast.net->arena().acquired(), 1u);
  EXPECT_EQ(slow.net->arena().acquired(), 5u);
  fast.engine.run_until(2.0);
  slow.engine.run_until(2.0);
  EXPECT_EQ(fast.order, slow.order);
  // All payloads released after delivery; slots stand by for reuse.
  EXPECT_EQ(fast.net->arena().live(), 0u);
  EXPECT_EQ(slow.net->arena().live(), 0u);
}

// --- Faulty senders on the batched path ----------------------------------

constexpr NodeId kFaultySender = 4;

/// Nodes 4 and 5 are faulty; node 4 broadcasts.
std::vector<bool> two_faulty() {
  return {false, false, false, false, true, true};
}

/// A signed message from the faulty sender carrying two honest signatures
/// (nodes 0 and 1) and one colluding signature (node 5).
sim::Message echo_of_honest(crypto::Pki& pki) {
  sim::Message m;
  m.kind = sim::MsgKind::kTcbSig;
  m.sig = pki.sign(0, crypto::make_pulse_payload(1));
  m.sigs = {pki.sign(1, crypto::make_pulse_payload(1)),
            pki.sign(5, crypto::make_pulse_payload(1))};
  return m;
}

TEST(FastPathDifferential, FaultyBroadcastOfKnownSignaturesIsBatched) {
  crypto::Pki pki(6, crypto::Pki::Kind::kSymbolic, 1);
  const sim::Message m = echo_of_honest(pki);
  for (const auto kind : kAllDelayKinds) {
    NetFixture fast(kind, /*batch=*/true, two_faulty());
    NetFixture slow(kind, /*batch=*/false, two_faulty());
    for (auto* fx : {&fast, &slow}) {
      // The adversary already holds both honest signatures.
      fx->net->knowledge().learn(m.sig);
      fx->net->knowledge().learn(m.sigs[0]);
      fx->net->broadcast(kFaultySender, m);
      fx->net->broadcast(0, sim::Message{});
    }
    // One payload per broadcast on the batched path, one per receiver on
    // the reference path.
    EXPECT_EQ(fast.net->arena().acquired(), 2u) << sim::to_string(kind);
    EXPECT_EQ(slow.net->arena().acquired(), 10u) << sim::to_string(kind);
    for (auto* fx : {&fast, &slow}) fx->engine.run_until(2.0);

    EXPECT_EQ(fast.order, slow.order) << sim::to_string(kind);
    EXPECT_EQ(fast.engine.events_processed(), slow.engine.events_processed())
        << sim::to_string(kind);
    EXPECT_EQ(fast.net->stats().messages, slow.net->stats().messages);
    EXPECT_EQ(fast.net->stats().by_kind, slow.net->stats().by_kind);
    EXPECT_EQ(fast.net->stats().signatures_carried,
              slow.net->stats().signatures_carried);
    // Delivery to faulty node 5 taught the adversary the colluding
    // signature on both paths alike.
    EXPECT_EQ(fast.net->knowledge().size(), 3u) << sim::to_string(kind);
    EXPECT_EQ(fast.net->knowledge().size(), slow.net->knowledge().size());
    EXPECT_TRUE(fast.net->violations().empty());
    EXPECT_EQ(fast.net->arena().live(), 0u);
  }
}

TEST(FastPathDifferential, FaultyBroadcastOfUnknownSignatureRecordsPerReceiver) {
  crypto::Pki pki(6, crypto::Pki::Kind::kSymbolic, 1);
  const sim::Message m = echo_of_honest(pki);
  NetFixture fast(sim::DelayKind::kSplit, /*batch=*/true, two_faulty(),
                  sim::Enforcement::kRecord);
  NetFixture slow(sim::DelayKind::kSplit, /*batch=*/false, two_faulty(),
                  sim::Enforcement::kRecord);
  for (auto* fx : {&fast, &slow}) {
    // Node 1's signature is known, node 0's is not: every one of the five
    // sends records exactly one violation.
    fx->net->knowledge().learn(m.sigs[0]);
    fx->net->broadcast(kFaultySender, m);
    fx->engine.run_until(2.0);
  }
  ASSERT_EQ(fast.net->violations().size(), 5u);
  EXPECT_EQ(fast.net->violations(), slow.net->violations());
  EXPECT_NE(fast.net->violations()[0].find("honest node 0"),
            std::string::npos);
  // Recorded, still delivered, identically.
  EXPECT_EQ(fast.order, slow.order);
  EXPECT_EQ(fast.order.size(), 5u);
  EXPECT_EQ(fast.engine.events_processed(), slow.engine.events_processed());
  EXPECT_EQ(fast.net->stats().messages, slow.net->stats().messages);
}

TEST(FastPathDifferential, FaultyBroadcastOfUnknownSignatureThrowsFirst) {
  crypto::Pki pki(6, crypto::Pki::Kind::kSymbolic, 1);
  const sim::Message m = echo_of_honest(pki);
  for (const bool batch : {true, false}) {
    NetFixture fx(sim::DelayKind::kMax, batch, two_faulty(),
                  sim::Enforcement::kThrow);
    EXPECT_THROW(fx.net->broadcast(kFaultySender, m), util::ModelViolation)
        << "batch=" << batch;
    // Thrown before anything was enqueued or counted.
    EXPECT_EQ(fx.engine.events_scheduled(), 0u) << "batch=" << batch;
    EXPECT_FALSE(fx.engine.step()) << "batch=" << batch;
    EXPECT_EQ(fx.net->arena().live(), 0u) << "batch=" << batch;
    EXPECT_EQ(fx.net->stats().messages, 0u) << "batch=" << batch;
    EXPECT_TRUE(fx.order.empty());
  }
}

}  // namespace
}  // namespace crusader
