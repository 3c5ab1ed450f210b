#include "sim/network.hpp"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <gtest/gtest.h>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "util/check.hpp"

namespace crusader::sim {
namespace {

ModelParams test_model() {
  ModelParams m;
  m.n = 4;
  m.f = 1;
  m.d = 1.0;
  m.u = 0.1;
  m.u_tilde = 0.3;
  m.vartheta = 1.05;
  return m;
}

struct Fixture {
  Engine engine;
  std::vector<std::pair<NodeId, Message>> delivered;

  std::unique_ptr<Network> make(DelayKind kind,
                                std::vector<bool> faulty = {false, false,
                                                            false, true},
                                Enforcement enforcement = Enforcement::kThrow) {
    auto net = std::make_unique<Network>(engine, test_model(), faulty,
                                         make_delay_policy(kind, 4),
                                         util::Rng(1), enforcement);
    net->set_deliver([this](NodeId to, const Message& m) {
      delivered.emplace_back(to, m);
    });
    return net;
  }
};

TEST(Network, HonestDelayWithinBounds) {
  Fixture fx;
  auto net = fx.make(DelayKind::kRandom);
  for (int i = 0; i < 50; ++i) net->send(0, 1, Message{});
  // All deliveries happen in [d-u, d] = [0.9, 1.0].
  fx.engine.run_until(0.9 - 1e-9);
  EXPECT_TRUE(fx.delivered.empty());
  fx.engine.run_until(1.0 + 1e-9);
  EXPECT_EQ(fx.delivered.size(), 50u);
}

TEST(Network, FaultyLinkUsesUtilde) {
  Fixture fx;
  auto net = fx.make(DelayKind::kMin);
  net->send(3, 0, Message{});  // faulty sender: lo = d - u_tilde = 0.7
  fx.engine.run_until(0.7 + 1e-9);
  EXPECT_EQ(fx.delivered.size(), 1u);
}

TEST(Network, MinDelayHonest) {
  Fixture fx;
  auto net = fx.make(DelayKind::kMin);
  net->send(0, 1, Message{});
  fx.engine.run_until(0.9 - 1e-6);
  EXPECT_TRUE(fx.delivered.empty());
  fx.engine.run_until(0.9 + 1e-9);
  EXPECT_EQ(fx.delivered.size(), 1u);
}

TEST(Network, MaxDelay) {
  Fixture fx;
  auto net = fx.make(DelayKind::kMax);
  net->send(0, 1, Message{});
  fx.engine.run_until(1.0 - 1e-6);
  EXPECT_TRUE(fx.delivered.empty());
  fx.engine.run_until(1.0 + 1e-9);
  EXPECT_EQ(fx.delivered.size(), 1u);
}

TEST(Network, SplitDelayByRecipient) {
  Fixture fx;
  auto net = fx.make(DelayKind::kSplit);
  net->send(0, 1, Message{});  // id 1 < n/2 → min delay
  net->send(0, 2, Message{});  // id 2 ≥ n/2 → max delay
  fx.engine.run_until(0.95);
  ASSERT_EQ(fx.delivered.size(), 1u);
  EXPECT_EQ(fx.delivered[0].first, 1u);
  fx.engine.run_until(1.1);
  EXPECT_EQ(fx.delivered.size(), 2u);
}

TEST(Network, SelfSendRejected) {
  Fixture fx;
  auto net = fx.make(DelayKind::kMax);
  EXPECT_THROW(net->send(1, 1, Message{}), util::CheckFailure);
}

TEST(Network, BroadcastRejectsOutOfRangeSender) {
  // The named range check fires first on both paths, not a bare
  // std::out_of_range from the faulty-set lookup.
  for (const bool batch : {true, false}) {
    Fixture fx;
    auto net = fx.make(DelayKind::kMax);
    net->set_batch(batch);
    try {
      net->broadcast(4, Message{});
      ADD_FAILURE() << "out-of-range sender accepted, batch=" << batch;
    } catch (const util::CheckFailure& e) {
      EXPECT_NE(std::string(e.what()).find("sender 4 out of range"),
                std::string::npos)
          << e.what();
    }
    EXPECT_EQ(net->stats().messages, 0u);
    EXPECT_EQ(net->arena().acquired(), 0u);
  }
}

TEST(Network, ByzantineExplicitDelayHonored) {
  Fixture fx;
  auto net = fx.make(DelayKind::kMax);
  net->send_with_delay(3, 0, Message{}, 0.75);
  fx.engine.run_until(0.75 + 1e-9);
  EXPECT_EQ(fx.delivered.size(), 1u);
}

TEST(Network, ByzantineDelayOutOfBoundsThrows) {
  Fixture fx;
  auto net = fx.make(DelayKind::kMax);
  EXPECT_THROW(net->send_with_delay(3, 0, Message{}, 0.5),
               util::ModelViolation);
  EXPECT_THROW(net->send_with_delay(3, 0, Message{}, 1.5),
               util::ModelViolation);
}

TEST(Network, ByzantineDelayFromHonestRejected) {
  Fixture fx;
  auto net = fx.make(DelayKind::kMax);
  EXPECT_THROW(net->send_with_delay(0, 1, Message{}, 1.0),
               util::CheckFailure);
}

TEST(Network, KnowledgeRuleBlocksUnseenHonestSignature) {
  Fixture fx;
  auto net = fx.make(DelayKind::kMax);
  crypto::Pki pki(4, crypto::Pki::Kind::kSymbolic, 1);
  Message m;
  m.kind = MsgKind::kTcbSig;
  m.sig = pki.sign(0, crypto::make_pulse_payload(1));  // honest node 0's sig
  EXPECT_THROW(net->send(3, 1, m), util::ModelViolation);
}

TEST(Network, KnowledgeRuleAllowsAfterReceipt) {
  Fixture fx;
  auto net = fx.make(DelayKind::kMax);
  crypto::Pki pki(4, crypto::Pki::Kind::kSymbolic, 1);
  Message m;
  m.kind = MsgKind::kTcbSig;
  m.sig = pki.sign(0, crypto::make_pulse_payload(1));
  net->send(0, 3, m);          // deliver to the faulty node first
  fx.engine.run_until(2.0);    // delivery learns the signature
  net->send(3, 1, m);          // now the replay is legal
  fx.engine.run_until(4.0);
  EXPECT_EQ(fx.delivered.size(), 2u);
}

TEST(Network, KnowledgeRuleIgnoresFaultySigners) {
  Fixture fx;
  auto net = fx.make(DelayKind::kMax);
  crypto::Pki pki(4, crypto::Pki::Kind::kSymbolic, 1);
  Message m;
  m.kind = MsgKind::kTcbSig;
  m.sig = pki.sign(3, crypto::make_pulse_payload(1));  // its own key
  net->send(3, 1, m);  // no throw
  fx.engine.run_until(2.0);
  EXPECT_EQ(fx.delivered.size(), 1u);
}

TEST(Network, RecordModeCollectsViolations) {
  Fixture fx;
  auto net = fx.make(DelayKind::kMax, {false, false, false, true},
                     Enforcement::kRecord);
  crypto::Pki pki(4, crypto::Pki::Kind::kSymbolic, 1);
  Message m;
  m.kind = MsgKind::kTcbSig;
  m.sig = pki.sign(0, crypto::make_pulse_payload(1));
  net->send(3, 1, m);  // violation recorded, message still delivered
  EXPECT_EQ(net->violations().size(), 1u);
  fx.engine.run_until(2.0);
  EXPECT_EQ(fx.delivered.size(), 1u);
}

TEST(Network, StatsCountMessagesAndSignatures) {
  Fixture fx;
  auto net = fx.make(DelayKind::kMax);
  crypto::Pki pki(4, crypto::Pki::Kind::kSymbolic, 1);
  Message plain;
  plain.kind = MsgKind::kLwPulse;
  net->send(0, 1, plain);
  Message with_sig;
  with_sig.kind = MsgKind::kTcbSig;
  with_sig.sig = pki.sign(0, crypto::make_pulse_payload(1));
  net->send(0, 1, with_sig);
  EXPECT_EQ(net->stats().messages, 2u);
  EXPECT_EQ(net->stats().signatures_carried, 1u);
  EXPECT_EQ(net->stats().by_kind[static_cast<std::size_t>(MsgKind::kLwPulse)],
            1u);
}

TEST(Network, MinDelayQuery) {
  Fixture fx;
  auto net = fx.make(DelayKind::kMax);
  EXPECT_DOUBLE_EQ(net->min_delay(0, 1), 0.9);   // honest-honest
  EXPECT_DOUBLE_EQ(net->min_delay(0, 3), 0.7);   // faulty endpoint
  EXPECT_DOUBLE_EQ(net->min_delay(3, 0), 0.7);
}

TEST(Network, SenderStamped) {
  Fixture fx;
  auto net = fx.make(DelayKind::kMax);
  net->send(2, 1, Message{});
  fx.engine.run_until(2.0);
  ASSERT_EQ(fx.delivered.size(), 1u);
  EXPECT_EQ(fx.delivered[0].second.sender, 2u);
}

// --- for_each_delay_run -----------------------------------------------------

struct DelayRun {
  double delay;
  std::uint32_t first;
  std::uint32_t last;
  std::uint32_t size;
  bool operator==(const DelayRun&) const = default;
};

/// Runs for_each_delay_run over `delays` and checks it against the
/// per-receiver loop: every visited index gets exactly its own delay, in
/// index order; runs are maximal; each delay is drawn once, in order, and
/// each run is emitted right after the draw that ends it. Returns the runs.
std::vector<DelayRun> checked_runs(const std::vector<double>& delays,
                                   std::uint32_t skip) {
  const auto count = static_cast<std::uint32_t>(delays.size());
  std::vector<std::uint32_t> drawn;
  std::vector<DelayRun> runs;
  std::vector<std::size_t> drawn_before_emit;
  for_each_delay_run(
      count, skip,
      [&](std::uint32_t i) {
        drawn.push_back(i);
        return delays[i];
      },
      [&](double delay, std::uint32_t first, std::uint32_t last,
          std::uint32_t size) {
        runs.push_back(DelayRun{delay, first, last, size});
        drawn_before_emit.push_back(drawn.size());
      });

  // The per-receiver reference: one (index, delay) per visited index.
  std::vector<std::pair<std::uint32_t, double>> reference;
  for (std::uint32_t i = 0; i < count; ++i)
    if (i != skip) reference.emplace_back(i, delays[i]);
  EXPECT_EQ(drawn.size(), reference.size());
  for (std::size_t k = 0; k < drawn.size() && k < reference.size(); ++k)
    EXPECT_EQ(drawn[k], reference[k].first);

  std::vector<std::pair<std::uint32_t, double>> expanded;
  for (std::size_t r = 0; r < runs.size(); ++r) {
    const DelayRun& run = runs[r];
    std::uint32_t visited = 0;
    for (std::uint32_t i = run.first; i <= run.last; ++i) {
      if (i == skip) continue;
      expanded.emplace_back(i, run.delay);
      ++visited;
    }
    EXPECT_EQ(visited, run.size);
    if (r > 0) {
      EXPECT_NE(runs[r - 1].delay, run.delay) << "run " << r;
    }
    // Emitted after the draw that ended it: all of its own draws plus the
    // next run's first, or every draw for the last run.
    const std::size_t visited_through_run = static_cast<std::size_t>(
        std::count_if(reference.begin(), reference.end(),
                      [&](const auto& e) { return e.first <= run.last; }));
    const std::size_t expected_draws =
        r + 1 < runs.size() ? visited_through_run + 1 : reference.size();
    EXPECT_EQ(drawn_before_emit[r], expected_draws) << "run " << r;
  }
  EXPECT_EQ(expanded, reference);
  return runs;
}

TEST(ForEachDelayRun, AllDelaysEqualIsOneRun) {
  const auto runs = checked_runs({0.5, 0.5, 0.5, 0.5, 0.5}, kNoSkip);
  EXPECT_EQ(runs, (std::vector<DelayRun>{{0.5, 0, 4, 5}}));
}

TEST(ForEachDelayRun, AllDelaysDistinctIsOneRunPerIndex) {
  const auto runs = checked_runs({0.1, 0.2, 0.3, 0.4}, kNoSkip);
  EXPECT_EQ(runs, (std::vector<DelayRun>{
                      {0.1, 0, 0, 1}, {0.2, 1, 1, 1}, {0.3, 2, 2, 1},
                      {0.4, 3, 3, 1}}));
}

TEST(ForEachDelayRun, SkippedFirstIndexStartsTheFirstRunAfterIt) {
  // The skipped index's delay is never drawn, so it cannot split a run.
  const auto runs = checked_runs({9.0, 0.5, 0.5, 0.7}, 0);
  EXPECT_EQ(runs, (std::vector<DelayRun>{{0.5, 1, 2, 2}, {0.7, 3, 3, 1}}));
}

TEST(ForEachDelayRun, SkippedMiddleIndexDoesNotBreakARun) {
  const auto runs = checked_runs({0.5, 0.5, 9.0, 0.5, 0.7}, 2);
  EXPECT_EQ(runs, (std::vector<DelayRun>{{0.5, 0, 3, 3}, {0.7, 4, 4, 1}}));
}

TEST(ForEachDelayRun, SkippedLastIndexEndsTheLastRunBeforeIt) {
  const auto runs = checked_runs({0.7, 0.5, 0.5, 9.0}, 3);
  EXPECT_EQ(runs, (std::vector<DelayRun>{{0.7, 0, 0, 1}, {0.5, 1, 2, 2}}));
}

TEST(ForEachDelayRun, EmptyAndFullySkippedInputsEmitNothing) {
  EXPECT_TRUE(checked_runs({}, kNoSkip).empty());
  EXPECT_TRUE(checked_runs({0.5}, 0).empty());
}

}  // namespace
}  // namespace crusader::sim
