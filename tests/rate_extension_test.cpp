// Tests for the k-messages-per-epoch rate extension (RLN-v2-style slots).
// The paper's scheme is the k = 1 special case; these tests pin down that
// (a) k = 1 behaviour is bit-identical to the paper's external nullifier,
// (b) each slot is an independent rate-limit line, and (c) slot reuse is
// slashable while cross-slot traffic is not.

#include <gtest/gtest.h>

#include <atomic>
#include <iterator>
#include <thread>
#include <vector>

#include "hash/poseidon.h"
#include "rln/epoch.h"
#include "rln/group.h"
#include "rln/nullifier_map.h"
#include "rln/prover.h"
#include "shamir/shamir.h"
#include "waku/harness.h"
#include "zksnark/rln_circuit.h"

namespace wakurln {
namespace {

using field::Fr;
using util::Bytes;
using util::Rng;

TEST(ExternalNullifierTest, RateOneMatchesPaperScheme) {
  for (std::uint64_t epoch : {0ull, 7ull, 123456789ull}) {
    EXPECT_EQ(rln::external_nullifier(epoch, 0, 1), Fr::from_u64(epoch));
  }
}

TEST(ExternalNullifierTest, SlotsAreDistinct) {
  const std::uint64_t epoch = 42;
  const auto e0 = rln::external_nullifier(epoch, 0, 3);
  const auto e1 = rln::external_nullifier(epoch, 1, 3);
  const auto e2 = rln::external_nullifier(epoch, 2, 3);
  EXPECT_NE(e0, e1);
  EXPECT_NE(e1, e2);
  EXPECT_NE(e0, e2);
  // And distinct across epochs for the same slot.
  EXPECT_NE(e0, rln::external_nullifier(43, 0, 3));
}

TEST(ExternalNullifierTest, BoundsChecked) {
  EXPECT_THROW(rln::external_nullifier(1, 3, 3), std::out_of_range);
  EXPECT_THROW(rln::external_nullifier(1, 0, 0), std::invalid_argument);
}

// For k > 1 external_nullifier answers from a per-thread memo. Every
// answer must equal the unmemoised definition, whatever the access order.
Fr direct_nullifier(std::uint64_t epoch, std::uint64_t index) {
  return hash::poseidon_hash2(Fr::from_u64(epoch), Fr::from_u64(index));
}

constexpr std::uint64_t kMemoRates[] = {2, 3, 7};

TEST(ExternalNullifierMemoTest, SweepMatchesDirectPoseidon) {
  for (std::uint64_t rate : kMemoRates) {
    for (std::uint64_t epoch = 0; epoch <= 300; ++epoch) {
      for (std::uint64_t slot = 0; slot < rate; ++slot) {
        const Fr want = direct_nullifier(epoch, slot);
        EXPECT_EQ(rln::external_nullifier(epoch, slot, rate), want)
            << "epoch " << epoch << " slot " << slot << " rate " << rate;
        // The second call is answered by the memo.
        EXPECT_EQ(rln::external_nullifier(epoch, slot, rate), want)
            << "repeat: epoch " << epoch << " slot " << slot << " rate " << rate;
      }
    }
  }
}

TEST(ExternalNullifierMemoTest, CollidingEpochsDoNotAlias) {
  // Epochs 64 apart map to the same entry of a 64-entry direct-mapped
  // table at every rate (and 32 apart at rate 2); alternating between
  // them evicts on every call, and each answer must still be its own.
  for (std::uint64_t rate : kMemoRates) {
    for (std::uint64_t epoch = 0; epoch < 40; ++epoch) {
      for (std::uint64_t slot = 0; slot < rate; ++slot) {
        for (std::uint64_t other : {epoch + 64, epoch + 128, epoch + 32, epoch}) {
          EXPECT_EQ(rln::external_nullifier(other, slot, rate),
                    direct_nullifier(other, slot))
              << "epoch " << other << " slot " << slot << " rate " << rate;
        }
      }
    }
  }
}

TEST(ExternalNullifierMemoTest, AlternatingRatesOnOneThread) {
  // The same (epoch, slot) asked under different rates, interleaved with
  // the bare-epoch k = 1 case: a hit must match the whole triple.
  for (std::uint64_t epoch = 0; epoch < 100; ++epoch) {
    for (std::uint64_t rate : {2ull, 7ull, 3ull, 1ull, 2ull, 3ull}) {
      for (std::uint64_t slot = 0; slot < rate; ++slot) {
        const Fr want = rate == 1 ? Fr::from_u64(epoch) : direct_nullifier(epoch, slot);
        EXPECT_EQ(rln::external_nullifier(epoch, slot, rate), want)
            << "epoch " << epoch << " slot " << slot << " rate " << rate;
      }
    }
  }
}

TEST(ExternalNullifierMemoTest, FourThreadsOverlappingSweepsMatchReference) {
  // Shard lanes validate concurrently; each thread has its own memo, so
  // overlapping sweeps in different orders must all see the reference.
  constexpr std::uint64_t kSweep = 100;
  constexpr std::uint64_t kEpochs = 20 * 3 + kSweep;
  std::vector<Fr> reference;  // [rate idx][epoch][slot < 7]
  for (std::uint64_t rate : kMemoRates) {
    for (std::uint64_t epoch = 0; epoch < kEpochs; ++epoch) {
      for (std::uint64_t slot = 0; slot < 7; ++slot) {
        reference.push_back(slot < rate ? direct_nullifier(epoch, slot) : Fr::zero());
      }
    }
  }
  const auto ref = [&](std::size_t r, std::uint64_t epoch, std::uint64_t slot) {
    return reference[(r * kEpochs + epoch) * 7 + slot];
  };

  std::atomic<std::uint64_t> mismatches{0};
  std::atomic<std::uint64_t> checked{0};
  std::vector<std::thread> threads;
  for (std::uint64_t t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      // Thread t sweeps epochs [20t, 20t + 100) once per rate (rates
      // rotated by t), forwards on even threads and backwards on odd
      // ones; a sweep is long enough to wrap the table.
      for (std::size_t k = 0; k < std::size(kMemoRates); ++k) {
        const std::size_t r = (k + t) % std::size(kMemoRates);
        const std::uint64_t rate = kMemoRates[r];
        for (std::uint64_t step = 0; step < kSweep; ++step) {
          const std::uint64_t epoch =
              t % 2 == 0 ? 20 * t + step : 20 * t + kSweep - 1 - step;
          for (std::uint64_t slot = 0; slot < rate; ++slot) {
            if (rln::external_nullifier(epoch, slot, rate) != ref(r, epoch, slot)) {
              mismatches.fetch_add(1, std::memory_order_relaxed);
            }
            checked.fetch_add(1, std::memory_order_relaxed);
          }
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(mismatches.load(), 0u);
  EXPECT_EQ(checked.load(), 4u * kSweep * (2u + 3u + 7u));
}

struct RateFixture {
  static constexpr std::uint64_t kRate = 3;
  Rng rng{4040};
  rln::RlnGroup group{8};
  rln::Identity id = rln::Identity::generate(rng);
  std::uint64_t index = group.add_member(id.pk);
  zksnark::KeyPair keys = zksnark::MockGroth16::setup(8, rng);
  rln::RlnProver prover{keys.pk, id, kRate};
  rln::RlnVerifier verifier{keys.vk, kRate};
};

TEST(RateProverTest, RejectsZeroRate) {
  RateFixture f;
  EXPECT_THROW(rln::RlnProver(f.keys.pk, f.id, 0), std::invalid_argument);
  EXPECT_THROW(rln::RlnVerifier(f.keys.vk, 0), std::invalid_argument);
}

TEST(RateProverTest, AllSlotsVerify) {
  RateFixture f;
  for (std::uint64_t slot = 0; slot < RateFixture::kRate; ++slot) {
    const Bytes payload = util::to_bytes("slot " + std::to_string(slot));
    const auto signal = f.prover.create_signal(payload, 5, f.group, f.index, f.rng, slot);
    ASSERT_TRUE(signal.has_value()) << "slot " << slot;
    EXPECT_EQ(signal->message_index, slot);
    EXPECT_TRUE(
        f.verifier.verify_prepared(*signal, zksnark::RlnCircuit::message_to_x(payload)));
  }
}

TEST(RateProverTest, SlotBeyondRateRefused) {
  RateFixture f;
  const Bytes payload = util::to_bytes("overflow");
  EXPECT_FALSE(
      f.prover.create_signal(payload, 5, f.group, f.index, f.rng, RateFixture::kRate)
          .has_value());
}

TEST(RateProverTest, VerifierRejectsOutOfRangeSlot) {
  RateFixture f;
  const Bytes payload = util::to_bytes("m");
  auto signal = f.prover.create_signal(payload, 5, f.group, f.index, f.rng, 1);
  ASSERT_TRUE(signal.has_value());
  signal->message_index = RateFixture::kRate;  // forged out-of-range slot
  EXPECT_FALSE(
      f.verifier.verify_prepared(*signal, zksnark::RlnCircuit::message_to_x(payload)));
}

TEST(RateProverTest, SlotIndexIsBoundIntoProof) {
  // Moving a valid signal to another slot must invalidate it (the external
  // nullifier is part of the proven statement).
  RateFixture f;
  const Bytes payload = util::to_bytes("m");
  auto signal = f.prover.create_signal(payload, 5, f.group, f.index, f.rng, 1);
  ASSERT_TRUE(signal.has_value());
  signal->message_index = 2;
  EXPECT_FALSE(
      f.verifier.verify_prepared(*signal, zksnark::RlnCircuit::message_to_x(payload)));
}

TEST(RateProverTest, DistinctSlotsHaveDistinctNullifiers) {
  RateFixture f;
  const Bytes payload = util::to_bytes("same payload");
  const auto s0 = f.prover.create_signal(payload, 5, f.group, f.index, f.rng, 0);
  const auto s1 = f.prover.create_signal(payload, 5, f.group, f.index, f.rng, 1);
  ASSERT_TRUE(s0 && s1);
  EXPECT_NE(s0->nullifier, s1->nullifier);
}

TEST(RateProverTest, CrossSlotSharesDoNotReconstructKey) {
  // Two messages in different slots of the same epoch sit on different
  // lines: combining their shares must NOT yield the secret key.
  RateFixture f;
  const Bytes m1 = util::to_bytes("first");
  const Bytes m2 = util::to_bytes("second");
  const auto s0 = f.prover.create_signal(m1, 5, f.group, f.index, f.rng, 0);
  const auto s1 = f.prover.create_signal(m2, 5, f.group, f.index, f.rng, 1);
  ASSERT_TRUE(s0 && s1);
  const auto recovered = shamir::reconstruct(
      shamir::Share{zksnark::RlnCircuit::message_to_x(m1), s0->y},
      shamir::Share{zksnark::RlnCircuit::message_to_x(m2), s1->y});
  ASSERT_TRUE(recovered.has_value());
  EXPECT_NE(*recovered, f.id.sk);
}

TEST(RateProverTest, SlotReuseReconstructsKey) {
  RateFixture f;
  rln::NullifierMap map;
  const Bytes m1 = util::to_bytes("first");
  const Bytes m2 = util::to_bytes("second");
  const auto s0 = f.prover.create_signal(m1, 5, f.group, f.index, f.rng, 2);
  const auto s0b = f.prover.create_signal(m2, 5, f.group, f.index, f.rng, 2);
  ASSERT_TRUE(s0 && s0b);
  map.observe(5, s0->nullifier, zksnark::RlnCircuit::message_to_x(m1), s0->y);
  const auto result =
      map.observe(5, s0b->nullifier, zksnark::RlnCircuit::message_to_x(m2), s0b->y);
  EXPECT_EQ(result.outcome, rln::NullifierMap::Outcome::kDoubleSignal);
  ASSERT_TRUE(result.breached_sk.has_value());
  EXPECT_EQ(*result.breached_sk, f.id.sk);
}

// Full network behaviour with k = 3.
struct RateWorld {
  waku::HarnessConfig cfg = [] {
    waku::HarnessConfig c = waku::HarnessConfig::defaults();
    c.node_count = 8;
    c.rln.messages_per_epoch = 3;
    c.seed = 6060;
    return c;
  }();
  waku::SimHarness world{cfg};

  RateWorld() {
    world.subscribe_all("rate/topic");
    world.register_all();
    world.run_seconds(3);
  }
};

TEST(RateNetworkTest, HonestClientGetsKMessagesPerEpoch) {
  RateWorld rw;
  auto& node = rw.world.node(0);
  EXPECT_EQ(node.publish("rate/topic", util::to_bytes("one")),
            waku::WakuRlnRelay::PublishOutcome::kPublished);
  EXPECT_EQ(node.publish("rate/topic", util::to_bytes("two")),
            waku::WakuRlnRelay::PublishOutcome::kPublished);
  EXPECT_EQ(node.publish("rate/topic", util::to_bytes("three")),
            waku::WakuRlnRelay::PublishOutcome::kPublished);
  EXPECT_EQ(node.publish("rate/topic", util::to_bytes("four")),
            waku::WakuRlnRelay::PublishOutcome::kRateLimited);

  rw.world.run_seconds(10);
  EXPECT_EQ(rw.world.nodes_delivered(util::to_bytes("one")), rw.world.size());
  EXPECT_EQ(rw.world.nodes_delivered(util::to_bytes("two")), rw.world.size());
  EXPECT_EQ(rw.world.nodes_delivered(util::to_bytes("three")), rw.world.size());
  EXPECT_EQ(rw.world.nodes_delivered(util::to_bytes("four")), 0u);
  EXPECT_EQ(rw.world.aggregate_stats().double_signals, 0u);
}

TEST(RateNetworkTest, ExceedingRateUncheckedIsSlashed) {
  RateWorld rw;
  auto& spammer = rw.world.node(1);
  // Fill all three honest slots, then keep going with a modified client.
  spammer.publish("rate/topic", util::to_bytes("s1"));
  spammer.publish("rate/topic", util::to_bytes("s2"));
  spammer.publish("rate/topic", util::to_bytes("s3"));
  spammer.publish_unchecked("rate/topic", util::to_bytes("s4-violation"));
  rw.world.run_seconds(30);

  EXPECT_GE(rw.world.aggregate_stats().double_signals, 1u);
  EXPECT_FALSE(rw.world.contract().is_active(spammer.identity().pk));
}

TEST(RateNetworkTest, RateResetsNextEpoch) {
  RateWorld rw;
  auto& node = rw.world.node(2);
  for (int i = 0; i < 3; ++i) {
    node.publish("rate/topic", util::to_bytes("e1-" + std::to_string(i)));
  }
  EXPECT_EQ(node.publish("rate/topic", util::to_bytes("blocked")),
            waku::WakuRlnRelay::PublishOutcome::kRateLimited);
  rw.world.run_seconds(rw.cfg.rln.epoch_period_seconds);
  EXPECT_EQ(node.publish("rate/topic", util::to_bytes("fresh epoch")),
            waku::WakuRlnRelay::PublishOutcome::kPublished);
}

}  // namespace
}  // namespace wakurln
