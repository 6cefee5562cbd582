#include <gtest/gtest.h>

#include <vector>

#include "hash/poseidon.h"
#include "rln/epoch.h"
#include "rln/group.h"
#include "rln/identity.h"
#include "rln/nullifier_map.h"
#include "rln/prover.h"
#include "rln/signal.h"
#include "shamir/shamir.h"
#include "support/verify_reference.h"
#include "util/rng.h"
#include "zksnark/rln_circuit.h"

namespace wakurln::rln {
namespace {

using field::Fr;
using util::Bytes;
using util::Rng;

TEST(IdentityTest, PkIsPoseidonOfSk) {
  Rng rng(701);
  const Identity id = Identity::generate(rng);
  EXPECT_EQ(id.pk, hash::poseidon_hash1(id.sk));
  EXPECT_EQ(Identity::from_sk(id.sk), id);
}

TEST(IdentityTest, KeysSerializeTo32Bytes) {
  // Paper §IV: each peer persists 32 B public and secret keys.
  Rng rng(702);
  const Identity id = Identity::generate(rng);
  EXPECT_EQ(id.sk.to_bytes_be().size(), 32u);
  EXPECT_EQ(id.pk.to_bytes_be().size(), 32u);
}

TEST(EpochTest, EpochAtDividesByPeriod) {
  const EpochScheme scheme(10, 20);
  EXPECT_EQ(scheme.epoch_at(0), 0u);
  EXPECT_EQ(scheme.epoch_at(9), 0u);
  EXPECT_EQ(scheme.epoch_at(10), 1u);
  EXPECT_EQ(scheme.epoch_at(105), 10u);
}

TEST(EpochTest, ThresholdIsCeilOfDelayOverPeriod) {
  EXPECT_EQ(EpochScheme(10, 20).threshold(), 2u);   // D/T exact
  EXPECT_EQ(EpochScheme(10, 25).threshold(), 3u);   // rounds up
  EXPECT_EQ(EpochScheme(10, 0).threshold(), 0u);
  EXPECT_EQ(EpochScheme(1, 6).threshold(), 6u);
}

TEST(EpochTest, WithinThresholdIsSymmetric) {
  const EpochScheme scheme(10, 20);  // Thr = 2
  EXPECT_TRUE(scheme.within_threshold(100, 100));
  EXPECT_TRUE(scheme.within_threshold(98, 100));
  EXPECT_TRUE(scheme.within_threshold(102, 100));
  EXPECT_FALSE(scheme.within_threshold(97, 100));   // too old
  EXPECT_FALSE(scheme.within_threshold(103, 100));  // too far in the future
}

TEST(EpochTest, ZeroPeriodRejected) {
  EXPECT_THROW(EpochScheme(0, 10), std::invalid_argument);
}

TEST(GroupTest, AddAndLookupMembers) {
  Rng rng(703);
  RlnGroup group(8);
  const Identity a = Identity::generate(rng);
  const Identity b = Identity::generate(rng);
  const auto ia = group.add_member(a.pk);
  const auto ib = group.add_member(b.pk);
  EXPECT_EQ(ia, 0u);
  EXPECT_EQ(ib, 1u);
  EXPECT_EQ(group.member_count(), 2u);
  EXPECT_EQ(group.index_of(a.pk), ia);
  EXPECT_EQ(group.index_of(b.pk), ib);
  EXPECT_FALSE(group.index_of(Fr::from_u64(12345)).has_value());
}

TEST(GroupTest, RemoveMemberZeroesLeaf) {
  Rng rng(704);
  RlnGroup group(8);
  const Identity a = Identity::generate(rng);
  const auto ia = group.add_member(a.pk);
  const Fr root_before = group.root();
  group.remove_member(ia);
  EXPECT_EQ(group.member_count(), 0u);
  EXPECT_FALSE(group.is_active(ia));
  EXPECT_FALSE(group.index_of(a.pk).has_value());
  EXPECT_NE(group.root(), root_before);
  EXPECT_THROW(group.remove_member(ia), std::out_of_range);
}

TEST(GroupTest, RejectsZeroCommitment) {
  RlnGroup group(8);
  EXPECT_THROW(group.add_member(Fr::zero()), std::invalid_argument);
}

// A group built one add_member / remove_member at a time, against
// from_leaves of its leaf sequence (zero = a slashed slot): same root,
// counts, indices and membership paths.
void expect_from_leaves_matches(std::size_t depth, std::size_t members,
                                std::uint64_t seed) {
  Rng rng(seed);
  RlnGroup built(depth);
  std::vector<Fr> pks;
  for (std::size_t i = 0; i < members; ++i) {
    pks.push_back(Identity::generate(rng).pk);
    built.add_member(pks.back());
  }
  for (std::size_t i = 1; i < members; i += 3) built.remove_member(i);
  std::vector<Fr> leaves;
  for (std::uint64_t i = 0; i < built.leaf_count(); ++i) {
    leaves.push_back(built.tree().leaf(i));
  }
  const RlnGroup restored = RlnGroup::from_leaves(depth, leaves);
  ASSERT_EQ(restored.root(), built.root())
      << "depth " << depth << ", " << members << " members";
  ASSERT_EQ(restored.leaf_count(), built.leaf_count());
  ASSERT_EQ(restored.member_count(), built.member_count());
  for (std::size_t i = 0; i < members; ++i) {
    ASSERT_EQ(restored.index_of(pks[i]), built.index_of(pks[i])) << "member " << i;
    ASSERT_EQ(restored.is_active(i), built.is_active(i)) << "member " << i;
    if (built.is_active(i)) {
      ASSERT_EQ(restored.membership_proof(i).siblings, built.membership_proof(i).siblings)
          << "member " << i;
    }
  }
}

TEST(GroupTest, FromLeavesMatchesPerMemberGroup) {
  // Sizes sweep empty, singleton, odd, a full level and past it.
  for (std::size_t members : {0u, 1u, 3u, 4u, 8u, 17u}) {
    expect_from_leaves_matches(6, members, 700 + members);
  }
}

TEST(GroupTest, FromLeavesFillsTreeToCapacity) {
  expect_from_leaves_matches(4, 16, 800);  // every slot of a depth-4 tree
  expect_from_leaves_matches(1, 2, 802);   // minimal depth
}

TEST(GroupTest, FromLeavesBeyondCapacityThrows) {
  const std::vector<Fr> leaves = {Fr::from_u64(1), Fr::from_u64(2), Fr::from_u64(3),
                                  Fr::from_u64(4), Fr::from_u64(5)};
  EXPECT_THROW(RlnGroup::from_leaves(2, leaves), std::length_error);
}

TEST(GroupTest, MembershipProofVerifiesAgainstRoot) {
  Rng rng(705);
  RlnGroup group(8);
  const Identity a = Identity::generate(rng);
  const auto ia = group.add_member(a.pk);
  const auto proof = group.membership_proof(ia);
  EXPECT_TRUE(merkle::MerkleTree::verify(group.root(), a.pk, proof));
  EXPECT_THROW(group.membership_proof(5), std::out_of_range);
}

struct ProverFixture {
  Rng rng{800};
  RlnGroup group{8};
  Identity id = Identity::generate(rng);
  std::uint64_t index = group.add_member(id.pk);
  zksnark::KeyPair keys = zksnark::MockGroth16::setup(8, rng);
  RlnProver prover{keys.pk, id};
  RlnVerifier verifier{keys.vk};
};

// The relay's check of `signal` carrying `payload`: x = H(m), then
// verify_prepared.
bool accepts(const RlnVerifier& v, std::span<const std::uint8_t> payload,
             const RlnSignal& signal) {
  return v.verify_prepared(signal, zksnark::RlnCircuit::message_to_x(payload));
}

TEST(ProverTest, SignalRoundTrip) {
  ProverFixture f;
  const Bytes payload = util::to_bytes("hello rln");
  const auto signal = f.prover.create_signal(payload, 42, f.group, f.index, f.rng);
  ASSERT_TRUE(signal.has_value());
  EXPECT_EQ(signal->epoch, 42u);
  EXPECT_EQ(signal->root, f.group.root());
  EXPECT_TRUE(accepts(f.verifier, payload, *signal));
}

TEST(ProverTest, VerifierRejectsPayloadSubstitution) {
  // The proof binds x = H(m): swapping the payload invalidates the signal.
  ProverFixture f;
  const Bytes payload = util::to_bytes("original");
  const auto signal = f.prover.create_signal(payload, 42, f.group, f.index, f.rng);
  ASSERT_TRUE(signal.has_value());
  EXPECT_FALSE(accepts(f.verifier, util::to_bytes("forged"), *signal));
}

TEST(ProverTest, VerifierRejectsEpochSubstitution) {
  ProverFixture f;
  const Bytes payload = util::to_bytes("msg");
  auto signal = f.prover.create_signal(payload, 42, f.group, f.index, f.rng);
  ASSERT_TRUE(signal.has_value());
  signal->epoch = 43;
  EXPECT_FALSE(accepts(f.verifier, payload, *signal));
}

TEST(ProverTest, RefusesWrongLeafIndex) {
  ProverFixture f;
  const Identity other = Identity::generate(f.rng);
  const auto other_index = f.group.add_member(other.pk);
  const Bytes payload = util::to_bytes("msg");
  EXPECT_FALSE(f.prover.create_signal(payload, 1, f.group, other_index, f.rng).has_value());
}

TEST(ProverTest, RefusesAfterSlashing) {
  ProverFixture f;
  f.group.remove_member(f.index);
  const Bytes payload = util::to_bytes("msg");
  EXPECT_FALSE(f.prover.create_signal(payload, 1, f.group, f.index, f.rng).has_value());
}

TEST(ProverTest, SignalVerifiesOnlyAgainstMatchingRoot) {
  // Group-synchronisation hazard from §III: a proof against a stale root
  // fails once the tree has moved on.
  ProverFixture f;
  const Bytes payload = util::to_bytes("msg");
  const auto signal = f.prover.create_signal(payload, 7, f.group, f.index, f.rng);
  ASSERT_TRUE(signal.has_value());
  // Root advances after another registration.
  const Identity late = Identity::generate(f.rng);
  f.group.add_member(late.pk);
  EXPECT_NE(f.group.root(), signal->root);
  // The signal still verifies against the root it committed to…
  EXPECT_TRUE(accepts(f.verifier, payload, *signal));
  // …but a signal claiming the new root with the old proof fails.
  auto stale = *signal;
  stale.root = f.group.root();
  EXPECT_FALSE(accepts(f.verifier, payload, stale));
}

TEST(ProverTest, SameEpochSameNullifierAcrossMessages) {
  ProverFixture f;
  const auto s1 = f.prover.create_signal(util::to_bytes("m1"), 9, f.group, f.index, f.rng);
  const auto s2 = f.prover.create_signal(util::to_bytes("m2"), 9, f.group, f.index, f.rng);
  ASSERT_TRUE(s1 && s2);
  EXPECT_EQ(s1->nullifier, s2->nullifier);  // double-signal fingerprint
}

TEST(ProverTest, DifferentEpochsYieldUnlinkableNullifiers) {
  ProverFixture f;
  const auto s1 = f.prover.create_signal(util::to_bytes("m"), 9, f.group, f.index, f.rng);
  const auto s2 = f.prover.create_signal(util::to_bytes("m"), 10, f.group, f.index, f.rng);
  ASSERT_TRUE(s1 && s2);
  EXPECT_NE(s1->nullifier, s2->nullifier);
}

// The relay's path (accepts: verify_prepared on x = message_to_x(payload))
// against the oracle that hashes the payload itself
// (support/verify_reference.h).

TEST(PreparedRlnVerifierTest, AgreesWithReferenceOnValidSignal) {
  ProverFixture f;
  const Bytes payload = util::to_bytes("valid");
  const auto signal = f.prover.create_signal(payload, 42, f.group, f.index, f.rng);
  ASSERT_TRUE(signal.has_value());
  EXPECT_TRUE(reference::verify_signal(f.keys.vk, 1, payload, *signal));
  EXPECT_TRUE(accepts(f.verifier, payload, *signal));
}

TEST(PreparedRlnVerifierTest, AgreesWithReferenceOnTamperedProof) {
  ProverFixture f;
  const Bytes payload = util::to_bytes("tampered");
  const auto signal = f.prover.create_signal(payload, 42, f.group, f.index, f.rng);
  ASSERT_TRUE(signal.has_value());
  for (std::size_t pos = 0; pos < zksnark::Proof::kSize; ++pos) {
    RlnSignal bad = *signal;
    bad.proof.bytes[pos] ^= 0x01;
    EXPECT_FALSE(reference::verify_signal(f.keys.vk, 1, payload, bad)) << "byte " << pos;
    EXPECT_FALSE(accepts(f.verifier, payload, bad)) << "byte " << pos;
  }
}

TEST(PreparedRlnVerifierTest, AgreesWithReferenceOnWrongPayload) {
  // A substituted payload hashes to a different x, which the proof does
  // not bind: both paths reject.
  ProverFixture f;
  const auto signal =
      f.prover.create_signal(util::to_bytes("original"), 42, f.group, f.index, f.rng);
  ASSERT_TRUE(signal.has_value());
  const Bytes forged = util::to_bytes("forged");
  EXPECT_FALSE(reference::verify_signal(f.keys.vk, 1, forged, *signal));
  EXPECT_FALSE(accepts(f.verifier, forged, *signal));
}

TEST(PreparedRlnVerifierTest, AgreesWithReferenceOnEverySlotAtRateThree) {
  ProverFixture f;
  const RlnProver prover3(f.keys.pk, f.id, 3);
  const RlnVerifier verifier3(f.keys.vk, 3);
  for (std::uint64_t slot = 0; slot < 3; ++slot) {
    const Bytes payload = util::to_bytes("slot " + std::to_string(slot));
    const auto signal = prover3.create_signal(payload, 42, f.group, f.index, f.rng, slot);
    ASSERT_TRUE(signal.has_value()) << "slot " << slot;
    EXPECT_TRUE(reference::verify_signal(f.keys.vk, 3, payload, *signal)) << "slot " << slot;
    EXPECT_TRUE(accepts(verifier3, payload, *signal)) << "slot " << slot;
    // Moved to the next slot, the signal no longer matches its proven
    // external nullifier (the last slot moves out of range instead).
    RlnSignal moved = *signal;
    moved.message_index = slot + 1;
    EXPECT_FALSE(reference::verify_signal(f.keys.vk, 3, payload, moved)) << "slot " << slot;
    EXPECT_FALSE(accepts(verifier3, payload, moved)) << "slot " << slot;
  }
}

TEST(SignalTest, SerializationRoundTrip) {
  ProverFixture f;
  const Bytes payload = util::to_bytes("wire");
  const auto signal = f.prover.create_signal(payload, 13, f.group, f.index, f.rng);
  ASSERT_TRUE(signal.has_value());
  const Bytes wire = signal->serialize();
  EXPECT_EQ(wire.size(), RlnSignal::kWireSize);
  const auto parsed = RlnSignal::deserialize(wire);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, *signal);
  EXPECT_TRUE(accepts(f.verifier, payload, *parsed));
}

TEST(SignalTest, DeserializeRejectsBadLength) {
  const Bytes short_buf(10, 0);
  EXPECT_FALSE(RlnSignal::deserialize(short_buf).has_value());
  const Bytes long_buf(RlnSignal::kWireSize + 1, 0);
  EXPECT_FALSE(RlnSignal::deserialize(long_buf).has_value());
}

TEST(SignalTest, DeserializeRejectsNonCanonicalField) {
  ProverFixture f;
  const auto signal = f.prover.create_signal(util::to_bytes("x"), 1, f.group, f.index, f.rng);
  Bytes wire = signal->serialize();
  // Overwrite y with the modulus (non-canonical encoding).
  const auto mod = Fr::modulus_bytes_be();
  std::copy(mod.begin(), mod.end(), wire.begin() + 8);
  EXPECT_FALSE(RlnSignal::deserialize(wire).has_value());
}

TEST(NullifierMapTest, FreshThenDuplicateThenDoubleSignal) {
  Rng rng(900);
  NullifierMap map;
  const Identity id = Identity::generate(rng);
  const Fr epoch_field = Fr::from_u64(5);
  const Fr a1 = hash::poseidon_hash2(id.sk, epoch_field);
  const Fr nullifier = hash::poseidon_hash1(a1);

  const Fr x1 = Fr::from_u64(101), x2 = Fr::from_u64(202);
  const Fr y1 = shamir::make_share(id.sk, a1, x1).y;
  const Fr y2 = shamir::make_share(id.sk, a1, x2).y;

  const auto first = map.observe(5, nullifier, x1, y1);
  EXPECT_EQ(first.outcome, NullifierMap::Outcome::kFresh);

  const auto dup = map.observe(5, nullifier, x1, y1);
  EXPECT_EQ(dup.outcome, NullifierMap::Outcome::kDuplicateMessage);
  EXPECT_FALSE(dup.breached_sk.has_value());

  const auto breach = map.observe(5, nullifier, x2, y2);
  EXPECT_EQ(breach.outcome, NullifierMap::Outcome::kDoubleSignal);
  ASSERT_TRUE(breach.breached_sk.has_value());
  EXPECT_EQ(*breach.breached_sk, id.sk);  // slashing evidence is the real key
}

TEST(NullifierMapTest, SameNullifierDifferentEpochIsFresh) {
  NullifierMap map;
  const Fr n = Fr::from_u64(7);
  EXPECT_EQ(map.observe(1, n, Fr::from_u64(1), Fr::from_u64(2)).outcome,
            NullifierMap::Outcome::kFresh);
  EXPECT_EQ(map.observe(2, n, Fr::from_u64(3), Fr::from_u64(4)).outcome,
            NullifierMap::Outcome::kFresh);
}

TEST(NullifierMapTest, PruneDropsOldEpochs) {
  NullifierMap map;
  for (std::uint64_t e = 0; e < 10; ++e) {
    map.observe(e, Fr::from_u64(e + 100), Fr::from_u64(1), Fr::from_u64(2));
  }
  EXPECT_EQ(map.epoch_count(), 10u);
  map.prune_before(7);
  EXPECT_EQ(map.epoch_count(), 3u);
  EXPECT_EQ(map.record_count(), 3u);
  // A pruned nullifier can be observed again without a false double-signal
  // (the message would be dropped by the epoch check anyway, §III).
  EXPECT_EQ(map.observe(3, Fr::from_u64(103), Fr::from_u64(9), Fr::from_u64(9)).outcome,
            NullifierMap::Outcome::kFresh);
}

TEST(NullifierMapTest, MemoryGrowsWithRecordsAndShrinksOnPrune) {
  NullifierMap map;
  const std::size_t empty = map.memory_bytes();
  for (std::uint64_t e = 0; e < 5; ++e) {
    for (std::uint64_t i = 0; i < 100; ++i) {
      map.observe(e, Fr::from_u64(e * 1000 + i), Fr::from_u64(i), Fr::from_u64(i + 1));
    }
  }
  const std::size_t loaded = map.memory_bytes();
  EXPECT_GT(loaded, empty);
  map.prune_before(5);
  EXPECT_LT(map.memory_bytes(), loaded);
  EXPECT_EQ(map.record_count(), 0u);
}

// -- sharded-ring storage invariants ------------------------------------

TEST(NullifierMapShardTest, PruneInvariantsAcrossEpochWrapAround) {
  // Drive many prune cycles: the ring must keep exactly the retained
  // window at every step, with counts consistent, as epochs march far
  // beyond the initial allocation (ring reuse / wrap-around).
  NullifierMap map;
  constexpr std::uint64_t kWindow = 4;
  for (std::uint64_t e = 0; e < 200; ++e) {
    for (std::uint64_t i = 0; i < 3; ++i) {
      EXPECT_EQ(
          map.observe(e, Fr::from_u64(e * 17 + i), Fr::from_u64(i + 1), Fr::from_u64(i + 2))
              .outcome,
          NullifierMap::Outcome::kFresh);
    }
    if (e >= kWindow) {
      map.prune_before(e - kWindow + 1);
      EXPECT_EQ(map.epoch_count(), kWindow);
      EXPECT_EQ(map.record_count(), kWindow * 3);
    }
    // Records inside the window survive the prune; a record from the
    // current epoch is always a duplicate on re-observation.
    EXPECT_EQ(map.observe(e, Fr::from_u64(e * 17), Fr::from_u64(1), Fr::from_u64(2)).outcome,
              NullifierMap::Outcome::kDuplicateMessage);
  }
  map.prune_before(1000);
  EXPECT_EQ(map.epoch_count(), 0u);
  EXPECT_EQ(map.record_count(), 0u);
}

TEST(NullifierMapShardTest, OutOfOrderEpochsWithinWindowShareTheRing) {
  // The Thr acceptance window lets slightly-old epochs arrive after newer
  // ones; they must land in their own shard, not corrupt neighbours.
  NullifierMap map;
  map.observe(10, Fr::from_u64(1), Fr::from_u64(1), Fr::from_u64(2));
  map.observe(12, Fr::from_u64(2), Fr::from_u64(1), Fr::from_u64(2));
  map.observe(11, Fr::from_u64(3), Fr::from_u64(1), Fr::from_u64(2));  // middle insert
  map.observe(9, Fr::from_u64(4), Fr::from_u64(1), Fr::from_u64(2));   // front insert
  EXPECT_EQ(map.epoch_count(), 4u);
  EXPECT_EQ(map.record_count(), 4u);
  // Same nullifier value in different epochs stays independent.
  EXPECT_EQ(map.observe(11, Fr::from_u64(2), Fr::from_u64(5), Fr::from_u64(6)).outcome,
            NullifierMap::Outcome::kFresh);
  map.prune_before(11);
  EXPECT_EQ(map.epoch_count(), 2u);
  EXPECT_EQ(map.record_count(), 3u);
}

TEST(NullifierMapShardTest, MemoryBytesTracksLiveStateExactly) {
  // memory_bytes must be reproducible from the visible state (records and
  // shards), grow monotonically under inserts within an epoch, and return
  // to the empty baseline after a full prune.
  NullifierMap map;
  const std::size_t empty = map.memory_bytes();
  std::size_t prev = empty;
  for (std::uint64_t i = 0; i < 64; ++i) {
    map.observe(5, Fr::from_u64(1000 + i), Fr::from_u64(1), Fr::from_u64(2));
    const std::size_t now = map.memory_bytes();
    EXPECT_GT(now, prev - 1);  // never shrinks while inserting
    prev = now;
  }
  // Duplicates add no records and therefore no memory.
  const std::size_t loaded = map.memory_bytes();
  map.observe(5, Fr::from_u64(1000), Fr::from_u64(1), Fr::from_u64(2));
  EXPECT_EQ(map.memory_bytes(), loaded);
  map.prune_before(6);
  EXPECT_EQ(map.record_count(), 0u);
  EXPECT_EQ(map.memory_bytes(), empty);
}

TEST(NullifierMapShardTest, DuplicateVersusDoubleSignalUnderRateExtension) {
  // messages_per_epoch > 1: each (epoch, slot) pair derives a distinct
  // internal nullifier, so k honest slots coexist in one epoch shard,
  // while reusing one slot with a different message is a double-signal
  // and re-sending the same message is only a duplicate.
  Rng rng(903);
  const Identity id = Identity::generate(rng);
  const std::uint64_t epoch = 77;
  NullifierMap map;
  std::vector<Fr> slot_nullifiers;
  std::vector<Fr> slot_keys;  // a_1 per slot
  for (std::uint64_t slot = 0; slot < 3; ++slot) {
    // External nullifier mixes epoch and slot as in the RLN-v2 extension.
    const Fr ext = hash::poseidon_hash2(Fr::from_u64(epoch), Fr::from_u64(slot));
    const Fr a1 = hash::poseidon_hash2(id.sk, ext);
    slot_keys.push_back(a1);
    slot_nullifiers.push_back(hash::poseidon_hash1(a1));
  }
  // One honest message per slot: all fresh, same epoch shard.
  for (std::uint64_t slot = 0; slot < 3; ++slot) {
    const Fr x = Fr::from_u64(100 + slot);
    const auto share = shamir::make_share(id.sk, slot_keys[slot], x);
    EXPECT_EQ(map.observe(epoch, slot_nullifiers[slot], x, share.y).outcome,
              NullifierMap::Outcome::kFresh);
  }
  EXPECT_EQ(map.epoch_count(), 1u);
  EXPECT_EQ(map.record_count(), 3u);
  // Gossip duplicate of slot 1: same x, same y -> ignore.
  {
    const Fr x = Fr::from_u64(101);
    const auto share = shamir::make_share(id.sk, slot_keys[1], x);
    EXPECT_EQ(map.observe(epoch, slot_nullifiers[1], x, share.y).outcome,
              NullifierMap::Outcome::kDuplicateMessage);
  }
  // Slot 1 reused for a *different* message: double-signal, sk recovered.
  {
    const Fr x = Fr::from_u64(555);
    const auto share = shamir::make_share(id.sk, slot_keys[1], x);
    const auto result = map.observe(epoch, slot_nullifiers[1], x, share.y);
    EXPECT_EQ(result.outcome, NullifierMap::Outcome::kDoubleSignal);
    ASSERT_TRUE(result.breached_sk.has_value());
    EXPECT_EQ(*result.breached_sk, id.sk);
  }
  EXPECT_EQ(map.record_count(), 3u);  // violations never add records
}

// Property sweep: double-signal reconstruction always recovers the true sk
// for random identities, epochs and message pairs.
class DoubleSignalProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DoubleSignalProperty, ReconstructsOffenderKey) {
  Rng rng(1000 + GetParam());
  NullifierMap map;
  const Identity id = Identity::generate(rng);
  const std::uint64_t epoch = rng.uniform(0, 1u << 30);
  const Fr a1 = hash::poseidon_hash2(id.sk, Fr::from_u64(epoch));
  const Fr nullifier = hash::poseidon_hash1(a1);
  const Fr x1 = Fr::random(rng);
  Fr x2 = Fr::random(rng);
  if (x2 == x1) x2 += Fr::one();
  map.observe(epoch, nullifier, x1, shamir::make_share(id.sk, a1, x1).y);
  const auto result =
      map.observe(epoch, nullifier, x2, shamir::make_share(id.sk, a1, x2).y);
  EXPECT_EQ(result.outcome, NullifierMap::Outcome::kDoubleSignal);
  ASSERT_TRUE(result.breached_sk.has_value());
  EXPECT_EQ(*result.breached_sk, id.sk);
}

INSTANTIATE_TEST_SUITE_P(RandomisedRuns, DoubleSignalProperty,
                         ::testing::Range<std::uint64_t>(0, 20));

}  // namespace
}  // namespace wakurln::rln
