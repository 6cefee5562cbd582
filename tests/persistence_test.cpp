#include <gtest/gtest.h>

#include <algorithm>
#include <initializer_list>
#include <vector>

#include "rln/persistence.h"
#include "rln/prover.h"
#include "util/rng.h"
#include "util/serde.h"
#include "zksnark/rln_circuit.h"

namespace wakurln::rln {
namespace {

using util::Bytes;
using util::Rng;

TEST(PersistenceTest, IdentityRoundTrip) {
  Rng rng(1);
  const Identity original = Identity::generate(rng);
  const Bytes saved = save_identity(original);
  const auto loaded = load_identity(saved);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(*loaded, original);
}

TEST(PersistenceTest, IdentityRejectsCorruption) {
  Rng rng(2);
  Bytes saved = save_identity(Identity::generate(rng));
  Bytes truncated(saved.begin(), saved.end() - 1);
  EXPECT_FALSE(load_identity(truncated).has_value());
  Bytes bad_magic = saved;
  bad_magic[0] ^= 0xff;
  EXPECT_FALSE(load_identity(bad_magic).has_value());
  Bytes trailing = saved;
  trailing.push_back(0);
  EXPECT_FALSE(load_identity(trailing).has_value());
}

TEST(PersistenceTest, IdentityRejectsNonCanonicalSecret) {
  Bytes forged = {0x31, 0x4e, 0x4c, 0x52};  // magic little-endian? build properly
  forged.clear();
  // Build: magic + modulus bytes (non-canonical field element).
  util::ByteWriter w;
  w.put_u32(0x524c4e31);
  w.put_raw(field::Fr::modulus_bytes_be());
  EXPECT_FALSE(load_identity(w.data()).has_value());
}

TEST(PersistenceTest, GroupRoundTripPreservesRootAndIndices) {
  Rng rng(3);
  RlnGroup group(10);
  std::vector<Identity> members;
  for (int i = 0; i < 20; ++i) {
    members.push_back(Identity::generate(rng));
    group.add_member(members.back().pk);
  }
  group.remove_member(7);   // a slashed slot
  group.remove_member(13);  // another

  const Bytes saved = save_group(group);
  const auto loaded = load_group(saved);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->root(), group.root());
  EXPECT_EQ(loaded->member_count(), group.member_count());
  EXPECT_EQ(loaded->leaf_count(), group.leaf_count());
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(loaded->index_of(members[i].pk), group.index_of(members[i].pk));
  }
  EXPECT_FALSE(loaded->is_active(7));
  EXPECT_FALSE(loaded->is_active(13));
}

TEST(PersistenceTest, GroupRoundTripKeepsMemberBesideSlashedSlot) {
  // The commitment 1 followed by a slashed slot: restoring must not
  // confuse the member with anything that stands in for the empty slot.
  RlnGroup group(4);
  group.add_member(field::Fr::one());
  group.add_member(field::Fr::from_u64(2));
  group.remove_member(1);

  const auto loaded = load_group(save_group(group));
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->root(), group.root());
  EXPECT_EQ(loaded->member_count(), 1u);
  EXPECT_EQ(loaded->index_of(field::Fr::one()), std::optional<std::uint64_t>(0));
  EXPECT_TRUE(loaded->is_active(0));
  EXPECT_FALSE(loaded->is_active(1));
}

TEST(PersistenceTest, RestoredGroupProducesVerifiableProofs) {
  Rng rng(4);
  RlnGroup group(8);
  const Identity id = Identity::generate(rng);
  const auto index = group.add_member(id.pk);
  group.add_member(Identity::generate(rng).pk);

  const auto loaded = load_group(save_group(group));
  ASSERT_TRUE(loaded.has_value());

  const auto keys = zksnark::MockGroth16::setup(8, rng);
  const RlnProver prover(keys.pk, id);
  const RlnVerifier verifier(keys.vk);
  const Bytes payload = util::to_bytes("proof from restored group");
  const auto signal = prover.create_signal(payload, 1, *loaded, index, rng);
  ASSERT_TRUE(signal.has_value());
  EXPECT_TRUE(
      verifier.verify_prepared(*signal, zksnark::RlnCircuit::message_to_x(payload)));
  EXPECT_EQ(signal->root, group.root());
}

TEST(PersistenceTest, GroupRejectsOnePkInTwoSlots) {
  // The contract reverts a second registration of a live pk, so no real
  // group holds one pk in two live slots. Restored, such a snapshot would
  // count two members but index only one; load_group rejects it.
  Rng rng(8);
  const field::Fr pk = Identity::generate(rng).pk;
  const auto snapshot = [](std::initializer_list<field::Fr> leaves) {
    util::ByteWriter w;
    w.put_u32(0x524c4e47);  // "RLNG"
    w.put_u32(4);
    w.put_u64(leaves.size());
    for (const field::Fr& leaf : leaves) w.put_raw(leaf.to_bytes_be());
    return w.take();
  };
  EXPECT_FALSE(load_group(snapshot({pk, pk})).has_value());
  EXPECT_FALSE(load_group(snapshot({pk, field::Fr::zero(), pk})).has_value());
  // A pk slashed and registered again holds one live slot: accepted.
  const auto reregistered = load_group(snapshot({field::Fr::zero(), pk}));
  ASSERT_TRUE(reregistered.has_value());
  EXPECT_EQ(reregistered->member_count(), 1u);
  EXPECT_EQ(reregistered->index_of(pk), std::optional<std::uint64_t>(1));
}

TEST(PersistenceTest, GroupRejectsCorruption) {
  Rng rng(5);
  RlnGroup group(6);
  group.add_member(Identity::generate(rng).pk);
  Bytes saved = save_group(group);

  Bytes truncated(saved.begin(), saved.end() - 5);
  EXPECT_FALSE(load_group(truncated).has_value());

  Bytes bad_depth = saved;
  bad_depth[4] = 0;  // depth 0
  EXPECT_FALSE(load_group(bad_depth).has_value());

  Bytes overflow = saved;
  overflow[8] = 0xff;  // leaf count far beyond capacity
  overflow[9] = 0xff;
  EXPECT_FALSE(load_group(overflow).has_value());
}

TEST(PersistenceTest, KeypairRoundTripInteroperates) {
  Rng rng(6);
  const auto keys = zksnark::MockGroth16::setup(8, rng);
  const auto loaded = load_keypair(save_keypair(keys));
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->pk.circuit_id, keys.pk.circuit_id);
  EXPECT_EQ(loaded->pk.tree_depth, keys.pk.tree_depth);
  EXPECT_EQ(loaded->pk.simulated_size_bytes, keys.pk.simulated_size_bytes);

  // A proof made with the original proving key verifies under the loaded
  // verifying key (and vice versa).
  RlnGroup group(8);
  const Identity id = Identity::generate(rng);
  const auto index = group.add_member(id.pk);
  const RlnProver prover(keys.pk, id);
  const RlnVerifier loaded_verifier(loaded->vk);
  const Bytes payload = util::to_bytes("cross-key check");
  const auto signal = prover.create_signal(payload, 2, group, index, rng);
  ASSERT_TRUE(signal.has_value());
  EXPECT_TRUE(
      loaded_verifier.verify_prepared(*signal, zksnark::RlnCircuit::message_to_x(payload)));

  const RlnProver loaded_prover(loaded->pk, id);
  const RlnVerifier verifier(keys.vk);
  const auto signal2 = loaded_prover.create_signal(payload, 3, group, index, rng);
  ASSERT_TRUE(signal2.has_value());
  EXPECT_TRUE(
      verifier.verify_prepared(*signal2, zksnark::RlnCircuit::message_to_x(payload)));
}

TEST(PersistenceTest, KeypairRejectsCorruption) {
  Rng rng(7);
  Bytes saved = save_keypair(zksnark::MockGroth16::setup(8, rng));
  Bytes truncated(saved.begin(), saved.begin() + 10);
  EXPECT_FALSE(load_keypair(truncated).has_value());
  Bytes bad_magic = saved;
  bad_magic[0] ^= 1;
  EXPECT_FALSE(load_keypair(bad_magic).has_value());
}

// -- mutation sweep ----------------------------------------------------------
// Persisted blobs come back from disk, where they may be truncated or
// corrupted. Every truncation, every single-bit flip and 2,000 seeded
// overwrites of 1-4 bytes of a real blob go through its loader: nothing
// may throw, no truncation may load, and whatever loads must save back to
// exactly the bytes it was loaded from.

struct Mutants {
  std::vector<Bytes> truncations;  ///< truncations[n] = the first n bytes
  std::vector<Bytes> corruptions;  ///< bit flips, then overwrites
};

Mutants mutants_of(const Bytes& blob, std::uint64_t seed) {
  Mutants out;
  for (std::size_t len = 0; len < blob.size(); ++len) {
    out.truncations.emplace_back(blob.begin(), blob.begin() + static_cast<std::ptrdiff_t>(len));
  }
  for (std::size_t i = 0; i < blob.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      Bytes m = blob;
      m[i] ^= static_cast<std::uint8_t>(1u << bit);
      out.corruptions.push_back(std::move(m));
    }
  }
  Rng rng(seed);
  for (int i = 0; i < 2000; ++i) {
    // 1-4 distinct positions, each XORed with a non-zero byte, so every
    // mutant differs from the blob.
    Bytes m = blob;
    std::vector<std::size_t> at;
    const std::size_t writes = 1 + rng.next_u64() % 4;
    while (at.size() < writes) {
      const std::size_t pos = rng.next_u64() % m.size();
      if (std::find(at.begin(), at.end(), pos) == at.end()) at.push_back(pos);
    }
    for (const std::size_t pos : at) {
      m[pos] ^= static_cast<std::uint8_t>(1 + rng.next_u64() % 255);
    }
    out.corruptions.push_back(std::move(m));
  }
  return out;
}

/// Runs the sweep; returns how many corrupted mutants loaded.
template <typename Load, typename Save>
std::size_t sweep(const Bytes& blob, std::uint64_t seed, Load load, Save save) {
  const auto original = load(blob);
  EXPECT_TRUE(original.has_value());
  if (original) {
    EXPECT_EQ(save(*original), blob);
  }

  const Mutants mutants = mutants_of(blob, seed);
  for (std::size_t len = 0; len < mutants.truncations.size(); ++len) {
    bool loaded = true;
    EXPECT_NO_THROW(loaded = load(mutants.truncations[len]).has_value()) << "length " << len;
    EXPECT_FALSE(loaded) << "truncated to " << len << " of " << blob.size() << " bytes";
  }
  std::size_t accepted = 0;
  for (std::size_t i = 0; i < mutants.corruptions.size(); ++i) {
    const Bytes& m = mutants.corruptions[i];
    decltype(load(m)) loaded;
    EXPECT_NO_THROW(loaded = load(m)) << "mutant " << i;
    if (!loaded) continue;
    ++accepted;
    EXPECT_EQ(save(*loaded), m) << "mutant " << i;
  }
  return accepted;
}

TEST(PersistenceMutationTest, IdentityMutantsNeverThrowAndRoundTrip) {
  Rng rng(11);
  const Bytes blob = save_identity(Identity::generate(rng));
  const std::size_t accepted = sweep(
      blob, 1101, [](std::span<const std::uint8_t> b) { return load_identity(b); },
      [](const Identity& id) { return save_identity(id); });
  // Low-order flips of the secret stay canonical, so the sweep does reach
  // the accepting path.
  EXPECT_GT(accepted, 0u);
}

TEST(PersistenceMutationTest, GroupMutantsNeverThrowAndRoundTrip) {
  Rng rng(12);
  RlnGroup group(4);
  for (int i = 0; i < 3; ++i) group.add_member(Identity::generate(rng).pk);
  group.remove_member(1);  // a slashed slot
  const Bytes blob = save_group(group);
  const std::size_t accepted = sweep(
      blob, 1202, [](std::span<const std::uint8_t> b) { return load_group(b); },
      [](const RlnGroup& g) { return save_group(g); });
  EXPECT_GT(accepted, 0u);
}

TEST(PersistenceMutationTest, KeypairMutantsNeverThrowAndRoundTrip) {
  Rng rng(13);
  const Bytes blob = save_keypair(zksnark::MockGroth16::setup(8, rng));
  const std::size_t accepted = sweep(
      blob, 1303, [](std::span<const std::uint8_t> b) { return load_keypair(b); },
      [](const zksnark::KeyPair& keys) { return save_keypair(keys); });
  EXPECT_GT(accepted, 0u);
}

}  // namespace
}  // namespace wakurln::rln
