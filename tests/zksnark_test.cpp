#include <gtest/gtest.h>

#include "hash/poseidon.h"
#include "merkle/merkle_tree.h"
#include "shamir/shamir.h"
#include "support/verify_reference.h"
#include "util/rng.h"
#include "zksnark/cost_model.h"
#include "zksnark/proof_system.h"
#include "zksnark/rln_circuit.h"

namespace wakurln::zksnark {
namespace {

using field::Fr;
using util::Rng;

// Builds a satisfying (witness, public-inputs) pair over a small tree.
struct Fixture {
  merkle::MerkleTree tree{8};
  Fr sk;
  RlnWitness witness;
  RlnPublicInputs pub;

  explicit Fixture(Rng& rng, std::uint64_t epoch = 42) {
    sk = Fr::random(rng);
    const Fr pk = hash::poseidon_hash1(sk);
    // pad some other members around ours
    tree.append(Fr::random(rng));
    const std::uint64_t index = tree.append(pk);
    tree.append(Fr::random(rng));

    pub.root = tree.root();
    pub.epoch = Fr::from_u64(epoch);
    pub.x = Fr::random(rng);
    const Fr a1 = hash::poseidon_hash2(sk, pub.epoch);
    pub.y = shamir::make_share(sk, a1, pub.x).y;
    pub.nullifier = hash::poseidon_hash1(a1);

    witness.sk = sk;
    witness.path = tree.prove(index);
  }
};

TEST(RlnCircuitTest, SatisfiedForHonestWitness) {
  Rng rng(601);
  Fixture f(rng);
  EXPECT_TRUE(RlnCircuit::satisfied(f.witness, f.pub));
}

TEST(RlnCircuitTest, RejectsWrongSecretKey) {
  Rng rng(602);
  Fixture f(rng);
  f.witness.sk = Fr::random(rng);
  EXPECT_FALSE(RlnCircuit::satisfied(f.witness, f.pub));
}

TEST(RlnCircuitTest, RejectsWrongRoot) {
  Rng rng(603);
  Fixture f(rng);
  f.pub.root = Fr::random(rng);
  EXPECT_FALSE(RlnCircuit::satisfied(f.witness, f.pub));
}

TEST(RlnCircuitTest, RejectsTamperedShare) {
  Rng rng(604);
  Fixture f(rng);
  f.pub.y += Fr::one();
  EXPECT_FALSE(RlnCircuit::satisfied(f.witness, f.pub));
}

TEST(RlnCircuitTest, RejectsTamperedNullifier) {
  Rng rng(605);
  Fixture f(rng);
  f.pub.nullifier += Fr::one();
  EXPECT_FALSE(RlnCircuit::satisfied(f.witness, f.pub));
}

TEST(RlnCircuitTest, RejectsWrongEpoch) {
  Rng rng(606);
  Fixture f(rng);
  // Same share/nullifier but claimed for another epoch: slope no longer
  // matches H(sk, epoch').
  f.pub.epoch = Fr::from_u64(43);
  EXPECT_FALSE(RlnCircuit::satisfied(f.witness, f.pub));
}

TEST(RlnCircuitTest, RejectsNonMemberPath) {
  Rng rng(607);
  Fixture f(rng);
  f.witness.path.leaf_index ^= 1;
  EXPECT_FALSE(RlnCircuit::satisfied(f.witness, f.pub));
}

TEST(RlnCircuitTest, ConstraintCountGrowsLinearlyWithDepth) {
  const std::size_t c10 = RlnCircuit::constraint_count(10);
  const std::size_t c20 = RlnCircuit::constraint_count(20);
  const std::size_t c30 = RlnCircuit::constraint_count(30);
  EXPECT_EQ(c30 - c20, c20 - c10);
  EXPECT_GT(c20, c10);
}

TEST(RlnCircuitTest, MessageToXIsDeterministicAndSensitive) {
  const util::Bytes m1 = util::to_bytes("hello");
  const util::Bytes m2 = util::to_bytes("hello!");
  EXPECT_EQ(RlnCircuit::message_to_x(m1), RlnCircuit::message_to_x(m1));
  EXPECT_NE(RlnCircuit::message_to_x(m1), RlnCircuit::message_to_x(m2));
}

TEST(PublicInputsTest, SerializationIsInjectiveOnFields) {
  Rng rng(608);
  Fixture f(rng);
  const util::Bytes base = f.pub.serialize();
  EXPECT_EQ(base.size(), 5u * 32u);
  RlnPublicInputs other = f.pub;
  other.x += Fr::one();
  EXPECT_NE(other.serialize(), base);
}

TEST(MockGroth16Test, ProveAndVerifyRoundTrip) {
  Rng rng(609);
  Fixture f(rng);
  const KeyPair keys = MockGroth16::setup(f.tree.depth(), rng);
  const auto proof = MockGroth16::prove(keys.pk, f.witness, f.pub, rng);
  ASSERT_TRUE(proof.has_value());
  EXPECT_TRUE(PreparedVerifier(keys.vk).verify(*proof, f.pub));
}

TEST(MockGroth16Test, ProofIsConstantSize) {
  EXPECT_EQ(sizeof(Proof::bytes), 128u);
  EXPECT_EQ(Proof::kSize, 128u);
}

TEST(MockGroth16Test, RefusesUnsatisfiedWitness) {
  Rng rng(610);
  Fixture f(rng);
  const KeyPair keys = MockGroth16::setup(f.tree.depth(), rng);
  f.pub.y += Fr::one();
  EXPECT_FALSE(MockGroth16::prove(keys.pk, f.witness, f.pub, rng).has_value());
}

TEST(MockGroth16Test, RefusesDepthMismatch) {
  Rng rng(611);
  Fixture f(rng);
  const KeyPair keys = MockGroth16::setup(f.tree.depth() + 1, rng);
  EXPECT_FALSE(MockGroth16::prove(keys.pk, f.witness, f.pub, rng).has_value());
}

TEST(MockGroth16Test, ProofsAreRerandomized) {
  // Zero-knowledge shape: two proofs of the same statement differ.
  Rng rng(612);
  Fixture f(rng);
  const KeyPair keys = MockGroth16::setup(f.tree.depth(), rng);
  const auto p1 = MockGroth16::prove(keys.pk, f.witness, f.pub, rng);
  const auto p2 = MockGroth16::prove(keys.pk, f.witness, f.pub, rng);
  ASSERT_TRUE(p1 && p2);
  EXPECT_NE(*p1, *p2);
  const PreparedVerifier verifier(keys.vk);
  EXPECT_TRUE(verifier.verify(*p1, f.pub));
  EXPECT_TRUE(verifier.verify(*p2, f.pub));
}

TEST(MockGroth16Test, VerifyRejectsTamperedProof) {
  Rng rng(613);
  Fixture f(rng);
  const KeyPair keys = MockGroth16::setup(f.tree.depth(), rng);
  auto proof = MockGroth16::prove(keys.pk, f.witness, f.pub, rng);
  ASSERT_TRUE(proof.has_value());
  for (std::size_t pos : {0u, 33u, 64u, 127u}) {
    Proof tampered = *proof;
    tampered.bytes[pos] ^= 0x01;
    EXPECT_FALSE(PreparedVerifier(keys.vk).verify(tampered, f.pub)) << "byte " << pos;
  }
}

TEST(MockGroth16Test, VerifyRejectsDifferentPublicInputs) {
  Rng rng(614);
  Fixture f(rng);
  const KeyPair keys = MockGroth16::setup(f.tree.depth(), rng);
  const auto proof = MockGroth16::prove(keys.pk, f.witness, f.pub, rng);
  ASSERT_TRUE(proof.has_value());
  RlnPublicInputs other = f.pub;
  other.x += Fr::one();
  EXPECT_FALSE(PreparedVerifier(keys.vk).verify(*proof, other));
}

TEST(MockGroth16Test, VerifyRejectsProofFromOtherSetup) {
  Rng rng(615);
  Fixture f(rng);
  const KeyPair keys_a = MockGroth16::setup(f.tree.depth(), rng);
  const KeyPair keys_b = MockGroth16::setup(f.tree.depth(), rng);
  const auto proof = MockGroth16::prove(keys_a.pk, f.witness, f.pub, rng);
  ASSERT_TRUE(proof.has_value());
  EXPECT_FALSE(PreparedVerifier(keys_b.vk).verify(*proof, f.pub));
}

TEST(MockGroth16Test, ProvingKeySizeMatchesPaperAtDepth20) {
  // §IV: each peer persists a ≈3.89 MB prover key.
  const std::size_t bytes = MockGroth16::modelled_proving_key_bytes(20);
  EXPECT_NEAR(static_cast<double>(bytes) / 1e6, 3.89, 0.01);
}

TEST(MockGroth16Test, VerifyingKeyIsSmall) {
  Rng rng(616);
  const KeyPair keys = MockGroth16::setup(20, rng);
  EXPECT_LT(keys.vk.simulated_size_bytes, 2048u);
  EXPECT_GT(keys.pk.simulated_size_bytes, 1000u * 1000u);
}

// ---------------------------------------------------------------------------
// PreparedVerifier: verdict equality with the step-by-step transcript in
// support/verify_reference.h.

TEST(PreparedVerifierTest, AgreesWithReferenceOnValidProofs) {
  Rng rng(620);
  Fixture f(rng);
  const KeyPair keys = MockGroth16::setup(f.tree.depth(), rng);
  const PreparedVerifier prepared(keys.vk);
  for (int i = 0; i < 8; ++i) {
    const auto proof = MockGroth16::prove(keys.pk, f.witness, f.pub, rng);
    ASSERT_TRUE(proof.has_value());
    EXPECT_TRUE(prepared.verify(*proof, f.pub));
    EXPECT_EQ(prepared.verify(*proof, f.pub),
              reference::verify(keys.vk, *proof, f.pub));
  }
}

TEST(PreparedVerifierTest, AgreesWithReferenceOnTamperedProofs) {
  Rng rng(621);
  Fixture f(rng);
  const KeyPair keys = MockGroth16::setup(f.tree.depth(), rng);
  const PreparedVerifier prepared(keys.vk);
  const auto proof = MockGroth16::prove(keys.pk, f.witness, f.pub, rng);
  ASSERT_TRUE(proof.has_value());
  for (std::size_t pos = 0; pos < Proof::kSize; ++pos) {
    Proof tampered = *proof;
    tampered.bytes[pos] ^= 0x01;
    // Same verdict as the reference on *every* single-byte corruption:
    // salt region, tag region and expansion region alike.
    EXPECT_EQ(prepared.verify(tampered, f.pub),
              reference::verify(keys.vk, tampered, f.pub))
        << "byte " << pos;
    EXPECT_FALSE(prepared.verify(tampered, f.pub)) << "byte " << pos;
  }
}

TEST(PreparedVerifierTest, AgreesWithReferenceOnWrongInputsAndKeys) {
  Rng rng(622);
  Fixture f(rng);
  const KeyPair keys = MockGroth16::setup(f.tree.depth(), rng);
  const KeyPair other = MockGroth16::setup(f.tree.depth(), rng);
  const PreparedVerifier prepared(keys.vk);
  const PreparedVerifier prepared_other(other.vk);
  const auto proof = MockGroth16::prove(keys.pk, f.witness, f.pub, rng);
  ASSERT_TRUE(proof.has_value());

  // Each public-input field perturbed in turn.
  for (int which = 0; which < 5; ++which) {
    RlnPublicInputs bad = f.pub;
    (which == 0   ? bad.root
     : which == 1 ? bad.epoch
     : which == 2 ? bad.x
     : which == 3 ? bad.y
                  : bad.nullifier) += Fr::one();
    EXPECT_EQ(prepared.verify(*proof, bad),
              reference::verify(keys.vk, *proof, bad))
        << "field " << which;
    EXPECT_FALSE(prepared.verify(*proof, bad)) << "field " << which;
  }

  // A verifier prepared from a different setup rejects, like the
  // reference.
  EXPECT_EQ(prepared_other.verify(*proof, f.pub),
            reference::verify(other.vk, *proof, f.pub));
  EXPECT_FALSE(prepared_other.verify(*proof, f.pub));
}

TEST(CostModelTest, ProveAnchoredAtHalfSecondDepth32) {
  EXPECT_NEAR(CostModel::prove_ms(32, DeviceProfile::iphone8()), 500.0, 1e-9);
}

TEST(CostModelTest, VerifyConstantThirtyMs) {
  EXPECT_NEAR(CostModel::verify_ms(DeviceProfile::iphone8()), 30.0, 1e-9);
  // Independent of depth by construction; spot-check monotone device scale.
  EXPECT_LT(CostModel::verify_ms(DeviceProfile::server()),
            CostModel::verify_ms(DeviceProfile::iphone8()));
}

TEST(CostModelTest, ProveGrowsWithDepth) {
  const auto& dev = DeviceProfile::iphone8();
  EXPECT_LT(CostModel::prove_ms(10, dev), CostModel::prove_ms(20, dev));
  EXPECT_LT(CostModel::prove_ms(20, dev), CostModel::prove_ms(32, dev));
}

TEST(CostModelTest, DeviceProfilesOrdered) {
  EXPECT_GT(DeviceProfile::gpu_rig().hashes_per_second,
            DeviceProfile::iphone8().hashes_per_second);
  EXPECT_EQ(DeviceProfile::all().size(), 4u);
}

}  // namespace
}  // namespace wakurln::zksnark
