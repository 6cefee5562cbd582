#include <gtest/gtest.h>

#include "hash/poseidon.h"
#include "merkle/frontier.h"
#include "merkle/merkle_tree.h"
#include "util/rng.h"

namespace wakurln::merkle {
namespace {

using field::Fr;
using util::Rng;

TEST(ZeroCacheTest, ChainsByHashing) {
  EXPECT_EQ(zero_at_level(0), Fr::zero());
  EXPECT_EQ(zero_at_level(1), hash::poseidon_hash2(Fr::zero(), Fr::zero()));
  EXPECT_EQ(zero_at_level(5),
            hash::poseidon_hash2(zero_at_level(4), zero_at_level(4)));
}

TEST(ZeroCacheTest, TooDeepThrows) {
  EXPECT_THROW(zero_at_level(100), std::out_of_range);
}

TEST(MerkleTreeTest, RejectsBadDepth) {
  EXPECT_THROW(MerkleTree(0), std::invalid_argument);
  EXPECT_THROW(MerkleTree(41), std::invalid_argument);
}

TEST(MerkleTreeTest, EmptyRootIsZeroSubtree) {
  for (std::size_t depth : {1u, 4u, 10u, 20u}) {
    MerkleTree tree(depth);
    EXPECT_EQ(tree.root(), zero_at_level(depth)) << "depth " << depth;
    EXPECT_EQ(tree.size(), 0u);
  }
}

TEST(MerkleTreeTest, AppendReturnsSequentialIndices) {
  MerkleTree tree(4);
  Rng rng(301);
  for (std::uint64_t i = 0; i < 16; ++i) {
    EXPECT_EQ(tree.append(Fr::random(rng)), i);
  }
  EXPECT_EQ(tree.size(), 16u);
}

TEST(MerkleTreeTest, AppendBeyondCapacityThrows) {
  MerkleTree tree(2);
  Rng rng(302);
  for (int i = 0; i < 4; ++i) tree.append(Fr::random(rng));
  EXPECT_THROW(tree.append(Fr::random(rng)), std::length_error);
}

TEST(MerkleTreeTest, DepthOneRootIsHashOfLeaves) {
  MerkleTree tree(1);
  const Fr a = Fr::from_u64(10), b = Fr::from_u64(20);
  tree.append(a);
  EXPECT_EQ(tree.root(), hash::poseidon_hash2(a, Fr::zero()));
  tree.append(b);
  EXPECT_EQ(tree.root(), hash::poseidon_hash2(a, b));
}

TEST(MerkleTreeTest, ProofVerifiesForEveryLeaf) {
  MerkleTree tree(5);
  Rng rng(303);
  std::vector<Fr> leaves;
  for (int i = 0; i < 32; ++i) {
    leaves.push_back(Fr::random(rng));
    tree.append(leaves.back());
  }
  for (std::uint64_t i = 0; i < 32; ++i) {
    const MerkleProof proof = tree.prove(i);
    EXPECT_EQ(proof.depth(), 5u);
    EXPECT_TRUE(MerkleTree::verify(tree.root(), leaves[i], proof)) << "leaf " << i;
  }
}

TEST(MerkleTreeTest, ProofFailsForWrongLeaf) {
  MerkleTree tree(4);
  Rng rng(304);
  for (int i = 0; i < 8; ++i) tree.append(Fr::random(rng));
  const MerkleProof proof = tree.prove(3);
  EXPECT_FALSE(MerkleTree::verify(tree.root(), Fr::from_u64(999), proof));
}

TEST(MerkleTreeTest, ProofFailsForWrongRoot) {
  MerkleTree tree(4);
  Rng rng(305);
  const Fr leaf = Fr::random(rng);
  tree.append(leaf);
  const MerkleProof proof = tree.prove(0);
  EXPECT_FALSE(MerkleTree::verify(Fr::from_u64(1234), leaf, proof));
}

TEST(MerkleTreeTest, ProofFailsForWrongIndex) {
  MerkleTree tree(4);
  Rng rng(306);
  std::vector<Fr> leaves;
  for (int i = 0; i < 8; ++i) {
    leaves.push_back(Fr::random(rng));
    tree.append(leaves.back());
  }
  MerkleProof proof = tree.prove(2);
  proof.leaf_index = 3;  // direction bits now wrong
  EXPECT_FALSE(MerkleTree::verify(tree.root(), leaves[2], proof));
}

TEST(MerkleTreeTest, ProveOutOfRangeThrows) {
  MerkleTree tree(4);
  tree.append(Fr::from_u64(1));
  EXPECT_THROW(tree.prove(1), std::out_of_range);
}

TEST(MerkleTreeTest, UpdateChangesRootAndProofs) {
  MerkleTree tree(4);
  Rng rng(307);
  for (int i = 0; i < 8; ++i) tree.append(Fr::random(rng));
  const Fr old_root = tree.root();

  tree.update(5, Fr::zero());  // member deletion: zero the leaf
  EXPECT_NE(tree.root(), old_root);
  EXPECT_EQ(tree.leaf(5), Fr::zero());
  EXPECT_TRUE(MerkleTree::verify(tree.root(), Fr::zero(), tree.prove(5)));
}

TEST(MerkleTreeTest, UpdateOutOfRangeThrows) {
  MerkleTree tree(4);
  EXPECT_THROW(tree.update(0, Fr::zero()), std::out_of_range);
}

TEST(MerkleTreeTest, RootDependsOnLeafOrder) {
  MerkleTree t1(3), t2(3);
  const Fr a = Fr::from_u64(1), b = Fr::from_u64(2);
  t1.append(a);
  t1.append(b);
  t2.append(b);
  t2.append(a);
  EXPECT_NE(t1.root(), t2.root());
}

TEST(MerkleTreeTest, StorageGrowsWithMembers) {
  MerkleTree tree(10);
  const std::size_t empty = tree.storage_bytes();
  Rng rng(308);
  for (int i = 0; i < 100; ++i) tree.append(Fr::random(rng));
  EXPECT_GT(tree.storage_bytes(), empty);
}

TEST(MerkleTreeTest, FullStorageMatchesPaperAtDepth20) {
  // 2^21 - 1 nodes of 32 bytes each ≈ 67 MB (the paper's figure, §IV).
  const std::uint64_t bytes = MerkleTree::full_storage_bytes(20);
  EXPECT_EQ(bytes, ((1ULL << 21) - 1) * 32);
  // 67,108,832 bytes ≈ 67 MB (decimal), the figure quoted in §IV.
  EXPECT_NEAR(static_cast<double>(bytes) / 1e6, 67.0, 1.0);
}

TEST(FrontierTest, MatchesFullTreeRootAtEveryStep) {
  for (std::size_t depth : {1u, 2u, 3u, 6u}) {
    MerkleTree tree(depth);
    MerkleFrontier frontier(depth);
    Rng rng(309);
    EXPECT_EQ(frontier.root(), tree.root()) << "empty, depth " << depth;
    const std::uint64_t cap = std::uint64_t{1} << depth;
    for (std::uint64_t i = 0; i < cap; ++i) {
      const Fr leaf = Fr::random(rng);
      tree.append(leaf);
      frontier.append(leaf);
      EXPECT_EQ(frontier.root(), tree.root())
          << "depth " << depth << " after " << (i + 1) << " appends";
    }
  }
}

TEST(FrontierTest, AppendBeyondCapacityThrows) {
  MerkleFrontier f(2);
  for (int i = 0; i < 4; ++i) f.append(Fr::from_u64(i + 1));
  EXPECT_THROW(f.append(Fr::from_u64(9)), std::length_error);
}

TEST(FrontierTest, StorageIsOrdersOfMagnitudeSmaller) {
  const std::size_t depth = 20;
  MerkleFrontier f(depth);
  // Frontier state ≈ depth * 32 bytes, versus 67 MB for the full tree.
  EXPECT_LT(f.storage_bytes(), 1024u);  // the paper's "0.128 KB" ballpark
  EXPECT_GT(MerkleTree::full_storage_bytes(depth) / f.storage_bytes(), 50000u);
}

TEST(FrontierTest, RejectsBadDepth) {
  EXPECT_THROW(MerkleFrontier(0), std::invalid_argument);
  EXPECT_THROW(MerkleFrontier(64), std::invalid_argument);
}

// Equivalence property over random interleavings of depths and counts.
class FrontierEquivalence : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(FrontierEquivalence, RootMatchesFullTree) {
  const auto [depth, count] = GetParam();
  MerkleTree tree(depth);
  MerkleFrontier frontier(depth);
  Rng rng(400 + depth * 31 + count);
  for (int i = 0; i < count; ++i) {
    const Fr leaf = Fr::random(rng);
    tree.append(leaf);
    frontier.append(leaf);
  }
  EXPECT_EQ(frontier.root(), tree.root());
  EXPECT_EQ(frontier.size(), tree.size());
}

INSTANTIATE_TEST_SUITE_P(
    DepthsAndCounts, FrontierEquivalence,
    ::testing::Values(std::make_tuple(4, 0), std::make_tuple(4, 1),
                      std::make_tuple(4, 7), std::make_tuple(4, 16),
                      std::make_tuple(8, 100), std::make_tuple(8, 256),
                      std::make_tuple(12, 500), std::make_tuple(16, 1000)));

}  // namespace
}  // namespace wakurln::merkle
