#pragma once
// Incremental Merkle membership tree (the paper's off-chain "membership
// tree", §III). Leaves are member public keys pk = H(sk); internal nodes
// are poseidon_hash2(left, right). Empty leaves hold the canonical zero
// value, so sparse trees have well-defined roots at every fill level.
//
// This "full" tree keeps every populated node so that it can serve
// inclusion proofs for any member — what each routing peer maintains
// locally. The storage-optimised frontier variant (reference [9] of the
// paper) lives in frontier.h.

#include <cstdint>
#include <optional>
#include <vector>

#include "field/fr.h"

namespace wakurln::merkle {

/// An authentication path for one leaf.
struct MerkleProof {
  /// Sibling node per level, leaf level first.
  std::vector<field::Fr> siblings;
  /// Leaf index; bit i gives the direction at level i (1 = leaf is right child).
  std::uint64_t leaf_index = 0;

  std::size_t depth() const { return siblings.size(); }
};

/// Cache of "all-zero subtree" node values per level.
/// zeros(0) is the empty-leaf value; zeros(i+1) = H(zeros(i), zeros(i)).
const field::Fr& zero_at_level(std::size_t level);

/// Append-mostly Merkle tree of fixed depth with per-node storage.
class MerkleTree {
 public:
  /// depth in [1, 40]; capacity is 2^depth leaves.
  explicit MerkleTree(std::size_t depth);

  std::size_t depth() const { return depth_; }
  std::uint64_t capacity() const { return std::uint64_t{1} << depth_; }
  std::uint64_t size() const { return next_index_; }

  /// Appends a leaf; returns its index. Throws std::length_error when full.
  std::uint64_t append(const field::Fr& leaf);

  /// Overwrites an existing leaf (member deletion sets it to zero).
  /// Throws std::out_of_range if index >= size().
  void update(std::uint64_t index, const field::Fr& leaf);

  field::Fr root() const;

  /// Leaf value at `index` (zero value if it was never set).
  field::Fr leaf(std::uint64_t index) const;

  /// Authentication path for leaf `index`. Throws std::out_of_range if the
  /// index is beyond the appended range.
  MerkleProof prove(std::uint64_t index) const;

  /// Verifies `proof` for `leaf` against `root`.
  static bool verify(const field::Fr& root, const field::Fr& leaf, const MerkleProof& proof);

  /// Bytes of node storage currently allocated (levels_ content).
  std::size_t storage_bytes() const;

  /// Resident bytes of the whole tree object: the node storage plus the
  /// per-level vector headers and the object itself (the observability
  /// layer's memory-accounting view; storage_bytes() is the paper-facing
  /// node-storage figure).
  std::size_t memory_bytes() const;

  /// Bytes a fully materialised tree of `depth` would occupy
  /// (2^(depth+1) - 1 nodes of 32 bytes) — the paper's 67 MB figure at
  /// depth 20.
  static std::uint64_t full_storage_bytes(std::size_t depth);

 private:
  field::Fr node(std::size_t level, std::uint64_t index) const;
  void set_node(std::size_t level, std::uint64_t index, const field::Fr& value);

  std::size_t depth_;
  std::uint64_t next_index_ = 0;
  /// levels_[l] holds populated nodes at level l (0 = leaves), dense prefix.
  std::vector<std::vector<field::Fr>> levels_;
};

}  // namespace wakurln::merkle
