#pragma once
// Storage-optimised append-only Merkle accumulator — the optimisation the
// paper cites as reference [9] ("merkle-tree-update"): a peer that only
// needs to *track the current root* (not serve proofs) keeps one node per
// level (the "frontier" of filled left subtrees) instead of the whole tree.
// At depth 20 this shrinks 67 MB of nodes to a few hundred bytes, the
// paper's "0.128 KB" order of magnitude. Benchmarked in bench_merkle_storage.

#include <cstdint>
#include <vector>

#include "field/fr.h"

namespace wakurln::merkle {

/// Append-only root tracker with O(depth) storage and amortised O(1)
/// hashing per append.
class MerkleFrontier {
 public:
  explicit MerkleFrontier(std::size_t depth);

  std::size_t depth() const { return depth_; }
  std::uint64_t capacity() const { return std::uint64_t{1} << depth_; }
  std::uint64_t size() const { return next_index_; }

  /// Appends a leaf; returns its index. Throws std::length_error when full.
  std::uint64_t append(const field::Fr& leaf);

  /// Current root (identical to MerkleTree::root() after the same appends).
  field::Fr root() const;

  /// Bytes of persistent state (frontier nodes + counters).
  std::size_t storage_bytes() const;

 private:
  std::size_t depth_;
  std::uint64_t next_index_ = 0;
  /// frontier_[l] is the root of the last completely filled left subtree
  /// at level l, where meaningful for the current fill state.
  std::vector<field::Fr> frontier_;
};

}  // namespace wakurln::merkle
