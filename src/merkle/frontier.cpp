#include "merkle/frontier.h"

#include <stdexcept>

#include "hash/poseidon.h"
#include "merkle/merkle_tree.h"

namespace wakurln::merkle {

MerkleFrontier::MerkleFrontier(std::size_t depth) : depth_(depth) {
  if (depth < 1 || depth > 40) {
    throw std::invalid_argument("MerkleFrontier: depth must be in [1, 40]");
  }
  frontier_.assign(depth, field::Fr::zero());
}

std::uint64_t MerkleFrontier::append(const field::Fr& leaf) {
  if (next_index_ >= capacity()) {
    throw std::length_error("MerkleFrontier: capacity exhausted");
  }
  const std::uint64_t index = next_index_++;
  // Standard incremental-merkle insertion: walk up while the current node
  // is a right child, folding with the stored left sibling; when we land on
  // a left child, stash the accumulated hash as the frontier at that level.
  field::Fr acc = leaf;
  std::uint64_t idx = index;
  for (std::size_t level = 0; level < depth_; ++level) {
    if ((idx & 1) == 0) {
      frontier_[level] = acc;
      return index;
    }
    acc = hash::poseidon_hash2(frontier_[level], acc);
    idx >>= 1;
  }
  // Only reachable when the very last leaf (index capacity-1) was added;
  // the accumulated value is the final root, stored in the top slot.
  frontier_.push_back(acc);
  return index;
}

field::Fr MerkleFrontier::root() const {
  if (next_index_ == capacity() && frontier_.size() > depth_) {
    return frontier_[depth_];
  }
  // Fold the frontier with zero-subtrees on the right, mirroring what the
  // full tree computes for the same fill state.
  field::Fr acc = zero_at_level(0);
  std::uint64_t idx = next_index_;
  for (std::size_t level = 0; level < depth_; ++level) {
    if (idx & 1) {
      acc = hash::poseidon_hash2(frontier_[level], acc);
    } else {
      acc = hash::poseidon_hash2(acc, zero_at_level(level));
    }
    idx >>= 1;
  }
  return acc;
}

std::size_t MerkleFrontier::storage_bytes() const {
  return frontier_.size() * field::Fr::kByteSize + sizeof(next_index_) + sizeof(depth_);
}

}  // namespace wakurln::merkle
