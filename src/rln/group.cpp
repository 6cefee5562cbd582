#include "rln/group.h"

#include <stdexcept>

#include "obs/memory.h"

namespace wakurln::rln {

RlnGroup::RlnGroup(std::size_t tree_depth) : tree_(tree_depth) {}

std::uint64_t RlnGroup::add_member(const field::Fr& pk) {
  if (pk.is_zero()) {
    throw std::invalid_argument("RlnGroup: zero is reserved for empty/deleted leaves");
  }
  const std::uint64_t index = tree_.append(pk);
  index_by_pk_[pk] = index;
  ++active_members_;
  return index;
}

void RlnGroup::remove_member(std::uint64_t index) {
  const field::Fr pk = tree_.leaf(index);
  if (pk.is_zero()) {
    throw std::out_of_range("RlnGroup: no active member at index");
  }
  tree_.update(index, field::Fr::zero());
  index_by_pk_.erase(pk);
  --active_members_;
}

RlnGroup RlnGroup::from_leaves(std::size_t tree_depth, std::span<const field::Fr> leaves) {
  RlnGroup group(tree_depth);
  for (const field::Fr& leaf : leaves) {
    const std::uint64_t index = group.tree_.append(leaf);
    if (leaf.is_zero()) continue;
    group.index_by_pk_[leaf] = index;
    ++group.active_members_;
  }
  return group;
}

std::optional<std::uint64_t> RlnGroup::index_of(const field::Fr& pk) const {
  const auto it = index_by_pk_.find(pk);
  if (it == index_by_pk_.end()) return std::nullopt;
  return it->second;
}

bool RlnGroup::is_active(std::uint64_t index) const {
  return index < tree_.size() && !tree_.leaf(index).is_zero();
}

merkle::MerkleProof RlnGroup::membership_proof(std::uint64_t index) const {
  if (!is_active(index)) {
    throw std::out_of_range("RlnGroup: no active member at index");
  }
  return tree_.prove(index);
}

std::size_t RlnGroup::memory_bytes() const {
  std::size_t total = sizeof(RlnGroup) - sizeof(merkle::MerkleTree);
  total += tree_.memory_bytes();
  total += index_by_pk_.bucket_count() * sizeof(void*);
  total += index_by_pk_.size() *
           (obs::kUnorderedNodeBytes +
            sizeof(std::pair<const field::Fr, std::uint64_t>));
  return total;
}

}  // namespace wakurln::rln
