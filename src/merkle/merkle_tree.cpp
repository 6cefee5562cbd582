#include "merkle/merkle_tree.h"

#include <stdexcept>

#include "hash/poseidon.h"

namespace wakurln::merkle {

namespace {
constexpr std::size_t kMaxDepth = 40;
}

const field::Fr& zero_at_level(std::size_t level) {
  static const std::vector<field::Fr> zeros = [] {
    std::vector<field::Fr> z;
    z.reserve(kMaxDepth + 1);
    z.push_back(field::Fr::zero());
    for (std::size_t i = 0; i < kMaxDepth; ++i) {
      z.push_back(hash::poseidon_hash2(z.back(), z.back()));
    }
    return z;
  }();
  if (level >= zeros.size()) {
    throw std::out_of_range("zero_at_level: level too deep");
  }
  return zeros[level];
}

MerkleTree::MerkleTree(std::size_t depth) : depth_(depth) {
  if (depth < 1 || depth > kMaxDepth) {
    throw std::invalid_argument("MerkleTree: depth must be in [1, 40]");
  }
  levels_.resize(depth + 1);
}

field::Fr MerkleTree::node(std::size_t level, std::uint64_t index) const {
  const auto& lvl = levels_[level];
  if (index < lvl.size()) return lvl[index];
  return zero_at_level(level);
}

void MerkleTree::set_node(std::size_t level, std::uint64_t index, const field::Fr& value) {
  auto& lvl = levels_[level];
  if (index >= lvl.size()) {
    lvl.resize(index + 1, zero_at_level(level));
  }
  lvl[index] = value;
}

std::uint64_t MerkleTree::append(const field::Fr& leaf) {
  if (next_index_ >= capacity()) {
    throw std::length_error("MerkleTree: capacity exhausted");
  }
  const std::uint64_t index = next_index_++;
  set_node(0, index, leaf);
  std::uint64_t idx = index;
  for (std::size_t level = 0; level < depth_; ++level) {
    const std::uint64_t parent = idx >> 1;
    const field::Fr left = node(level, parent << 1);
    const field::Fr right = node(level, (parent << 1) | 1);
    set_node(level + 1, parent, hash::poseidon_hash2(left, right));
    idx = parent;
  }
  return index;
}

void MerkleTree::update(std::uint64_t index, const field::Fr& leaf) {
  if (index >= next_index_) {
    throw std::out_of_range("MerkleTree::update: index beyond appended range");
  }
  set_node(0, index, leaf);
  std::uint64_t idx = index;
  for (std::size_t level = 0; level < depth_; ++level) {
    const std::uint64_t parent = idx >> 1;
    const field::Fr left = node(level, parent << 1);
    const field::Fr right = node(level, (parent << 1) | 1);
    set_node(level + 1, parent, hash::poseidon_hash2(left, right));
    idx = parent;
  }
}

field::Fr MerkleTree::root() const {
  return node(depth_, 0);
}

field::Fr MerkleTree::leaf(std::uint64_t index) const {
  return node(0, index);
}

MerkleProof MerkleTree::prove(std::uint64_t index) const {
  if (index >= next_index_) {
    throw std::out_of_range("MerkleTree::prove: index beyond appended range");
  }
  MerkleProof proof;
  proof.leaf_index = index;
  proof.siblings.reserve(depth_);
  std::uint64_t idx = index;
  for (std::size_t level = 0; level < depth_; ++level) {
    proof.siblings.push_back(node(level, idx ^ 1));
    idx >>= 1;
  }
  return proof;
}

bool MerkleTree::verify(const field::Fr& root, const field::Fr& leaf, const MerkleProof& proof) {
  field::Fr acc = leaf;
  std::uint64_t idx = proof.leaf_index;
  for (const field::Fr& sibling : proof.siblings) {
    if (idx & 1) {
      acc = hash::poseidon_hash2(sibling, acc);
    } else {
      acc = hash::poseidon_hash2(acc, sibling);
    }
    idx >>= 1;
  }
  return acc == root;
}

std::size_t MerkleTree::storage_bytes() const {
  std::size_t nodes = 0;
  for (const auto& lvl : levels_) nodes += lvl.size();
  return nodes * field::Fr::kByteSize;
}

std::size_t MerkleTree::memory_bytes() const {
  std::size_t total = sizeof(MerkleTree);
  for (const auto& lvl : levels_) {
    total += sizeof(std::vector<field::Fr>) + lvl.capacity() * sizeof(field::Fr);
  }
  return total;
}

std::uint64_t MerkleTree::full_storage_bytes(std::size_t depth) {
  // Sum over levels l=0..depth of 2^(depth-l) nodes = 2^(depth+1) - 1.
  return ((std::uint64_t{1} << (depth + 1)) - 1) * field::Fr::kByteSize;
}

}  // namespace wakurln::merkle
