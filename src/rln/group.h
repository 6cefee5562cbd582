#pragma once
// Local (off-chain) view of the RLN membership group — the design choice
// of §III: the contract stores only the ordered pk list, and every peer
// maintains the Merkle tree itself, kept in sync via contract events.

#include <cstdint>
#include <optional>
#include <span>
#include <unordered_map>

#include "field/fr.h"
#include "merkle/merkle_tree.h"

namespace wakurln::rln {

/// Membership tree plus pk → leaf-index bookkeeping.
class RlnGroup {
 public:
  explicit RlnGroup(std::size_t tree_depth);

  std::size_t tree_depth() const { return tree_.depth(); }
  std::uint64_t member_count() const { return active_members_; }
  std::uint64_t leaf_count() const { return tree_.size(); }

  /// Inserts a member commitment; returns its leaf index.
  std::uint64_t add_member(const field::Fr& pk);

  /// Deletes the member at `index` by zeroing its leaf (slashing).
  void remove_member(std::uint64_t index);

  /// Rebuilds a group from its full leaf sequence, a zero leaf being a
  /// deleted slot (the persisted snapshot). One append per leaf: the root
  /// and every active index equal those of the group the leaves came
  /// from. A pk placed in two slots is indexed at the later one only
  /// (rln::load_group rejects such a snapshot). Throws std::length_error
  /// when the leaves exceed the tree's capacity.
  static RlnGroup from_leaves(std::size_t tree_depth, std::span<const field::Fr> leaves);

  /// Leaf index of `pk`, if this exact commitment is an active member.
  std::optional<std::uint64_t> index_of(const field::Fr& pk) const;

  bool is_active(std::uint64_t index) const;

  field::Fr root() const { return tree_.root(); }

  /// Membership path for the member at `index`.
  merkle::MerkleProof membership_proof(std::uint64_t index) const;

  /// Direct tree access for storage experiments.
  const merkle::MerkleTree& tree() const { return tree_; }

  /// Modeled resident bytes of the group view: the Merkle tree plus the
  /// pk → index lookup (libstdc++ layout, constants in obs/memory.h).
  std::size_t memory_bytes() const;

 private:
  merkle::MerkleTree tree_;
  std::unordered_map<field::Fr, std::uint64_t, field::FrHash> index_by_pk_;
  std::uint64_t active_members_ = 0;
};

}  // namespace wakurln::rln
