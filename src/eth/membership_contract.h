#pragma once
// Membership contracts. Two interchangeable implementations:
//
//  * RegistryListContract — the paper's design (§III): the contract keeps
//    only an ordered list of public keys; the Merkle tree lives off-chain
//    with the peers. Registration and deletion are O(1) storage writes.
//
//  * OnChainTreeContract — the originally proposed RLN construction
//    (§II/§III): the contract maintains the whole membership Merkle tree
//    in storage, paying O(depth) storage writes *and* O(depth) on-chain
//    Poseidon evaluations per registration/deletion.
//
// bench_gas and bench_membership_ops reproduce the paper's
// "order of magnitude" gas claim by diffing the two.
//
// Both enforce staking (join requires `stake_wei`) and slashing: anyone who
// submits a member's secret key gets that member removed; a fraction of the
// stake is burnt and the rest paid to the slasher (§II).

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "eth/chain.h"
#include "field/fr.h"
#include "merkle/merkle_tree.h"

namespace wakurln::eth {

/// Common staking/slashing parameters.
struct MembershipConfig {
  std::size_t tree_depth = 20;
  /// Required deposit per member (the paper's `v` Eth).
  std::uint64_t stake_wei = 1'000'000;
  /// Fraction of the stake burnt on slashing; the rest rewards the slasher.
  double burn_fraction = 0.5;
};

/// Interface shared by both contract variants.
class MembershipContract {
 public:
  explicit MembershipContract(Chain& chain, MembershipConfig config);
  virtual ~MembershipContract() = default;

  Address address() const { return address_; }
  const MembershipConfig& config() const { return config_; }
  std::uint64_t member_count() const { return active_members_; }
  std::uint64_t registered_total() const { return static_cast<std::uint64_t>(pks_.size()); }

  /// Contract entry point: registers `pk`, staking the tx value.
  /// Called from inside a Chain transaction.
  void register_member(TxContext& ctx, const field::Fr& pk);

  /// Contract entry point: slashes the member owning `sk` (paper §II:
  /// "user removal is done by passing a member's secret key to the
  /// contract"). Burns a portion of the stake, rewards ctx.from().
  void slash(TxContext& ctx, const field::Fr& sk);

  /// Whether `pk` is a currently active (unslashed) member.
  bool is_active(const field::Fr& pk) const;

  /// Calldata sizes for gas accounting at the submission site.
  static constexpr std::uint64_t kRegisterCalldataBytes = 4 + 32;  // selector + pk
  static constexpr std::uint64_t kSlashCalldataBytes = 4 + 32;     // selector + sk

 protected:
  /// Variant-specific storage work for an append at `index`.
  virtual void on_register_storage(TxContext& ctx, const field::Fr& pk,
                                   std::uint64_t index) = 0;
  /// Variant-specific storage work for a deletion at `index`.
  virtual void on_slash_storage(TxContext& ctx, std::uint64_t index) = 0;

  Chain& chain_;
  MembershipConfig config_;
  Address address_;
  /// Ordered list of registered pks (zeroed on slash).
  std::vector<field::Fr> pks_;
  std::unordered_map<field::Fr, std::uint64_t, field::FrHash> index_by_pk_;
  std::uint64_t active_members_ = 0;

 private:
  /// Host-side memo of pk = H(sk), keyed by the full sk: one Poseidon per
  /// distinct submitted secret, however many relays submit it. It caches
  /// the hash, never membership, and slash() still charges the modeled
  /// poseidon_eval gas on every call.
  std::unordered_map<field::Fr, field::Fr, field::FrHash> pk_of_sk_;
};

/// The paper's contract: flat registry, constant-cost operations.
class RegistryListContract final : public MembershipContract {
 public:
  using MembershipContract::MembershipContract;

 protected:
  void on_register_storage(TxContext& ctx, const field::Fr& pk,
                           std::uint64_t index) override;
  void on_slash_storage(TxContext& ctx, std::uint64_t index) override;
};

/// The original RLN contract: full Merkle tree maintained on-chain.
class OnChainTreeContract final : public MembershipContract {
 public:
  OnChainTreeContract(Chain& chain, MembershipConfig config);

  /// Root as tracked by the contract (peers could read it via SLOAD).
  field::Fr on_chain_root() const { return tree_.root(); }

 protected:
  void on_register_storage(TxContext& ctx, const field::Fr& pk,
                           std::uint64_t index) override;
  void on_slash_storage(TxContext& ctx, std::uint64_t index) override;

 private:
  /// Charges gas for one root-path update: per level, read the sibling,
  /// evaluate Poseidon in EVM, write the parent node.
  void charge_path_update(TxContext& ctx);

  merkle::MerkleTree tree_;
};

}  // namespace wakurln::eth
