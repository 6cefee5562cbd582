#include "eth/membership_contract.h"

#include "hash/poseidon.h"

namespace wakurln::eth {

MembershipContract::MembershipContract(Chain& chain, MembershipConfig config)
    : chain_(chain), config_(config), address_(chain.allocate_contract_address()) {}

void MembershipContract::register_member(TxContext& ctx, const field::Fr& pk) {
  const GasSchedule& g = chain_.config().gas;
  if (pk.is_zero()) {
    ctx.revert("zero commitment");
    return;
  }
  if (ctx.value() != config_.stake_wei) {
    ctx.revert("stake mismatch");
    return;
  }
  ctx.gas().charge(g.sload);  // read duplicate-registration guard
  if (index_by_pk_.contains(pk)) {
    ctx.revert("already registered");
    return;
  }
  const std::uint64_t capacity = std::uint64_t{1} << config_.tree_depth;
  if (pks_.size() >= capacity) {
    ctx.revert("group full");
    return;
  }
  if (!ctx.chain().ledger().transfer(ctx.from(), address_, ctx.value())) {
    ctx.revert("insufficient balance");
    return;
  }

  const std::uint64_t index = pks_.size();
  pks_.push_back(pk);
  index_by_pk_[pk] = index;
  ++active_members_;

  on_register_storage(ctx, pk, index);

  // MemberRegistered(pk, index) log: 2 topics + 64 data bytes.
  ctx.gas().charge(g.log_base + 2 * g.log_topic + 64 * g.log_byte);
  ctx.emit(MemberRegistered{pk, index});
}

void MembershipContract::slash(TxContext& ctx, const field::Fr& sk) {
  const GasSchedule& g = chain_.config().gas;
  // The contract recomputes pk = H(sk) on-chain to validate the evidence;
  // the host evaluates it once per distinct sk.
  ctx.gas().charge(g.poseidon_eval);
  auto memo = pk_of_sk_.find(sk);
  if (memo == pk_of_sk_.end()) memo = pk_of_sk_.emplace(sk, hash::poseidon_hash1(sk)).first;
  const field::Fr& pk = memo->second;

  ctx.gas().charge(g.sload);  // membership lookup
  const auto it = index_by_pk_.find(pk);
  if (it == index_by_pk_.end()) {
    ctx.revert("not a member");
    return;
  }
  const std::uint64_t index = it->second;

  // Remove the member.
  pks_[index] = field::Fr::zero();
  index_by_pk_.erase(it);
  --active_members_;
  on_slash_storage(ctx, index);

  // Split the stake: burn a portion, reward the slasher with the rest.
  const auto burnt =
      static_cast<std::uint64_t>(static_cast<double>(config_.stake_wei) * config_.burn_fraction);
  const std::uint64_t reward = config_.stake_wei - burnt;
  // The contract always holds the member's stake at this point.
  (void)ctx.chain().ledger().transfer(address_, kBurnAddress, burnt);
  (void)ctx.chain().ledger().transfer(address_, ctx.from(), reward);

  ctx.gas().charge(g.log_base + 2 * g.log_topic + 96 * g.log_byte);
  ctx.emit(MemberSlashed{pk, index, ctx.from(), burnt, reward});
}

bool MembershipContract::is_active(const field::Fr& pk) const {
  return index_by_pk_.contains(pk);
}

void RegistryListContract::on_register_storage(TxContext& ctx, const field::Fr& pk,
                                               std::uint64_t index) {
  (void)pk;
  (void)index;
  const GasSchedule& g = chain_.config().gas;
  // One fresh slot for the pk, one counter update. Constant — the paper's
  // design goal for off-chain tree maintenance.
  ctx.gas().charge(g.sstore_set + g.sstore_update);
}

void RegistryListContract::on_slash_storage(TxContext& ctx, std::uint64_t index) {
  (void)index;
  const GasSchedule& g = chain_.config().gas;
  // Zero the pk slot. Constant.
  ctx.gas().charge(g.sstore_update);
}

OnChainTreeContract::OnChainTreeContract(Chain& chain, MembershipConfig config)
    : MembershipContract(chain, config), tree_(config.tree_depth) {}

void OnChainTreeContract::charge_path_update(TxContext& ctx) {
  const GasSchedule& g = chain_.config().gas;
  for (std::size_t level = 0; level < config_.tree_depth; ++level) {
    // Read the sibling, hash in EVM, write the parent.
    ctx.gas().charge(g.sload + g.poseidon_eval + g.sstore_update);
  }
}

void OnChainTreeContract::on_register_storage(TxContext& ctx, const field::Fr& pk,
                                              std::uint64_t index) {
  (void)index;
  const GasSchedule& g = chain_.config().gas;
  ctx.gas().charge(g.sstore_set);  // the leaf itself
  charge_path_update(ctx);         // O(depth) node rewrites + hashes
  tree_.append(pk);
}

void OnChainTreeContract::on_slash_storage(TxContext& ctx, std::uint64_t index) {
  const GasSchedule& g = chain_.config().gas;
  ctx.gas().charge(g.sstore_update);  // zero the leaf
  charge_path_update(ctx);
  tree_.update(index, field::Fr::zero());
}

}  // namespace wakurln::eth
