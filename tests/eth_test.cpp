#include <gtest/gtest.h>

#include "eth/chain.h"
#include "eth/membership_contract.h"
#include "eth/signal_board.h"
#include "rln/identity.h"
#include "util/rng.h"

namespace wakurln::eth {
namespace {

using field::Fr;
using rln::Identity;
using util::Rng;

Chain::Config test_chain_config() {
  Chain::Config cfg;
  cfg.block_time_seconds = 12;
  return cfg;
}

MembershipConfig small_membership() {
  MembershipConfig cfg;
  cfg.tree_depth = 8;
  cfg.stake_wei = 1'000'000;
  cfg.burn_fraction = 0.5;
  return cfg;
}

// Submits a register_member transaction and mines it immediately.
Receipt register_now(Chain& chain, MembershipContract& contract, Address from,
                     const Fr& pk, std::uint64_t now, std::uint64_t stake) {
  const auto tx = chain.submit(
      from, stake, MembershipContract::kRegisterCalldataBytes,
      [&contract, pk](TxContext& ctx) { contract.register_member(ctx, pk); }, now);
  chain.mine_block(now + chain.config().block_time_seconds);
  return *chain.receipt(tx);
}

Receipt slash_now(Chain& chain, MembershipContract& contract, Address slasher,
                  const Fr& sk, std::uint64_t now) {
  const auto tx = chain.submit(
      slasher, 0, MembershipContract::kSlashCalldataBytes,
      [&contract, sk](TxContext& ctx) { contract.slash(ctx, sk); }, now);
  chain.mine_block(now + chain.config().block_time_seconds);
  return *chain.receipt(tx);
}

TEST(LedgerTest, MintAndTransfer) {
  Ledger ledger;
  ledger.mint(1, 100);
  EXPECT_EQ(ledger.balance_of(1), 100u);
  EXPECT_TRUE(ledger.transfer(1, 2, 40));
  EXPECT_EQ(ledger.balance_of(1), 60u);
  EXPECT_EQ(ledger.balance_of(2), 40u);
}

TEST(LedgerTest, TransferFailsOnInsufficientFunds) {
  Ledger ledger;
  ledger.mint(1, 10);
  EXPECT_FALSE(ledger.transfer(1, 2, 11));
  EXPECT_EQ(ledger.balance_of(1), 10u);
  EXPECT_EQ(ledger.balance_of(2), 0u);
}

TEST(LedgerTest, BurnTracksTotal) {
  Ledger ledger;
  ledger.mint(1, 100);
  EXPECT_TRUE(ledger.transfer(1, kBurnAddress, 30));
  EXPECT_EQ(ledger.burnt_total(), 30u);
}

TEST(ChainTest, RejectsZeroBlockTime) {
  Chain::Config cfg;
  cfg.block_time_seconds = 0;
  EXPECT_THROW(Chain{cfg}, std::invalid_argument);
}

TEST(ChainTest, TransactionsOnlyExecuteWhenMined) {
  Chain chain(test_chain_config());
  bool executed = false;
  const auto tx = chain.submit(1, 0, 0, [&](TxContext&) { executed = true; }, 0);
  EXPECT_FALSE(executed);
  EXPECT_EQ(chain.receipt(tx), nullptr);
  EXPECT_EQ(chain.pending_count(), 1u);

  chain.mine_block(12);
  EXPECT_TRUE(executed);
  ASSERT_NE(chain.receipt(tx), nullptr);
  EXPECT_TRUE(chain.receipt(tx)->success);
  EXPECT_EQ(chain.receipt(tx)->block_number, 1u);
  EXPECT_EQ(chain.pending_count(), 0u);
}

TEST(ChainTest, BaseGasChargedPerTransaction) {
  Chain chain(test_chain_config());
  const auto tx = chain.submit(1, 0, 10, [](TxContext&) {}, 0);
  chain.mine_block(12);
  const GasSchedule& g = GasSchedule::standard();
  EXPECT_EQ(chain.receipt(tx)->gas_used, g.tx_base + 10 * g.calldata_byte);
}

TEST(ChainTest, MonotonicTimestampsEnforced) {
  Chain chain(test_chain_config());
  chain.mine_block(100);
  EXPECT_THROW(chain.mine_block(50), std::invalid_argument);
}

TEST(ChainTest, RevertedTxEmitsNoEvents) {
  Chain chain(test_chain_config());
  int events_seen = 0;
  chain.subscribe_events([&](const ContractEvent&, const Block&) { ++events_seen; });
  chain.submit(
      1, 0, 0,
      [](TxContext& ctx) {
        ctx.emit(SignalPosted{0, 1});
        ctx.revert("boom");
      },
      0);
  chain.mine_block(12);
  EXPECT_EQ(events_seen, 0);
  EXPECT_FALSE(chain.blocks().back().receipts[0].success);
  EXPECT_EQ(chain.blocks().back().receipts[0].error, "boom");
}

TEST(ChainTest, EventsDeliveredAtSealTime) {
  Chain chain(test_chain_config());
  std::vector<std::uint64_t> seen_blocks;
  chain.subscribe_events(
      [&](const ContractEvent&, const Block& b) { seen_blocks.push_back(b.number); });
  chain.submit(1, 0, 0, [](TxContext& ctx) { ctx.emit(SignalPosted{7, 3}); }, 0);
  EXPECT_TRUE(seen_blocks.empty());
  chain.mine_block(12);
  ASSERT_EQ(seen_blocks.size(), 1u);
  EXPECT_EQ(seen_blocks[0], 1u);
}

class MembershipContractTest : public ::testing::TestWithParam<bool> {
 protected:
  MembershipContractTest() : chain_(test_chain_config()) {
    if (GetParam()) {
      contract_ = std::make_unique<OnChainTreeContract>(chain_, small_membership());
    } else {
      contract_ = std::make_unique<RegistryListContract>(chain_, small_membership());
    }
    chain_.ledger().mint(kAlice, 10'000'000);
    chain_.ledger().mint(kBob, 10'000'000);
  }

  static constexpr Address kAlice = 100, kBob = 200;
  Chain chain_;
  std::unique_ptr<MembershipContract> contract_;
  Rng rng_{42};
};

TEST_P(MembershipContractTest, RegistrationStakesAndEmits) {
  const Identity id = Identity::generate(rng_);
  std::vector<MemberRegistered> events;
  chain_.subscribe_events([&](const ContractEvent& ev, const Block&) {
    if (const auto* reg = std::get_if<MemberRegistered>(&ev)) events.push_back(*reg);
  });

  const Receipt r = register_now(chain_, *contract_, kAlice, id.pk, 0,
                                 contract_->config().stake_wei);
  EXPECT_TRUE(r.success);
  EXPECT_EQ(contract_->member_count(), 1u);
  EXPECT_TRUE(contract_->is_active(id.pk));
  EXPECT_EQ(chain_.ledger().balance_of(kAlice), 10'000'000u - 1'000'000u);
  EXPECT_EQ(chain_.ledger().balance_of(contract_->address()), 1'000'000u);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].pk, id.pk);
  EXPECT_EQ(events[0].index, 0u);
}

TEST_P(MembershipContractTest, RegistrationRejectsWrongStake) {
  const Identity id = Identity::generate(rng_);
  const Receipt r = register_now(chain_, *contract_, kAlice, id.pk, 0, 999);
  EXPECT_FALSE(r.success);
  EXPECT_EQ(r.error, "stake mismatch");
  EXPECT_EQ(contract_->member_count(), 0u);
  EXPECT_EQ(chain_.ledger().balance_of(kAlice), 10'000'000u);
}

TEST_P(MembershipContractTest, RegistrationRejectsDuplicate) {
  const Identity id = Identity::generate(rng_);
  EXPECT_TRUE(register_now(chain_, *contract_, kAlice, id.pk, 0,
                           contract_->config().stake_wei)
                  .success);
  const Receipt dup = register_now(chain_, *contract_, kBob, id.pk, 20,
                                   contract_->config().stake_wei);
  EXPECT_FALSE(dup.success);
  EXPECT_EQ(dup.error, "already registered");
  EXPECT_EQ(contract_->member_count(), 1u);
}

TEST_P(MembershipContractTest, RegistrationRejectsZeroCommitment) {
  const Receipt r = register_now(chain_, *contract_, kAlice, Fr::zero(), 0,
                                 contract_->config().stake_wei);
  EXPECT_FALSE(r.success);
}

TEST_P(MembershipContractTest, RegistrationRejectsPoorAccount) {
  Chain fresh(test_chain_config());
  std::unique_ptr<MembershipContract> contract;
  if (GetParam()) {
    contract = std::make_unique<OnChainTreeContract>(fresh, small_membership());
  } else {
    contract = std::make_unique<RegistryListContract>(fresh, small_membership());
  }
  const Identity id = Identity::generate(rng_);
  const Receipt r =
      register_now(fresh, *contract, 999, id.pk, 0, contract->config().stake_wei);
  EXPECT_FALSE(r.success);
  EXPECT_EQ(r.error, "insufficient balance");
}

TEST_P(MembershipContractTest, SlashBurnsAndRewards) {
  const Identity id = Identity::generate(rng_);
  register_now(chain_, *contract_, kAlice, id.pk, 0, contract_->config().stake_wei);

  std::vector<MemberSlashed> events;
  chain_.subscribe_events([&](const ContractEvent& ev, const Block&) {
    if (const auto* s = std::get_if<MemberSlashed>(&ev)) events.push_back(*s);
  });

  const std::uint64_t bob_before = chain_.ledger().balance_of(kBob);
  const Receipt r = slash_now(chain_, *contract_, kBob, id.sk, 20);
  EXPECT_TRUE(r.success);
  EXPECT_FALSE(contract_->is_active(id.pk));
  EXPECT_EQ(contract_->member_count(), 0u);
  // 50% burnt, 50% to the slasher.
  EXPECT_EQ(chain_.ledger().burnt_total(), 500'000u);
  EXPECT_EQ(chain_.ledger().balance_of(kBob), bob_before + 500'000u);
  EXPECT_EQ(chain_.ledger().balance_of(contract_->address()), 0u);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].pk, id.pk);
  EXPECT_EQ(events[0].beneficiary, kBob);
}

TEST_P(MembershipContractTest, SlashRejectsNonMember) {
  const Identity stranger = Identity::generate(rng_);
  const Receipt r = slash_now(chain_, *contract_, kBob, stranger.sk, 0);
  EXPECT_FALSE(r.success);
  EXPECT_EQ(r.error, "not a member");
}

TEST_P(MembershipContractTest, SlashedMemberCannotBeSlashedTwice) {
  const Identity id = Identity::generate(rng_);
  register_now(chain_, *contract_, kAlice, id.pk, 0, contract_->config().stake_wei);
  EXPECT_TRUE(slash_now(chain_, *contract_, kBob, id.sk, 20).success);
  const Receipt again = slash_now(chain_, *contract_, kBob, id.sk, 40);
  EXPECT_FALSE(again.success);
}

TEST_P(MembershipContractTest, RepeatedSlashOfOneSecretRevertsAtNonMemberGas) {
  // Every relay that recovers a secret submits it, so the contract sees
  // the same sk many times. The host evaluates pk = H(sk) once, but the
  // modeled gas is charged on every call: each late slash costs exactly
  // what slashing a stranger costs.
  const Identity id = Identity::generate(rng_);
  const Identity stranger = Identity::generate(rng_);
  register_now(chain_, *contract_, kAlice, id.pk, 0, contract_->config().stake_wei);
  const Receipt non_member = slash_now(chain_, *contract_, kBob, stranger.sk, 20);
  ASSERT_FALSE(non_member.success);

  std::uint64_t now = 40;
  EXPECT_TRUE(slash_now(chain_, *contract_, kBob, id.sk, now).success);
  for (int i = 0; i < 4; ++i) {
    now += 20;
    const Receipt again = slash_now(chain_, *contract_, kBob, id.sk, now);
    EXPECT_FALSE(again.success) << "repeat " << i;
    EXPECT_EQ(again.error, "not a member") << "repeat " << i;
    EXPECT_EQ(again.gas_used, non_member.gas_used) << "repeat " << i;
  }
  EXPECT_EQ(chain_.ledger().burnt_total(), 500'000u);
}

TEST_P(MembershipContractTest, ReRegisteredMemberIsSlashableAgain) {
  // The contract memoises the hash, never membership: a member who
  // re-registers the same pk after a slash can be slashed again.
  const Identity id = Identity::generate(rng_);
  std::vector<MemberSlashed> events;
  chain_.subscribe_events([&](const ContractEvent& ev, const Block&) {
    if (const auto* s = std::get_if<MemberSlashed>(&ev)) events.push_back(*s);
  });
  const std::uint64_t stake = contract_->config().stake_wei;
  register_now(chain_, *contract_, kAlice, id.pk, 0, stake);
  ASSERT_TRUE(slash_now(chain_, *contract_, kBob, id.sk, 20).success);
  ASSERT_FALSE(contract_->is_active(id.pk));

  ASSERT_TRUE(register_now(chain_, *contract_, kAlice, id.pk, 40, stake).success);
  EXPECT_TRUE(contract_->is_active(id.pk));
  const Receipt second = slash_now(chain_, *contract_, kBob, id.sk, 60);
  EXPECT_TRUE(second.success) << second.error;
  EXPECT_FALSE(contract_->is_active(id.pk));
  EXPECT_EQ(contract_->member_count(), 0u);
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].index, 0u);
  EXPECT_EQ(events[1].pk, id.pk);
  EXPECT_EQ(events[1].index, 1u);  // the second registration's slot
  EXPECT_EQ(chain_.ledger().burnt_total(), stake);
}

TEST_P(MembershipContractTest, GroupFullRejects) {
  MembershipConfig tiny = small_membership();
  tiny.tree_depth = 1;  // capacity 2
  Chain chain(test_chain_config());
  std::unique_ptr<MembershipContract> contract;
  if (GetParam()) {
    contract = std::make_unique<OnChainTreeContract>(chain, tiny);
  } else {
    contract = std::make_unique<RegistryListContract>(chain, tiny);
  }
  chain.ledger().mint(kAlice, 10'000'000);
  std::uint64_t now = 0;
  for (int i = 0; i < 2; ++i) {
    const Identity id = Identity::generate(rng_);
    EXPECT_TRUE(register_now(chain, *contract, kAlice, id.pk, now, tiny.stake_wei).success);
    now += 20;
  }
  const Identity extra = Identity::generate(rng_);
  EXPECT_FALSE(register_now(chain, *contract, kAlice, extra.pk, now, tiny.stake_wei).success);
}

INSTANTIATE_TEST_SUITE_P(BothVariants, MembershipContractTest,
                         ::testing::Values(false, true),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "OnChainTree" : "RegistryList";
                         });

TEST(GasComparisonTest, RegistryListIsOrderOfMagnitudeCheaper) {
  // The §III claim: moving the tree off-chain cuts registration gas by an
  // order of magnitude. Holds at the deployment depth the paper discusses
  // (depth 20; the gap only widens at 32).
  Chain chain(test_chain_config());
  MembershipConfig cfg = small_membership();
  cfg.tree_depth = 20;
  RegistryListContract registry(chain, cfg);
  OnChainTreeContract onchain(chain, cfg);
  chain.ledger().mint(1, 100'000'000);
  Rng rng(77);

  const Identity a = Identity::generate(rng);
  const Identity b = Identity::generate(rng);
  const Receipt r_list = register_now(chain, registry, 1, a.pk, 0, 1'000'000);
  const Receipt r_tree = register_now(chain, onchain, 1, b.pk, 20, 1'000'000);
  ASSERT_TRUE(r_list.success);
  ASSERT_TRUE(r_tree.success);
  EXPECT_GE(r_tree.gas_used, 10 * r_list.gas_used)
      << "registry=" << r_list.gas_used << " on-chain tree=" << r_tree.gas_used;
}

TEST(GasComparisonTest, RegistryGasConstantInGroupSize) {
  Chain chain(test_chain_config());
  RegistryListContract registry(chain, small_membership());
  chain.ledger().mint(1, 1'000'000'000);
  Rng rng(78);
  std::uint64_t first_gas = 0, last_gas = 0, now = 0;
  for (int i = 0; i < 50; ++i) {
    const Identity id = Identity::generate(rng);
    const Receipt r = register_now(chain, registry, 1, id.pk, now, 1'000'000);
    ASSERT_TRUE(r.success);
    if (i == 0) first_gas = r.gas_used;
    last_gas = r.gas_used;
    now += 20;
  }
  EXPECT_EQ(first_gas, last_gas);
}

TEST(OnChainTreeTest, RootMatchesOffChainTree) {
  Chain chain(test_chain_config());
  OnChainTreeContract contract(chain, small_membership());
  chain.ledger().mint(1, 100'000'000);
  Rng rng(79);
  merkle::MerkleTree reference(small_membership().tree_depth);
  std::uint64_t now = 0;
  for (int i = 0; i < 5; ++i) {
    const Identity id = Identity::generate(rng);
    register_now(chain, contract, 1, id.pk, now, 1'000'000);
    reference.append(id.pk);
    now += 20;
    EXPECT_EQ(contract.on_chain_root(), reference.root());
  }
}

TEST(SignalBoardTest, PostChargesPerByteAndEmits) {
  Chain chain(test_chain_config());
  SignalBoardContract board(chain);
  std::vector<SignalPosted> events;
  chain.subscribe_events([&](const ContractEvent& ev, const Block&) {
    if (const auto* p = std::get_if<SignalPosted>(&ev)) events.push_back(*p);
  });

  const std::uint64_t payload = 256;
  const auto tx = chain.submit(
      1, 0, SignalBoardContract::calldata_bytes(payload),
      [&](TxContext& ctx) { board.post(ctx, payload); }, 0);
  chain.mine_block(12);
  ASSERT_TRUE(chain.receipt(tx)->success);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].payload_bytes, payload);
  // Posting bytes on-chain costs orders of magnitude more gas than the
  // 21k base: 8 slots * 20k alone is 160k.
  EXPECT_GT(chain.receipt(tx)->gas_used, 180'000u);
}

TEST(SignalBoardTest, InclusionLatencyIsBlockBound) {
  // A message submitted right after a block waits a full block time before
  // becoming visible — the §III propagation argument.
  Chain chain(test_chain_config());
  SignalBoardContract board(chain);
  const std::uint64_t submitted_at = 1;  // just after block at t=0
  const auto tx = chain.submit(
      1, 0, SignalBoardContract::calldata_bytes(64),
      [&](TxContext& ctx) { board.post(ctx, 64); }, submitted_at);
  chain.mine_block(12);
  const Receipt* r = chain.receipt(tx);
  ASSERT_NE(r, nullptr);
  EXPECT_EQ(r->block_timestamp - r->submitted_at, 11u);
}

}  // namespace
}  // namespace wakurln::eth
