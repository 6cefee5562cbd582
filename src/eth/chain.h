#pragma once
// Deterministic in-process Ethereum stand-in (DESIGN.md §2 substitution 3):
// a FIFO transaction pool, blocks mined at a configurable cadence, per-tx
// gas receipts, and contract events delivered when (and only when) the
// containing block is sealed — the visibility semantics behind the paper's
// off-chain-vs-on-chain propagation comparison (§III) and the membership
// group-synchronisation flow.

#include <cstdint>
#include <functional>
#include <string>
#include <variant>
#include <vector>

#include "eth/gas.h"
#include "eth/ledger.h"
#include "field/fr.h"

namespace wakurln::eth {

/// Emitted when a member registers (pk appended at `index`).
struct MemberRegistered {
  field::Fr pk;
  std::uint64_t index;
};

/// Emitted when a member is slashed and removed.
struct MemberSlashed {
  field::Fr pk;
  std::uint64_t index;
  Address beneficiary;
  std::uint64_t burnt_wei;
  std::uint64_t reward_wei;
};

/// Emitted by the on-chain signal board (message posted on-chain).
struct SignalPosted {
  std::uint64_t signal_id;
  std::uint64_t payload_bytes;
};

using ContractEvent = std::variant<MemberRegistered, MemberSlashed, SignalPosted>;

/// Result of one transaction execution.
struct Receipt {
  std::uint64_t tx_id = 0;
  bool success = false;
  std::string error;
  std::uint64_t gas_used = 0;
  std::uint64_t block_number = 0;
  std::uint64_t block_timestamp = 0;
  std::uint64_t submitted_at = 0;
};

struct Block {
  std::uint64_t number = 0;
  std::uint64_t timestamp = 0;
  std::uint64_t gas_used = 0;
  std::vector<Receipt> receipts;
};

class Chain;

/// Execution context a contract method receives inside a transaction.
class TxContext {
 public:
  TxContext(Chain& chain, Address from, std::uint64_t value, std::uint64_t calldata_bytes);

  Address from() const { return from_; }
  std::uint64_t value() const { return value_; }
  Chain& chain() { return chain_; }
  GasMeter& gas() { return gas_; }

  /// Buffers an event; delivered to subscribers when the block is sealed.
  void emit(ContractEvent event);

  /// Marks the transaction failed with a reason (gas is still consumed).
  void revert(std::string reason);

  bool reverted() const { return !error_.empty(); }
  const std::string& error() const { return error_; }
  const std::vector<ContractEvent>& events() const { return events_; }

 private:
  Chain& chain_;
  Address from_;
  std::uint64_t value_;
  GasMeter gas_;
  std::string error_;
  std::vector<ContractEvent> events_;
};

/// Deterministic single-node chain: submit → (time passes) → mine → events.
class Chain {
 public:
  struct Config {
    /// Seconds between blocks (Ethereum mainnet ≈ 12–15 s).
    std::uint64_t block_time_seconds = 12;
    GasSchedule gas = GasSchedule::standard();
  };

  explicit Chain(Config config);

  const Config& config() const { return config_; }
  Ledger& ledger() { return ledger_; }
  const Ledger& ledger() const { return ledger_; }

  /// Allocates a fresh contract address.
  Address allocate_contract_address();

  /// Queues a transaction. `call` runs when the next block is mined.
  /// Returns the tx id. `now_seconds` is the submission time used for
  /// inclusion-latency accounting.
  std::uint64_t submit(Address from, std::uint64_t value, std::uint64_t calldata_bytes,
                       std::function<void(TxContext&)> call, std::uint64_t now_seconds);

  /// Mines all pending transactions into a block stamped `timestamp`.
  const Block& mine_block(std::uint64_t timestamp);

  std::uint64_t height() const { return blocks_.size(); }
  const std::vector<Block>& blocks() const { return blocks_; }
  std::size_t pending_count() const { return pending_.size(); }

  /// Receipt lookup by tx id; nullptr while the tx is still pending.
  const Receipt* receipt(std::uint64_t tx_id) const;

  using EventHandler = std::function<void(const ContractEvent&, const Block&)>;

  /// Registers a listener for sealed-block contract events. A sealed
  /// block's events are dispatched in transaction order, each to every
  /// handler in subscription order before the next event goes out: a
  /// later subscriber sees the state an earlier one left after the same
  /// event (a relay subscribed after GroupSync finds each registration
  /// already in the tree).
  void subscribe_events(EventHandler handler);

 private:
  struct PendingTx {
    std::uint64_t id;
    Address from;
    std::uint64_t value;
    std::uint64_t calldata_bytes;
    std::function<void(TxContext&)> call;
    std::uint64_t submitted_at;
  };

  Config config_;
  Ledger ledger_;
  Address next_contract_address_ = 0x1000;
  std::uint64_t next_tx_id_ = 1;
  std::vector<PendingTx> pending_;
  std::vector<Block> blocks_;
  std::vector<Receipt> receipts_;  // indexed by tx id - 1
  std::vector<EventHandler> event_handlers_;
};

}  // namespace wakurln::eth
