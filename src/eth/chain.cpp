#include "eth/chain.h"

#include <stdexcept>

namespace wakurln::eth {

TxContext::TxContext(Chain& chain, Address from, std::uint64_t value,
                     std::uint64_t calldata_bytes)
    : chain_(chain), from_(from), value_(value) {
  const GasSchedule& g = chain.config().gas;
  gas_.charge(g.tx_base + calldata_bytes * g.calldata_byte);
}

void TxContext::emit(ContractEvent event) {
  events_.push_back(std::move(event));
}

void TxContext::revert(std::string reason) {
  error_ = std::move(reason);
}

Chain::Chain(Config config) : config_(config) {
  if (config_.block_time_seconds == 0) {
    throw std::invalid_argument("Chain: block time must be positive");
  }
}

Address Chain::allocate_contract_address() {
  return next_contract_address_++;
}

std::uint64_t Chain::submit(Address from, std::uint64_t value,
                            std::uint64_t calldata_bytes,
                            std::function<void(TxContext&)> call,
                            std::uint64_t now_seconds) {
  const std::uint64_t id = next_tx_id_++;
  pending_.push_back(PendingTx{id, from, value, calldata_bytes, std::move(call), now_seconds});
  receipts_.push_back(Receipt{});  // placeholder until mined
  return id;
}

const Block& Chain::mine_block(std::uint64_t timestamp) {
  if (!blocks_.empty() && timestamp < blocks_.back().timestamp) {
    throw std::invalid_argument("Chain: block timestamps must be monotonic");
  }
  Block block;
  block.number = blocks_.size() + 1;
  block.timestamp = timestamp;

  std::vector<ContractEvent> sealed_events;
  for (PendingTx& tx : pending_) {
    TxContext ctx(*this, tx.from, tx.value, tx.calldata_bytes);
    tx.call(ctx);

    Receipt receipt;
    receipt.tx_id = tx.id;
    receipt.success = !ctx.reverted();
    receipt.error = ctx.error();
    receipt.gas_used = ctx.gas().used();
    receipt.block_number = block.number;
    receipt.block_timestamp = timestamp;
    receipt.submitted_at = tx.submitted_at;
    block.gas_used += receipt.gas_used;

    if (receipt.success) {
      for (const auto& ev : ctx.events()) sealed_events.push_back(ev);
    }
    receipts_[tx.id - 1] = receipt;
    block.receipts.push_back(std::move(receipt));
  }
  pending_.clear();
  blocks_.push_back(std::move(block));

  const Block& sealed = blocks_.back();
  for (const auto& ev : sealed_events) {
    for (const auto& handler : event_handlers_) handler(ev, sealed);
  }
  return sealed;
}

const Receipt* Chain::receipt(std::uint64_t tx_id) const {
  if (tx_id == 0 || tx_id > receipts_.size()) return nullptr;
  const Receipt& r = receipts_[tx_id - 1];
  return r.tx_id == 0 ? nullptr : &r;
}

void Chain::subscribe_events(EventHandler handler) {
  event_handlers_.push_back(std::move(handler));
}

}  // namespace wakurln::eth
