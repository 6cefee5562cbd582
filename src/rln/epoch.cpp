#include "rln/epoch.h"

#include <array>
#include <stdexcept>

#include "hash/poseidon.h"

namespace wakurln::rln {

EpochScheme::EpochScheme(std::uint64_t period_seconds, std::uint64_t max_delay_seconds)
    : period_s_(period_seconds) {
  if (period_seconds == 0) {
    throw std::invalid_argument("EpochScheme: period must be positive");
  }
  threshold_ = (max_delay_seconds + period_seconds - 1) / period_seconds;
}

std::uint64_t EpochScheme::epoch_at(std::uint64_t unix_seconds) const {
  return unix_seconds / period_s_;
}

bool EpochScheme::within_threshold(std::uint64_t message_epoch,
                                   std::uint64_t local_epoch) const {
  const std::uint64_t diff = message_epoch > local_epoch ? message_epoch - local_epoch
                                                         : local_epoch - message_epoch;
  return diff <= threshold_;
}

field::Fr EpochScheme::to_field(std::uint64_t epoch) {
  return field::Fr::from_u64(epoch);
}

namespace {

/// One cached (epoch, index, rate) -> ∅ result. rate == 0 marks an empty
/// entry: the memo only ever stores rates > 1.
struct NullifierMemoEntry {
  std::uint64_t epoch = 0;
  std::uint64_t index = 0;
  std::uint64_t rate = 0;
  field::Fr value;
};

/// Direct-mapped on epoch * rate + index, so the 64 most recent slots of
/// consecutive epochs never evict each other (21 epochs at rate 3).
constexpr std::size_t kNullifierMemoEntries = 64;

}  // namespace

field::Fr external_nullifier(std::uint64_t epoch, std::uint64_t message_index,
                             std::uint64_t messages_per_epoch) {
  if (messages_per_epoch == 0) {
    throw std::invalid_argument("external_nullifier: rate must be positive");
  }
  if (message_index >= messages_per_epoch) {
    throw std::out_of_range("external_nullifier: message index beyond rate");
  }
  if (messages_per_epoch == 1) {
    return EpochScheme::to_field(epoch);  // the paper's ∅ = epoch
  }
  // Every hop of every message recomputes the same few (epoch, slot)
  // constants, each a full Poseidon permutation. Shard lanes call this
  // concurrently, so the memo is per thread: no lock, no shared state.
  thread_local std::array<NullifierMemoEntry, kNullifierMemoEntries> memo{};
  NullifierMemoEntry& entry =
      memo[(epoch * messages_per_epoch + message_index) % kNullifierMemoEntries];
  if (entry.rate != messages_per_epoch || entry.epoch != epoch ||
      entry.index != message_index) {
    entry = NullifierMemoEntry{epoch, message_index, messages_per_epoch,
                               hash::poseidon_hash2(field::Fr::from_u64(epoch),
                                                    field::Fr::from_u64(message_index))};
  }
  return entry.value;
}

}  // namespace wakurln::rln
