#pragma once
// Epoch arithmetic (paper §III): the external nullifier is the epoch,
// defined as the number of T-second intervals elapsed since the Unix
// epoch. Routing peers accept a message only if its epoch is within
// Thr = D / T of their local epoch, where D is the maximum network delay.

#include <cstdint>

#include "field/fr.h"

namespace wakurln::rln {

class EpochScheme {
 public:
  /// `period_seconds` is T; `max_delay_seconds` is D.
  EpochScheme(std::uint64_t period_seconds, std::uint64_t max_delay_seconds);

  std::uint64_t period_seconds() const { return period_s_; }

  /// Epoch index for an absolute time (seconds since Unix epoch).
  std::uint64_t epoch_at(std::uint64_t unix_seconds) const;

  /// Thr = ceil(D / T): the acceptance window in epochs.
  std::uint64_t threshold() const { return threshold_; }

  /// |message_epoch - local_epoch| <= Thr (both directions: §III drops
  /// both stale *and* future-dated messages).
  bool within_threshold(std::uint64_t message_epoch, std::uint64_t local_epoch) const;

  /// Embeds the epoch index into the field for circuit/public-input use.
  static field::Fr to_field(std::uint64_t epoch);

 private:
  std::uint64_t period_s_;
  std::uint64_t threshold_;
};

/// External nullifier for a message slot (extension of the paper's
/// one-per-epoch scheme to a rate of `messages_per_epoch`, in the spirit
/// of RLN-v2 user message limits). With the default rate of 1 this is the
/// plain epoch embedding, exactly the paper's construction; for k > 1 each
/// (epoch, index < k) pair is an independent "voting booth", so a member
/// may send k messages per epoch and double-use of any single slot still
/// leaks the key. For k > 1 the value is Poseidon(epoch, index), memoised
/// in a small per-thread table keyed by the full (epoch, index, k) triple.
field::Fr external_nullifier(std::uint64_t epoch, std::uint64_t message_index,
                             std::uint64_t messages_per_epoch);

}  // namespace wakurln::rln
