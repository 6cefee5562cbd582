#pragma once
// Signal creation (publisher side) and verification (routing-peer side)
// for RLN, wiring the circuit, Shamir shares and the proof system together.

#include <optional>
#include <span>

#include "rln/epoch.h"
#include "rln/group.h"
#include "rln/identity.h"
#include "rln/signal.h"
#include "util/rng.h"
#include "zksnark/proof_system.h"

namespace wakurln::rln {

/// Publisher-side signal generation. `messages_per_epoch` (default 1: the
/// paper's scheme) is a protocol-wide constant that must match the
/// verifiers'.
class RlnProver {
 public:
  RlnProver(zksnark::ProvingKey proving_key, Identity identity,
            std::uint64_t messages_per_epoch = 1);

  const Identity& identity() const { return identity_; }
  std::uint64_t messages_per_epoch() const { return messages_per_epoch_; }

  /// Builds the full signal for `payload` in `epoch` (slot `message_index`
  /// when the rate is > 1), proving membership at `leaf_index` of `group`.
  /// Returns nullopt if the identity is not the active member at that
  /// index (e.g. it was slashed) or the slot index is out of range.
  std::optional<RlnSignal> create_signal(std::span<const std::uint8_t> payload,
                                         std::uint64_t epoch, const RlnGroup& group,
                                         std::uint64_t leaf_index, util::Rng& rng,
                                         std::uint64_t message_index = 0) const;

 private:
  zksnark::ProvingKey proving_key_;
  Identity identity_;
  std::uint64_t messages_per_epoch_;
};

/// Routing-peer-side signal verification (the zkSNARK + binding checks;
/// epoch-window and double-signal policy live in the waku layer).
class RlnVerifier {
 public:
  explicit RlnVerifier(const zksnark::VerifyingKey& verifying_key,
                       std::uint64_t messages_per_epoch = 1);

  /// True iff the signal's slot index is within the rate and the proof
  /// verifies for (root, ∅(epoch, index), x, y, nullifier), where the
  /// caller supplies the share's x coordinate,
  /// x = RlnCircuit::message_to_x(payload). The relay computes x once per
  /// validation and hands it to both this check and its nullifier map.
  /// tests/support/verify_reference.h holds the payload-hashing oracle.
  bool verify_prepared(const RlnSignal& signal, const field::Fr& x) const;

 private:
  zksnark::PreparedVerifier prepared_;
  std::uint64_t messages_per_epoch_;
};

}  // namespace wakurln::rln
