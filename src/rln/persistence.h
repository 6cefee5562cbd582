#pragma once
// Serialisation of the long-lived RLN artefacts a deployment persists
// across restarts (paper §IV lists exactly these): the 32 B identity
// secret, the local membership view, and the proof-system key material.
// All formats are versioned and reject corrupt or truncated input.

#include <optional>

#include "rln/group.h"
#include "rln/identity.h"
#include "util/bytes.h"
#include "zksnark/proof_system.h"

namespace wakurln::rln {

/// Identity <-> 32 bytes (the secret key; pk is re-derived on load).
util::Bytes save_identity(const Identity& identity);
std::optional<Identity> load_identity(std::span<const std::uint8_t> data);

/// Full group snapshot: depth, leaves (including zeroed/slashed slots).
/// Restoring replays the leaves, so the root matches bit-for-bit. A
/// snapshot that places one pk in two slots is rejected.
util::Bytes save_group(const RlnGroup& group);
std::optional<RlnGroup> load_group(std::span<const std::uint8_t> data);

/// CRS key material (both halves share the binding secret).
util::Bytes save_keypair(const zksnark::KeyPair& keys);
std::optional<zksnark::KeyPair> load_keypair(std::span<const std::uint8_t> data);

}  // namespace wakurln::rln
