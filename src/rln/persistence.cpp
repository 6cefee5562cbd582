#include "rln/persistence.h"

#include <vector>

#include "util/serde.h"

namespace wakurln::rln {

namespace {
constexpr std::uint32_t kIdentityMagic = 0x524c4e31;  // "RLN1"
constexpr std::uint32_t kGroupMagic = 0x524c4e47;     // "RLNG"
constexpr std::uint32_t kKeysMagic = 0x524c4e4b;      // "RLNK"
}  // namespace

util::Bytes save_identity(const Identity& identity) {
  util::ByteWriter w;
  w.put_u32(kIdentityMagic);
  w.put_raw(identity.sk.to_bytes_be());
  return w.take();
}

std::optional<Identity> load_identity(std::span<const std::uint8_t> data) {
  try {
    util::ByteReader r(data);
    if (r.get_u32() != kIdentityMagic) return std::nullopt;
    const auto sk = field::Fr::from_bytes_canonical(r.get_raw(32));
    if (!sk || !r.empty()) return std::nullopt;
    return Identity::from_sk(*sk);
  } catch (const util::DecodeError&) {
    return std::nullopt;
  }
}

util::Bytes save_group(const RlnGroup& group) {
  util::ByteWriter w;
  w.put_u32(kGroupMagic);
  w.put_u32(static_cast<std::uint32_t>(group.tree_depth()));
  w.put_u64(group.leaf_count());
  for (std::uint64_t i = 0; i < group.leaf_count(); ++i) {
    w.put_raw(group.tree().leaf(i).to_bytes_be());
  }
  return w.take();
}

std::optional<RlnGroup> load_group(std::span<const std::uint8_t> data) {
  try {
    util::ByteReader r(data);
    if (r.get_u32() != kGroupMagic) return std::nullopt;
    const std::uint32_t depth = r.get_u32();
    if (depth < 1 || depth > 40) return std::nullopt;
    const std::uint64_t leaves = r.get_u64();
    if (leaves > (std::uint64_t{1} << depth)) return std::nullopt;
    // Validate the whole snapshot before any tree work: exact length,
    // every leaf canonical (zero = a slashed slot).
    if (r.remaining() != leaves * 32) return std::nullopt;
    std::vector<field::Fr> leaf_values;
    leaf_values.reserve(static_cast<std::size_t>(leaves));
    for (std::uint64_t i = 0; i < leaves; ++i) {
      const auto leaf = field::Fr::from_bytes_canonical(r.get_raw(32));
      if (!leaf) return std::nullopt;
      leaf_values.push_back(*leaf);
    }
    RlnGroup group = RlnGroup::from_leaves(depth, leaf_values);
    // The contract never registers one pk twice. A snapshot that places
    // it in two slots would count two members but index only one.
    for (std::size_t i = 0; i < leaf_values.size(); ++i) {
      if (!leaf_values[i].is_zero() && group.index_of(leaf_values[i]) != i) {
        return std::nullopt;
      }
    }
    return group;
  } catch (const util::DecodeError&) {
    return std::nullopt;
  }
}

util::Bytes save_keypair(const zksnark::KeyPair& keys) {
  util::ByteWriter w;
  w.put_u32(kKeysMagic);
  w.put_var(util::to_bytes(keys.pk.circuit_id));
  w.put_u64(keys.pk.tree_depth);
  w.put_raw(keys.pk.binding_secret);
  w.put_u64(keys.pk.simulated_size_bytes);
  w.put_u64(keys.vk.simulated_size_bytes);
  return w.take();
}

std::optional<zksnark::KeyPair> load_keypair(std::span<const std::uint8_t> data) {
  try {
    util::ByteReader r(data);
    if (r.get_u32() != kKeysMagic) return std::nullopt;
    const auto id_bytes = r.get_var();
    zksnark::KeyPair keys;
    keys.pk.circuit_id.assign(id_bytes.begin(), id_bytes.end());
    keys.pk.tree_depth = r.get_u64();
    const auto secret = r.get_array<32>();
    keys.pk.binding_secret = secret;
    keys.pk.simulated_size_bytes = r.get_u64();
    keys.vk.circuit_id = keys.pk.circuit_id;
    keys.vk.tree_depth = keys.pk.tree_depth;
    keys.vk.binding_secret = secret;
    keys.vk.simulated_size_bytes = r.get_u64();
    if (!r.empty()) return std::nullopt;
    return keys;
  } catch (const util::DecodeError&) {
    return std::nullopt;
  }
}

}  // namespace wakurln::rln
