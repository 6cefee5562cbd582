#include "waku/group_sync.h"

namespace wakurln::waku {

GroupSync::GroupSync(eth::Chain& chain, std::size_t tree_depth) : group_(tree_depth) {
  note_root();  // r_0: the empty tree
  chain.subscribe_events(
      [this](const eth::ContractEvent& ev, const eth::Block&) { on_event(ev); });
}

void GroupSync::on_event(const eth::ContractEvent& event) {
  if (const auto* reg = std::get_if<eth::MemberRegistered>(&event)) {
    // Appending a non-zero leaf always moves the root.
    group_.add_member(reg->pk);
    ++stats_.registrations_applied;
    ++stats_.root_updates;
    stats_.sync_bytes += kEventWireBytes;
    note_root();
  } else if (const auto* slashed = std::get_if<eth::MemberSlashed>(&event)) {
    ++stats_.slashes_applied;
    stats_.sync_bytes += kEventWireBytes;
    if (group_.is_active(slashed->index)) {
      group_.remove_member(slashed->index);
      ++stats_.root_updates;
    }
    note_root();
  }
}

void GroupSync::note_root() {
  const field::Fr root = group_.root();
  if (!root_history_.empty() && root_history_.back() == root) return;
  root_history_.push_back(root);
  while (root_history_.size() > kMaxRootHistory) {
    root_history_.pop_front();
    ++roots_dropped_;
  }
}

bool GroupSync::root_in_window(const field::Fr& root,
                               std::uint64_t first_index) const {
  // Scan newest-first; stop once past the window's oldest entry. Windows
  // are <= kMaxRootHistory (relay ctor check), so the whole window is in
  // the retained suffix and the scan is bounded by the window length.
  std::uint64_t idx = total_roots();
  for (auto it = root_history_.rbegin(); it != root_history_.rend(); ++it) {
    --idx;
    if (idx < first_index) return false;
    if (*it == root) return true;
  }
  return false;
}

}  // namespace wakurln::waku
