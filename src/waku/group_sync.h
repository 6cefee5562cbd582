#pragma once
// Membership group sync as a standalone service: one chain subscriber
// applying each MemberRegistered / MemberSlashed event to one Merkle tree
// as the event arrives (one append or one leaf update, then one
// root-history entry if the root moved).
//
// Every honest peer deterministically applies the same contract events in
// the same order, so all per-peer trees in one simulated world are
// bit-identical at every instant. Peers of one SimHarness therefore share
// a single GroupSync (10k peers hash each registration once, not 10k
// times — the dedup that makes 10k-node campaigns tractable), while a
// standalone WakuRlnRelay creates a private one, preserving the paper's
// "every peer maintains the tree itself" model at the protocol level.
//
// The service counts what registration-storm scenarios stress: events
// applied, root updates, and the modeled wire bytes a peer downloads to
// stay synced (each event carries a 32-byte identity commitment plus an
// 8-byte member index). The counters are pure functions of the chain's
// event stream — deterministic, safe to put in campaign reports.

#include <deque>
#include <memory>

#include "eth/chain.h"
#include "rln/group.h"

namespace wakurln::waku {

class GroupSync {
 public:
  /// Modeled wire size of one membership event: 32-byte pk commitment +
  /// 8-byte index (registration), or 32-byte revealed sk + 8-byte index
  /// (slash). Both event kinds cost the same on the wire.
  static constexpr std::uint64_t kEventWireBytes = 40;

  /// How many recent distinct roots the shared history retains. Bounds
  /// every relay's acceptable-root window (checked in the relay ctor).
  static constexpr std::size_t kMaxRootHistory = 64;

  /// Deterministic sync-churn counters (see file comment).
  struct Stats {
    std::uint64_t registrations_applied = 0;
    std::uint64_t slashes_applied = 0;
    /// Tree mutations that changed the root (a slash of an
    /// already-removed member applies no mutation).
    std::uint64_t root_updates = 0;
    /// Modeled bytes one peer downloads to apply the event stream.
    std::uint64_t sync_bytes = 0;
  };

  /// Subscribes to `chain` events immediately; construct before any relay
  /// that reads the group. The chain hands each event to its subscribers
  /// in subscription order, so every later subscriber finds the event
  /// already applied: tree, root history and stats.
  GroupSync(eth::Chain& chain, std::size_t tree_depth);

  const rln::RlnGroup& group() const { return group_; }
  const Stats& stats() const { return stats_; }

  // -- shared root history ----------------------------------------------
  // The distinct-root sequence r_0 (initial empty tree), r_1, ... is the
  // same for every peer of a world, so the per-relay acceptable-root
  // deques of the old design were n copies of overlapping suffixes of it.
  // The history lives here once; each relay keeps only the absolute index
  // the sequence had when it was constructed (its "floor") and asks for
  // membership in [max(floor, total - window), total).

  /// Distinct roots ever produced, including the initial one.
  std::uint64_t total_roots() const {
    return roots_dropped_ + root_history_.size();
  }
  /// Absolute index of the current root in the distinct-root sequence.
  std::uint64_t current_root_index() const { return total_roots() - 1; }

  /// True iff `root` appears in the distinct-root sequence at an absolute
  /// index in [first_index, total_roots()). first_index must be within
  /// the retained kMaxRootHistory suffix.
  bool root_in_window(const field::Fr& root, std::uint64_t first_index) const;

  /// Resident bytes of the synced membership view (the Merkle tree and
  /// its pk index dominate; see rln::RlnGroup::memory_bytes) plus the
  /// shared root history.
  std::size_t memory_bytes() const {
    return group_.memory_bytes() + sizeof(Stats) +
           root_history_.size() * sizeof(field::Fr);
  }

 private:
  void on_event(const eth::ContractEvent& event);
  /// Appends the current root to the history if it changed.
  void note_root();

  rln::RlnGroup group_;
  Stats stats_;
  /// Consecutive-deduplicated recent roots, newest at the back.
  std::deque<field::Fr> root_history_;
  /// Roots aged out of the front of root_history_.
  std::uint64_t roots_dropped_ = 0;
};

}  // namespace wakurln::waku
