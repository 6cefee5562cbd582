#pragma once
// Declarative description of one large-scale experiment: which protocol
// stack to deploy (WAKU-RLN-RELAY or the PoW baseline), how many peers on
// which overlay, what the honest workload looks like, and which
// adversaries / disruptions act on the network. A spec plus a seed fully
// determines a run — the scenario runner derives every random decision
// from the seed, so identical (spec, seed) pairs reproduce byte-identical
// metrics.

#include <cstdint>
#include <string>
#include <string_view>

#include "sim/network.h"
#include "sim/topology.h"

namespace wakurln::scenario {

/// Where the colluding observer coalition sits in the overlay. The
/// coalition always occupies the tail band of node indices; placement
/// changes its *wiring* — the structural position Bellet et al. ("Who
/// started this rumor?") and Jin et al. show dominates deanonymisation.
enum class ObserverPlacement {
  /// Wired like any other node (the original isolated-observer setup).
  kRandomTail,
  /// A ring around one target publisher: the target's links to
  /// non-coalition nodes are severed and every coalition member links to
  /// the target directly, so the target's first hop is always observed.
  kEclipseRing,
  /// Degree-biased sybils: each coalition member receives extra random
  /// chords through the sim::build_topology bias hook, occupying
  /// high-degree positions adjacent to many potential originators.
  kSybilHighDegree,
};

/// Stable identifier used in CLI flags and JSON reports.
const char* observer_placement_name(ObserverPlacement placement);

/// Parses observer_placement_name output back; throws
/// std::invalid_argument on unknown names.
ObserverPlacement observer_placement_from_name(std::string_view name);

/// How the silent first-spy coalition (size = ScenarioSpec::observers) is
/// placed. The coalition-first-spy metric uses the earliest arrival
/// across the whole coalition.
struct ObserverSpec {
  ObserverPlacement placement = ObserverPlacement::kRandomTail;
  /// Node index the eclipse ring wraps (kEclipseRing; must be an active
  /// publisher so the eclipsed traffic actually exists).
  std::size_t eclipse_target = 0;
  /// Extra random chords per coalition member (kSybilHighDegree).
  std::size_t sybil_extra_links = 16;
};

/// Adversary population mixed into the node set (node indices are
/// assigned after the honest publishers, before the observers).
struct AdversaryMix {
  /// Members that publish over-rate every epoch via a modified client
  /// (no local rate check): the paper's steady spammer.
  std::size_t spammers = 0;
  /// Unchecked messages each spammer emits per epoch.
  std::uint64_t spam_per_epoch = 4;

  /// Members that stay quiet, then dump one large burst in a single
  /// epoch: the flash-flood attack.
  std::size_t burst_flooders = 0;
  std::uint64_t burst_size = 16;
  /// Which traffic epoch the burst lands in.
  std::uint64_t burst_at_epoch = 1;

  /// Adaptive spammers: modified clients that publish exactly
  /// messages_per_epoch messages every epoch — at the rate, never over
  /// it. The rate limiter cannot distinguish this traffic from a busy
  /// honest member and the slasher never fires: the scenario separates
  /// what rate-limiting contains from what slashing punishes.
  std::size_t adaptive_spammers = 0;
  /// If > 0, each adaptive spammer probes the slashing boundary on every
  /// epoch e with (e + 1) % adaptive_probe_every == 0: one extra
  /// unchecked message beyond the rate (slot reuse → double signal →
  /// slash). 0 = pure under-rate mode, provably unslashed.
  std::uint64_t adaptive_probe_every = 0;

  std::size_t total() const { return spammers + burst_flooders + adaptive_spammers; }
};

/// Registration storm: a dedicated node band joins in periodic waves
/// mid-traffic (driven by a first-class periodic timer on the event
/// engine), and — when slash_after_join is set — each joined member
/// immediately double-signals so the network slashes it again. Mass
/// join/slash interleaving churns the waku::GroupSync Merkle tree in both
/// directions while honest traffic flows; group-sync bytes and root
/// updates land in the report's resources block. Storm scenarios register
/// only the publishing bands up front (the storm band must start
/// unregistered), regardless of register_publishers_only.
struct StormSpec {
  /// Size of the storm band (after the adaptive spammers, before the
  /// replayers). Consumed in index order by the join waves.
  std::size_t stormers = 0;
  /// Wave period in traffic epochs.
  std::uint64_t wave_every_epochs = 1;
  /// Members requesting registration per wave.
  std::size_t joins_per_wave = 4;
  /// Joined members double-signal once confirmed, so each wave's joins
  /// become the next blocks' slashes.
  bool slash_after_join = true;
};

/// Membership churn: nodes go offline (links dropped, in-flight frames
/// invalidated) and rejoin later.
struct ChurnSpec {
  /// Per eligible node, per traffic epoch probability of departing.
  double leave_prob_per_epoch = 0.0;
  /// How many epochs a departed node stays offline before rejoining.
  std::uint64_t offline_epochs = 1;
  /// Degree used when the node rewires into the overlay on rejoin.
  std::size_t rejoin_degree = 4;
};

/// Colluding replay adversary ("IWANT replay"): silent peers that record
/// every message delivered to them and, once the honest routers' seen
/// caches have forgotten the id (but the RLN epoch window still accepts
/// it), advertise the old ids via IHAVE. Honest peers IWANT-fetch the
/// stale message and must re-validate it — the proof-verdict cache turns
/// each re-validation into a map lookup instead of a zkSNARK verify.
struct ReplaySpec {
  /// Colluding replay peers (node band after the flooders, before the
  /// observers; they subscribe and relay but never publish or register).
  std::size_t replayers = 0;
  /// Seconds between first sighting and the IHAVE replay. Must exceed
  /// the seen-cache TTL (so honest peers re-fetch) and stay under
  /// Thr * epoch_seconds (so validation reaches the proof check).
  std::uint64_t delay_seconds = 12;
  /// Honest neighbours each replayer advertises an old id to.
  std::size_t ihave_fanout = 6;
};

/// One clean cut of the overlay into two halves, healed later.
struct PartitionSpec {
  bool enabled = false;
  /// Traffic epoch at whose boundary the cut happens.
  std::uint64_t cut_at_epoch = 1;
  /// Traffic epoch at whose boundary the severed links are restored.
  std::uint64_t heal_at_epoch = 3;
  /// Fraction of nodes on the minority side.
  double fraction = 0.5;
};

/// Which protocol stack the scenario deploys.
enum class Protocol {
  kRln,  ///< WAKU-RLN-RELAY (membership, proofs, slashing)
  kPow,  ///< plain relay + EIP-627-style proof-of-work pricing
};

struct ScenarioSpec {
  std::string name;
  std::string description;

  Protocol protocol = Protocol::kRln;

  // -- world ------------------------------------------------------------
  std::size_t nodes = 16;
  sim::TopologyKind topology = sim::TopologyKind::kRingPlusRandom;
  std::size_t extra_links_per_node = 3;
  double erdos_renyi_p = 0.3;
  sim::LinkParams link;
  /// kGeo assigns nodes to regions and derives per-link latency from
  /// region pairs (sim/topology.h); kUniform uses `link` everywhere.
  sim::LinkProfile link_profile = sim::LinkProfile::kUniform;

  // -- protocol ----------------------------------------------------------
  /// RLN epoch length T (also the cadence of the honest workload).
  std::uint64_t epoch_seconds = 10;
  /// RLN rate k (messages per member per epoch); the paper's scheme is 1.
  std::uint64_t messages_per_epoch = 1;
  /// PoW difficulty for Protocol::kPow.
  int pow_difficulty_bits = 8;

  /// RLN acceptable-root window override (0 = relay default): how many
  /// recent membership Merkle roots a validator accepts a proof against.
  /// Registration storms push many root updates per block; a wider window
  /// keeps honest in-flight proofs acceptable through the churn.
  std::size_t acceptable_root_window = 0;

  // -- workload ----------------------------------------------------------
  /// Number of traffic epochs driven after registration + mesh warm-up.
  std::uint64_t traffic_epochs = 5;
  /// Per honest publisher, per epoch probability of publishing a message.
  double honest_publish_prob = 0.6;
  /// Content topics the mesh carries (each is an independent per-topic
  /// GossipSub mesh over the same overlay). Publishers rotate round-robin:
  /// node i publishes epoch e's message on topic (i + e) % topics. 1 keeps
  /// the original single-topic workload byte-identical.
  std::size_t topics = 1;
  /// Silent colluding first-spy observers (taken from the tail of the
  /// node range; they subscribe and relay but never publish).
  std::size_t observers = 1;
  /// How the observer coalition is wired into the overlay.
  ObserverSpec observer;
  /// 0 = every honest node publishes. Otherwise only the first N honest
  /// nodes publish and the rest are pure relays (they validate and route
  /// but never publish or churn) — how 10k-node worlds keep a bounded
  /// publisher set.
  std::size_t publishers = 0;
  /// Register only the publishing members (publishers + adversaries).
  /// Relays and observers stay unregistered: RLN validation needs the
  /// group view, not a membership. Keeps registration cost O(publishers)
  /// instead of O(nodes) at large scale.
  bool register_publishers_only = false;
  /// Pads every published payload (honest and spam) to this many bytes
  /// (0 = the bare workload key). Payload-heavy runs exercise the
  /// zero-copy message fabric.
  std::size_t payload_bytes = 0;

  /// GossipSub seen-cache TTL override in seconds (0 = router default).
  /// Short TTLs open the window the iwant_replay adversary exploits.
  std::uint64_t seen_ttl_seconds = 0;

  // -- execution ---------------------------------------------------------
  /// Scheduler shards executing each run's world (forwarded into
  /// sim::Scheduler via waku::SimHarness). Every deterministic output —
  /// metrics, aggregate, time series — is byte-identical at every value,
  /// so like `observability` it is not part of the spec's serialized
  /// identity; only the resources block records it. Tracing requires 1
  /// (the tracer is not shard-aware; validate() enforces it).
  unsigned world_threads = 1;

  // -- observability -----------------------------------------------------
  /// Enables the metrics registry and the per-epoch time-series sampler
  /// (src/obs). Off by default: a disabled registry hands out inert
  /// handles and the protocol metrics stay byte-identical either way —
  /// the bench suite asserts both properties. Not part of the spec's
  /// serialized identity (reports are comparable across obs settings).
  bool observability = false;
  /// Enables the message-lifecycle tracer (Chrome trace-event JSON).
  bool trace = false;
  /// Tracer ring capacity in events (oldest events overwritten beyond it).
  std::size_t trace_capacity = 1 << 16;

  AdversaryMix adversaries;
  ChurnSpec churn;
  PartitionSpec partition;
  ReplaySpec replay;
  StormSpec storm;

  /// Node indices reserved for non-honest bands: adversaries (steady /
  /// burst / adaptive), stormers, replayers and the observer coalition.
  std::size_t reserved_nodes() const {
    return adversaries.total() + storm.stormers + replay.replayers + observers;
  }

  /// Honest publisher count (everything that is not in a reserved band).
  std::size_t honest_publishers() const {
    const std::size_t reserved = reserved_nodes();
    return nodes > reserved ? nodes - reserved : 0;
  }

  /// Honest nodes that actually publish (see `publishers`).
  std::size_t active_publishers() const {
    const std::size_t honest = honest_publishers();
    return publishers == 0 ? honest : std::min(publishers, honest);
  }

  /// Throws std::invalid_argument when the spec is infeasible: an
  /// over-subscribed node range (reserved bands leave no honest
  /// publisher), an eclipse target outside the active-publisher band,
  /// adversaries that have no meaning for the selected protocol, or
  /// out-of-range scalar parameters. ScenarioRunner validates on
  /// construction; callers composing specs by hand may validate earlier.
  void validate() const;
};

}  // namespace wakurln::scenario
