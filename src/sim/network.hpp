// Simulated network: nodes with access links, pairwise propagation latency,
// and per-flow fair queuing.
//
// Model: a message from A to B is (1) serialized onto A's uplink, (2)
// propagated with the A→B latency, (3) serialized onto B's downlink, then
// delivered to B's handler. Each access link is a deficit-round-robin-lite
// scheduler over per-peer queues, so concurrent flows through one access
// link share its bandwidth fairly — this is what produces the Figure-5
// bandwidth-sharing behaviour without a full TCP implementation.
//
// Sharding (DESIGN.md §12): each node belongs to a simulator region
// (set_region); its link queues, stats and handler run on that region's
// worker. Propagation between nodes in different regions rides the
// simulator's cross-region mailbox, and the network installs the minimum
// cross-region propagation delay as the conservative lookahead bound, so
// parallel windows never outrun a message in flight.
#pragma once

#include <cstdint>
#include <memory>
#include <deque>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "sim/simulator.hpp"
#include "util/bytes.hpp"

namespace bento::sim {

using NodeId = std::uint32_t;
inline constexpr NodeId kInvalidNode = 0xffffffff;

/// Per-message fixed framing overhead (TLS record + TCP/IP headers, amortized).
inline constexpr std::size_t kMessageOverhead = 66;

/// Receiver interface. Nodes register a handler; the network owns delivery.
class MessageHandler {
 public:
  virtual ~MessageHandler() = default;
  virtual void on_message(NodeId from, util::Bytes data) = 0;
  /// A peer this node may hold connection state for went down (its TCP
  /// sessions reset). Delivered with the propagation latency to the dead
  /// node, like a real RST would be. Default: ignore.
  virtual void on_peer_down(NodeId peer) { (void)peer; }
};

struct NodeSpec {
  std::string name;
  double up_bytes_per_sec = 12.5e6;    // 100 Mbit/s default
  double down_bytes_per_sec = 12.5e6;
};

/// Passive wire monitor: called at each message delivery with the flow
/// endpoints and on-the-wire size. The website-fingerprinting experiments
/// attach one to play the paper's adversary "able to observe traffic
/// entering and leaving" a victim's access link.
using WireMonitor =
    std::function<void(NodeId from, NodeId to, std::size_t wire_size)>;

/// What an installed FaultInjector wants done to one packet. Zero-initialized
/// == deliver untouched.
struct FaultDecision {
  bool drop = false;
  bool duplicate = false;        // deliver once, plus one jittered copy
  Duration extra_delay{};        // added to propagation (loss-free reorder)
};

/// Chaos hook interface (implemented by chaos::ChaosEngine). The datapath
/// pays one null-pointer test per send and per delivery when absent — the
/// no-plan fast path stays allocation-free and branch-predictable.
class FaultInjector {
 public:
  virtual ~FaultInjector() = default;
  /// True while `node` is crashed: its packets are dropped both ways.
  virtual bool node_down(NodeId node) const = 0;
  /// Consulted once per send() for packets between live nodes.
  virtual FaultDecision on_packet(NodeId from, NodeId to, std::size_t wire_size) = 0;
};

/// Byte counters kept per node; experiments read these to plot rates.
struct NodeStats {
  std::uint64_t bytes_sent = 0;
  std::uint64_t bytes_received = 0;
  std::uint64_t messages_sent = 0;
  std::uint64_t messages_received = 0;
  /// High-water marks of this node's access-link queues (packets waiting
  /// for serialization), one per direction — the congestion signal the
  /// Figure-5 style experiments read.
  std::size_t up_queue_high_water = 0;
  std::size_t down_queue_high_water = 0;
};

class Network {
 public:
  explicit Network(Simulator& sim);

  /// Adds a node; handler may be null and attached later.
  NodeId add_node(const NodeSpec& spec, MessageHandler* handler = nullptr);

  /// (Re)binds the receive handler for a node.
  void attach(NodeId node, MessageHandler* handler);

  /// Symmetric propagation latency between two nodes.
  void set_latency(NodeId a, NodeId b, Duration latency);
  Duration latency(NodeId a, NodeId b) const;
  /// Latency not explicitly set defaults to this value.
  void set_default_latency(Duration d);

  /// Assigns a node to a simulator region (DESIGN.md §12). The region must
  /// already exist (Simulator::add_region); nodes default to region 0.
  /// Topology-build-time only. For cheap builds, assign regions before
  /// installing pairwise latencies — reassignment rescans the latency map.
  void set_region(NodeId node, std::uint32_t region);
  std::uint32_t region(NodeId node) const;

  /// Queues a message; delivery is asynchronous via the event loop.
  void send(NodeId from, NodeId to, util::Bytes payload);

  /// One-way delay for a `bytes`-sized message when the path is idle.
  Duration idle_delay(NodeId from, NodeId to, std::size_t bytes) const;

  const NodeSpec& spec(NodeId node) const;
  const NodeStats& stats(NodeId node) const;
  std::size_t node_count() const { return nodes_.size(); }

  /// Total payload bytes a node received in [since, now] — used by
  /// experiment harnesses to compute download-speed time series.
  std::uint64_t bytes_received(NodeId node) const { return stats(node).bytes_received; }

  /// Installs/clears the passive wire monitor.
  void set_monitor(WireMonitor monitor) { monitor_ = std::move(monitor); }

  /// Installs/clears the chaos fault injector (nullptr = none).
  void set_fault_injector(FaultInjector* injector) { chaos_ = injector; }
  FaultInjector* fault_injector() const { return chaos_; }

  /// The simulator this network schedules on (timers for watchdogs live
  /// next to the entities that own network endpoints).
  Simulator& simulator() { return sim_; }

  /// Scales a node's access-link rate relative to its spec (chaos
  /// slow-node throttling; 1.0 restores). Queued packets already being
  /// serialized keep their old completion time.
  void set_bandwidth_scale(NodeId node, double scale);

  /// Tells every other node with a handler that `down` went down. Each
  /// notification arrives after the pairwise propagation latency, like the
  /// connection resets a real crash would fan out.
  void notify_peer_down(NodeId down);

 private:
  struct Packet {
    NodeId from = kInvalidNode;
    NodeId to = kInvalidNode;
    util::Bytes payload;
    std::size_t wire_size = 0;
    // Sidecar span context captured at send(). A queued packet outlives the
    // event context it was sent under (the link may be busy serializing an
    // unrelated flow), so the context rides with the packet and is restored
    // when its serialization slot fires; never part of the wire bytes.
    obs::SpanContext ctx;
    // Open NetLink span covering queue wait + both serializations +
    // propagation; ended just before handler delivery. 0 when untraced.
    std::uint32_t link_span = 0;
    // Extra propagation delay injected by the fault hook (latency jitter).
    Duration chaos_delay{};
  };

  // Fair scheduler over per-peer FIFO queues for one direction of one
  // node's access link. `sink` receives each packet once serialized.
  struct LinkQueue {
    double bytes_per_sec = 1.0;
    bool busy = false;
    std::map<NodeId, std::deque<Packet>> queues;  // keyed by remote peer
    std::vector<NodeId> rr_order;                 // round-robin cursor state
    std::size_t rr_next = 0;
    std::size_t queued = 0;             // packets waiting across all peers
    std::size_t* high_water = nullptr;  // -> the owning NodeStats field
    std::function<void(Packet&&)> sink;
  };

  struct NodeState {
    NodeSpec spec;
    MessageHandler* handler = nullptr;
    NodeStats stats;
    // Simulator region owning this node's link queues, stats and handler.
    // Written at topology build time only; read-only during runs.
    std::uint32_t region = 0;
    LinkQueue up;
    LinkQueue down;
  };

  void enqueue(LinkQueue& lq, NodeId peer_key, Packet pkt);
  void serve(LinkQueue& lq);
  void check_node(NodeId node) const;
  /// Installs the conservative lookahead bound on the simulator: the minimum
  /// propagation delay over cross-region node pairs (explicit entries, plus
  /// the default latency while any cross-region pair lacks one).
  void recompute_lookahead();

  Simulator& sim_;
  // unique_ptr keeps NodeState addresses stable while nodes are added
  // mid-simulation (e.g. LoadBalancer spinning up replicas).
  std::vector<std::unique_ptr<NodeState>> nodes_;
  // Explicit pairwise latencies: the source of truth for the lookahead
  // bound and for rebuilding lat_table_ when the default changes.
  std::map<std::pair<NodeId, NodeId>, Duration> latency_;
  Duration default_latency_ = Duration::millis(40);
  // Every pair's latency, dense: the lower triangle (diagonal included),
  // pair (a, b) with a >= b at a * (a + 1) / 2 + b. Kept in step by
  // add_node, set_latency and set_default_latency, so the per-packet
  // lookup is one load; read-only during runs.
  std::vector<Duration> lat_table_;
  std::vector<std::size_t> region_count_;  // nodes per region, for lookahead
  WireMonitor monitor_;
  FaultInjector* chaos_ = nullptr;
  obs::Counter m_messages_;
  obs::Counter m_bytes_;
  obs::Gauge m_queue_depth_;  // worst single-link depth, with high-water
};

}  // namespace bento::sim
