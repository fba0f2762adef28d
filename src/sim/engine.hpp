// Synchronous store-and-forward network engine.
//
// Time advances in cycles; each directed link moves at most one packet per
// cycle; packets queue FIFO at their next output link. This is the standard
// abstract machine for constant-degree network papers of the era, and it is
// what the PERF2/PERF3 experiments run on: a degraded bare target vs a
// reconfigured fault-tolerant machine under identical traffic.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "graph/graph.hpp"
#include "sim/network.hpp"
#include "sim/router.hpp"
#include "sim/routing.hpp"

namespace ftdb::sim {

struct Packet {
  std::uint64_t id = 0;
  NodeId src = 0;   // logical
  NodeId dst = 0;   // logical
  std::uint64_t inject_cycle = 0;
};

struct SimStats {
  std::uint64_t injected = 0;
  std::uint64_t delivered = 0;
  std::uint64_t undeliverable = 0;  // no live route existed at injection time
  std::uint64_t timed_out = 0;      // still in flight when max_cycles stopped the run
  std::uint64_t cycles = 0;
  std::uint64_t total_latency = 0;   // sum over delivered packets
  std::uint64_t max_latency = 0;
  std::uint64_t total_hops = 0;
  std::size_t max_queue_depth = 0;

  double average_latency() const {
    return delivered == 0 ? 0.0 : static_cast<double>(total_latency) / static_cast<double>(delivered);
  }
  double average_hops() const {
    return delivered == 0 ? 0.0 : static_cast<double>(total_hops) / static_cast<double>(delivered);
  }
  double delivered_fraction() const {
    return injected == 0 ? 1.0 : static_cast<double>(delivered) / static_cast<double>(injected);
  }
  double throughput() const {
    return cycles == 0 ? 0.0 : static_cast<double>(delivered) / static_cast<double>(cycles);
  }
};

struct EngineOptions {
  /// Stop after this many cycles even if packets remain (0 = run to drain).
  /// Packets still in flight at the cut count as SimStats::timed_out, so
  /// injected == delivered + undeliverable + timed_out holds unconditionally.
  std::uint64_t max_cycles = 0;
  /// Routing backend selection for the live logical graph. The default Auto
  /// sends every graph below kImplicitMinNodes (4096) to the table router; at
  /// or above it, healthy (and dilation-1 reconfigured) de Bruijn /
  /// shuffle-exchange machines take the O(1)-memory implicit router, so
  /// simulations scale to N where a table slab would be gigabytes.
  RouterOptions router;
};

/// Reusable simulation context for one machine: the live logical graph, its
/// router, and the in-flight packet slab are built once and reused across
/// run() calls. This is what collective-schedule execution leans on — a
/// log-round schedule steps the same machine many times, and rebuilding the
/// router per round would dominate the measurement.
///
/// The simulator copies what it needs from the Machine (the per-logical
/// liveness), so it may outlive the Machine it was built from.
class PacketSimulator {
 public:
  PacketSimulator(const Machine& machine, const Graph& target,
                  const RouterOptions& options = {});

  /// Runs one batch of logical packets to completion (or to max_cycles).
  /// Queues are drained/reset between runs, so successive batches are
  /// independent synchronous phases. Throws std::length_error for a batch
  /// of 2^32 - 1 packets or more (the slab is indexed by 32-bit slots).
  SimStats run(const std::vector<Packet>& packets, std::uint64_t max_cycles = 0);

  const Graph& live_graph() const { return live_; }
  const Router& router() const { return *router_; }
  std::size_t num_logical() const { return logical_live_.size(); }

 private:
  using Slot = std::uint32_t;
  static constexpr Slot kNoSlot = ~Slot{0};

  /// One packet in the slab. `next` chains it behind its link's FIFO tail,
  /// or onto the free list once delivered.
  struct InFlight {
    NodeId dst = 0;
    std::uint32_t hops = 0;
    std::uint64_t inject_cycle = 0;
    Slot next = kNoSlot;
  };

  /// FIFO of one directed link, threaded through the slab.
  struct LinkQueue {
    Slot head = kNoSlot;
    Slot tail = kNoSlot;
    std::uint32_t size = 0;
  };

  /// Directed link id of the (from -> to) live edge. Fails loudly (assert in
  /// debug, std::logic_error in release) when `to` is not a live neighbor of
  /// `from` — a misrouted hop must never silently corrupt a sibling queue.
  std::size_t link_id(NodeId from, NodeId to) const;

  bool node_live(NodeId logical) const {
    return logical < logical_live_.size() && logical_live_[logical] != 0;
  }

  Slot allocate(const InFlight& pkt);
  void release(Slot slot);
  /// Appends `slot` to the link's FIFO and returns the new queue length.
  std::uint32_t push(std::size_t link, Slot slot);
  Slot pop(std::size_t link);
  /// Routes every gathered (node, slot) one hop with a single route_many
  /// call (the hinted overload on the implicit backend) and appends each to
  /// its next link in gathering order; returns the longest queue any append
  /// produced.
  std::uint32_t flush_enqueues();

  std::vector<std::uint8_t> logical_live_;  // per logical node: 1 when its host is alive
  Graph live_;
  std::unique_ptr<Router> router_;
  bool hinted_ = false;  // implicit backend: route through per-slot RouteHints
  // Directed link ids: node u's links to its sorted neighbors are
  // link_base_[u] .. link_base_[u + 1] - 1; link_to_ holds each link's head.
  std::vector<std::size_t> link_base_;
  std::vector<NodeId> link_to_;
  std::vector<LinkQueue> queues_;
  // One bit per link, set while its queue is non-empty: a cycle visits the
  // busy links in ascending id — the order a full scan would — without
  // touching the idle ones.
  std::vector<std::uint64_t> busy_;
  std::vector<InFlight> slab_;
  // One RouteHint per slab slot, used only when hinted_: the packet's
  // implicit-routing state carried from one hop to the next.
  std::vector<RouteHint> hints_;
  Slot free_ = kNoSlot;
  // Per-cycle scratch, kept across runs. Each wave (the injections, then
  // the forwarded arrivals) gathers its (node, slot) pairs and resolves them
  // with one route_many call, enqueuing in gathering order — hop-for-hop
  // the stats match a scalar next_hop loop.
  std::vector<std::pair<NodeId, Slot>> arrivals_;
  std::vector<std::pair<NodeId, Slot>> route_batch_;
  std::vector<NodeId> route_dests_;
  std::vector<NodeId> route_nodes_;
  std::vector<NodeId> route_hops_;
  std::vector<RouteHint> route_hints_;
};

/// Runs a batch of logical packets over the machine's *live* logical topology
/// (physical links between live nodes, viewed logically). Routes are canonical
/// shortest paths on that live graph (sim/router.hpp), stepped per-hop at
/// forwarding time. Packets whose endpoints are dead or disconnected count as
/// undeliverable — this is how the fragility of the bare target materializes,
/// while a reconfigured FT machine always presents the full target graph.
/// The accounting invariant injected == delivered + undeliverable + timed_out
/// holds on every return path, including max_cycles truncation.
SimStats run_packets(const Machine& machine, const Graph& target,
                     const std::vector<Packet>& packets, const EngineOptions& options = {});

}  // namespace ftdb::sim
