#include "sim/engine.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <stdexcept>
#include <string>

namespace ftdb::sim {

PacketSimulator::PacketSimulator(const Machine& machine, const Graph& target,
                                 const RouterOptions& options)
    : live_(machine.live_logical_graph(target)),
      router_(make_router(live_, options)),
      table_(router_->backend() == RouterBackend::Table
                 ? static_cast<const TableRouter*>(router_.get())
                 : nullptr) {
  logical_live_.resize(machine.num_logical());
  for (std::size_t l = 0; l < logical_live_.size(); ++l) {
    logical_live_[l] = machine.dead[machine.to_physical[l]] ? 0 : 1;
  }
  const std::size_t n = live_.num_nodes();
  link_base_.assign(n + 1, 0);
  for (std::size_t v = 0; v < n; ++v) {
    link_base_[v + 1] = link_base_[v] + live_.degree(static_cast<NodeId>(v));
  }
  link_to_.reserve(link_base_[n]);
  for (std::size_t v = 0; v < n; ++v) {
    for (const NodeId w : live_.neighbors(static_cast<NodeId>(v))) link_to_.push_back(w);
  }
  queues_.resize(link_base_[n]);
  busy_.assign((link_base_[n] + 63) / 64, 0);
}

std::size_t PacketSimulator::link_id(NodeId from, NodeId to) const {
  const auto nb = live_.neighbors(from);
  const auto it = std::lower_bound(nb.begin(), nb.end(), to);
  if (it == nb.end() || *it != to) {
    // A hop outside the live adjacency means the router and the live graph
    // disagree; indexing by the lower_bound position would push the packet
    // onto an arbitrary neighbor's queue (or one past the slab).
    assert(false && "engine: next hop is not a live neighbor");
    throw std::logic_error("engine: next hop " + std::to_string(to) +
                           " is not a live neighbor of " + std::to_string(from));
  }
  return link_base_[from] + static_cast<std::size_t>(it - nb.begin());
}

PacketSimulator::Slot PacketSimulator::allocate(const InFlight& pkt) {
  if (free_ != kNoSlot) {
    const Slot slot = free_;
    free_ = slab_[slot].next;
    slab_[slot] = pkt;
    return slot;
  }
  slab_.push_back(pkt);
  return static_cast<Slot>(slab_.size() - 1);
}

void PacketSimulator::release(Slot slot) {
  slab_[slot].next = free_;
  free_ = slot;
}

std::uint32_t PacketSimulator::push(std::size_t link, Slot slot) {
  LinkQueue& q = queues_[link];
  slab_[slot].next = kNoSlot;
  if (q.size == 0) {
    q.head = slot;
    busy_[link / 64] |= std::uint64_t{1} << (link % 64);
  } else {
    slab_[q.tail].next = slot;
  }
  q.tail = slot;
  return ++q.size;
}

PacketSimulator::Slot PacketSimulator::pop(std::size_t link) {
  LinkQueue& q = queues_[link];
  const Slot slot = q.head;
  q.head = slab_[slot].next;
  if (--q.size == 0) {
    q.tail = kNoSlot;
    busy_[link / 64] &= ~(std::uint64_t{1} << (link % 64));
  }
  return slot;
}

std::uint32_t PacketSimulator::enqueue(NodeId node, Slot slot) {
  if (table_ == nullptr) {
    route_batch_.emplace_back(node, slot);
    return 0;
  }
  // The router was built from live_, so a reachable (dest, node) has a port
  // below node's live degree; the injection check and the canonical descent
  // keep every queued packet reachable.
  const std::uint16_t port = table_->next_port(slab_[slot].dst, node);
  assert(port < live_.degree(node));
  return push(link_base_[node] + port, slot);
}

std::uint32_t PacketSimulator::flush_enqueues() {
  const std::size_t k = route_batch_.size();
  if (k == 0) return 0;
  route_dests_.resize(k);
  route_nodes_.resize(k);
  route_hops_.resize(k);
  for (std::size_t i = 0; i < k; ++i) {
    route_dests_[i] = slab_[route_batch_[i].second].dst;
    route_nodes_[i] = route_batch_[i].first;
  }
  // Slots are reused without clearing their hints: a hint is only trusted
  // for the (dest, node) it was written for, which this router answers the
  // same way whichever packet asks.
  hints_.resize(slab_.size());
  route_hints_.resize(k);
  for (std::size_t i = 0; i < k; ++i) route_hints_[i] = hints_[route_batch_[i].second];
  router_->route_many(route_dests_, route_nodes_, route_hops_, route_hints_);
  for (std::size_t i = 0; i < k; ++i) hints_[route_batch_[i].second] = route_hints_[i];
  std::uint32_t longest = 0;
  for (std::size_t i = 0; i < k; ++i) {
    const std::size_t link = link_id(route_batch_[i].first, route_hops_[i]);
    longest = std::max(longest, push(link, route_batch_[i].second));
  }
  route_batch_.clear();
  return longest;
}

SimStats PacketSimulator::run(const std::vector<Packet>& packets, std::uint64_t max_cycles) {
  if (packets.size() >= kNoSlot) {
    throw std::length_error("PacketSimulator::run: " + std::to_string(packets.size()) +
                            " packets exceed the 32-bit slab index");
  }
  // A truncated (or throwing) previous run may have left stragglers.
  for (std::size_t w = 0; w < busy_.size(); ++w) {
    for (std::uint64_t bits = busy_[w]; bits != 0; bits &= bits - 1) {
      queues_[w * 64 + static_cast<std::size_t>(std::countr_zero(bits))] = LinkQueue{};
    }
    busy_[w] = 0;
  }
  slab_.clear();
  free_ = kNoSlot;
  route_batch_.clear();

  // Injection order is the stable inject-cycle order; collective steps and
  // generated traffic already come in it, so only an unsorted batch pays
  // for a sorted copy.
  const auto by_cycle = [](const Packet& a, const Packet& b) {
    return a.inject_cycle < b.inject_cycle;
  };
  std::vector<Packet> sorted;
  const std::vector<Packet>* batch = &packets;
  if (!std::is_sorted(packets.begin(), packets.end(), by_cycle)) {
    sorted = packets;
    std::stable_sort(sorted.begin(), sorted.end(), by_cycle);
    batch = &sorted;
  }

  SimStats stats;
  std::size_t next_packet = 0;
  std::uint64_t in_flight = 0;
  std::uint64_t cycle = 0;
  while (true) {
    const bool pending = next_packet < batch->size();
    if (!pending && in_flight == 0) break;
    if (max_cycles != 0 && cycle >= max_cycles) break;

    // Inject this cycle's packets.
    while (next_packet < batch->size() && (*batch)[next_packet].inject_cycle <= cycle) {
      const Packet& p = (*batch)[next_packet++];
      ++stats.injected;
      if (!node_live(p.src) || !node_live(p.dst) || !router_->reachable(p.dst, p.src)) {
        ++stats.undeliverable;
        continue;
      }
      if (p.src == p.dst) {
        ++stats.delivered;
        continue;  // zero-latency self-delivery
      }
      (void)enqueue(p.src, allocate(InFlight{p.dst, 0, p.inject_cycle}));
      ++in_flight;
    }
    // Injection depths are not sampled: every queue that holds a packet now
    // forwards one below, and depth is an end-of-cycle figure.
    (void)flush_enqueues();

    // Phase 1: every busy directed link forwards its head packet, in
    // ascending link id. A queue's end-of-cycle length is either what is
    // left here or, if phase 2 appends to it, what that append leaves, so
    // the two together give the end-of-cycle maximum over all links.
    std::uint32_t depth = 0;
    arrivals_.clear();
    for (std::size_t w = 0; w < busy_.size(); ++w) {
      for (std::uint64_t bits = busy_[w]; bits != 0; bits &= bits - 1) {
        const std::size_t link = w * 64 + static_cast<std::size_t>(std::countr_zero(bits));
        const Slot slot = pop(link);
        depth = std::max(depth, queues_[link].size);
        ++slab_[slot].hops;
        arrivals_.emplace_back(link_to_[link], slot);
      }
    }

    // Phase 2: arrivals either complete or queue for their next hop.
    for (const auto& [at, slot] : arrivals_) {
      const InFlight& pkt = slab_[slot];
      if (at == pkt.dst) {
        --in_flight;
        ++stats.delivered;
        const std::uint64_t latency = cycle + 1 - pkt.inject_cycle;
        stats.total_latency += latency;
        stats.max_latency = std::max(stats.max_latency, latency);
        stats.total_hops += pkt.hops;
        release(slot);
      } else {
        depth = std::max(depth, enqueue(at, slot));
      }
    }
    depth = std::max(depth, flush_enqueues());

    stats.max_queue_depth = std::max<std::size_t>(stats.max_queue_depth, depth);
    ++cycle;
  }
  // Every injected packet is on exactly one queue when max_cycles cut the
  // loop short (arrivals are fully drained each cycle), so the in-flight
  // count is precisely the timed-out population.
  stats.timed_out = in_flight;
  stats.cycles = cycle;
  assert(stats.injected == stats.delivered + stats.undeliverable + stats.timed_out);
  return stats;
}

SimStats run_packets(const Machine& machine, const Graph& target,
                     const std::vector<Packet>& packets, const EngineOptions& options) {
  PacketSimulator sim(machine, target, options.router);
  return sim.run(packets, options.max_cycles);
}

}  // namespace ftdb::sim
