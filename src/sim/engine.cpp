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

std::uint32_t PacketSimulator::append(std::size_t link, Slot first, Slot last,
                                      std::uint32_t count) {
  LinkQueue& q = queues_[link];
  if (q.size == 0) {
    q.head = first;
    busy_[link / 64] |= std::uint64_t{1} << (link % 64);
  } else {
    slab_[q.tail].next = first;
  }
  q.tail = last;
  return q.size += count;
}

std::uint32_t PacketSimulator::push(std::size_t link, Slot slot) {
  slab_[slot].next = kNoSlot;
  return append(link, slot, slot, 1);
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

void PacketSimulator::inject(NodeId src, NodeId dst, std::uint64_t inject_cycle,
                             std::uint32_t count) {
  // Each run gets fresh slots, so its slots are consecutive and already
  // chained in queue order.
  const Slot first = static_cast<Slot>(slab_.size());
  const Slot last = first + count - 1;
  for (Slot slot = first; slot <= last; ++slot) {
    slab_.push_back(InFlight{dst, 0, inject_cycle, slot + 1});
  }
  slab_.back().next = kNoSlot;
  if (table_ == nullptr) {
    for (Slot slot = first; slot <= last; ++slot) route_batch_.emplace_back(src, slot);
    return;
  }
  const std::uint16_t port = table_->next_port(dst, src);
  assert(port < live_.degree(src));
  (void)append(link_base_[src] + port, first, last, count);
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
  // Slots are reused across runs without clearing their hints: a hint is
  // only trusted for the (dest, node) it was written for, which this router
  // answers the same way whichever packet asks.
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
  slab_.reserve(packets.size());
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

    // Inject this cycle's packets, one run at a time: a run is a maximal
    // stretch of consecutive packets with the same source, destination and
    // inject cycle, such as the message a collective step sends to one peer.
    // Its packets share one liveness check and one route.
    while (next_packet < batch->size() && (*batch)[next_packet].inject_cycle <= cycle) {
      const Packet& p = (*batch)[next_packet];
      std::size_t end = next_packet + 1;
      while (end < batch->size() && (*batch)[end].src == p.src && (*batch)[end].dst == p.dst &&
             (*batch)[end].inject_cycle == p.inject_cycle) {
        ++end;
      }
      const auto count = static_cast<std::uint32_t>(end - next_packet);
      next_packet = end;
      stats.injected += count;
      if (!node_live(p.src) || !node_live(p.dst) || !router_->reachable(p.dst, p.src)) {
        stats.undeliverable += count;
        continue;
      }
      if (p.src == p.dst) {
        stats.delivered += count;
        continue;  // zero-latency self-delivery
      }
      inject(p.src, p.dst, p.inject_cycle, count);
      in_flight += count;
    }
    // Injection depths are not sampled: every queue that holds a packet now
    // forwards one below, and depth is an end-of-cycle figure.
    (void)flush_enqueues();

    // Every link busy at the start of the cycle forwards its head packet, in
    // ascending link id, and the packet is delivered or queued for its next
    // hop at once. Only the table path appends during the pass, so it walks
    // a snapshot of the busy links and no packet moves twice; the others
    // append after it. Depth is an end-of-cycle figure: a queue's length
    // after its own pop, or after an append once it has popped, so an
    // append onto a link that is still due to forward this cycle counts one
    // less.
    std::uint32_t depth = 0;
    if (table_ != nullptr) forwarding_.assign(busy_.begin(), busy_.end());
    const std::vector<std::uint64_t>& forwarding = table_ != nullptr ? forwarding_ : busy_;
    for (std::size_t w = 0; w < forwarding.size(); ++w) {
      for (std::uint64_t bits = forwarding[w]; bits != 0; bits &= bits - 1) {
        const std::size_t link = w * 64 + static_cast<std::size_t>(std::countr_zero(bits));
        const Slot slot = pop(link);
        depth = std::max(depth, queues_[link].size);
        InFlight& pkt = slab_[slot];
        ++pkt.hops;
        const NodeId at = link_to_[link];
        if (at == pkt.dst) {
          --in_flight;
          ++stats.delivered;
          const std::uint64_t latency = cycle + 1 - pkt.inject_cycle;
          stats.total_latency += latency;
          stats.max_latency = std::max(stats.max_latency, latency);
          stats.total_hops += pkt.hops;
        } else if (table_ == nullptr) {
          route_batch_.emplace_back(at, slot);
        } else {
          // The router was built from live_, so a reachable (dest, node) has
          // a port below node's live degree; the injection check and the
          // canonical descent keep every queued packet reachable.
          const std::uint16_t port = table_->next_port(pkt.dst, at);
          assert(port < live_.degree(at));
          const std::size_t next = link_base_[at] + port;
          const bool due = next > link && ((forwarding[next / 64] >> (next % 64)) & 1) != 0;
          depth = std::max(depth, push(next, slot) - (due ? 1 : 0));
        }
      }
    }
    depth = std::max(depth, flush_enqueues());

    stats.max_queue_depth = std::max<std::size_t>(stats.max_queue_depth, depth);
    ++cycle;
  }
  // Every injected packet is on exactly one queue when max_cycles cut the
  // loop short (each cycle ends with route_batch_ flushed), so the in-flight
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
