#include "sim/routing.hpp"

#include <stdexcept>

#include "topology/labels.hpp"

namespace ftdb::sim {

std::vector<NodeId> debruijn_shift_route(std::uint64_t m, unsigned h, NodeId src, NodeId dst) {
  const std::uint64_t n = labels::ipow_checked(m, h);
  if (src >= n || dst >= n) throw std::out_of_range("debruijn_shift_route: node out of range");
  // Longest L such that the low L digits of src equal the high L digits of
  // dst; then append the remaining t = h - L low digits of dst, high first.
  unsigned best_l = 0;
  for (unsigned l = h; l > 0; --l) {
    const std::uint64_t mod = labels::ipow_checked(m, l);
    const std::uint64_t shift = labels::ipow_checked(m, h - l);
    if (src % mod == dst / shift) {
      best_l = l;
      break;
    }
  }
  const unsigned t = h - best_l;
  std::vector<NodeId> route{src};
  std::uint64_t cur = src;
  auto dst_digits = labels::digits_of(dst, m, h);
  for (unsigned j = 0; j < t; ++j) {
    const std::uint32_t digit = dst_digits[t - 1 - j];
    cur = (cur * m + digit) % n;
    if (cur != route.back()) route.push_back(static_cast<NodeId>(cur));
  }
  return route;
}

std::vector<NodeId> shuffle_exchange_route(unsigned h, NodeId src, NodeId dst) {
  const std::uint64_t n = labels::ipow_checked(2, h);
  if (src >= n || dst >= n) throw std::out_of_range("shuffle_exchange_route: node out of range");
  std::vector<NodeId> route{src};
  std::uint64_t cur = src;
  auto push = [&](std::uint64_t v) {
    if (v != route.back()) route.push_back(static_cast<NodeId>(v));
  };
  for (unsigned j = 1; j <= h; ++j) {
    // The bit at position 0 in round j ends at final position (h - j + 1) mod h.
    const unsigned final_pos = (h - j + 1) % h;
    const std::uint64_t want = (dst >> final_pos) & 1u;
    if ((cur & 1u) != want) {
      cur ^= 1u;  // exchange
      push(cur);
    }
    cur = labels::rotate_left(cur, 2, h);  // shuffle
    push(cur);
  }
  if (cur != dst) throw std::logic_error("shuffle_exchange_route: routing invariant violated");
  return route;
}

bool route_is_walk(const Graph& g, const std::vector<NodeId>& route, NodeId src, NodeId dst) {
  if (route.empty() || route.front() != src || route.back() != dst) return false;
  for (std::size_t i = 0; i + 1 < route.size(); ++i) {
    if (!g.has_edge(route[i], route[i + 1])) return false;
  }
  return true;
}

}  // namespace ftdb::sim
