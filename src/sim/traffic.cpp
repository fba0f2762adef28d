#include "sim/traffic.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>

#include "ft/rng.hpp"
#include "topology/labels.hpp"

namespace ftdb::sim {

std::vector<Packet> uniform_traffic(std::size_t logical_nodes, std::size_t count,
                                    std::uint64_t packets_per_cycle, std::uint64_t seed) {
  if (logical_nodes == 0) throw std::invalid_argument("uniform_traffic: empty machine");
  if (packets_per_cycle == 0) packets_per_cycle = 1;
  SplitMix64 rng(seed);
  std::vector<Packet> packets(count);
  for (std::size_t i = 0; i < count; ++i) {
    packets[i].id = i;
    packets[i].src = static_cast<NodeId>(rng.next_below(logical_nodes));
    packets[i].dst = static_cast<NodeId>(rng.next_below(logical_nodes));
    packets[i].inject_cycle = i / packets_per_cycle;
  }
  return packets;
}

std::vector<Packet> permutation_traffic(const std::vector<NodeId>& perm) {
  std::vector<Packet> packets(perm.size());
  for (std::size_t x = 0; x < perm.size(); ++x) {
    packets[x] = Packet{x, static_cast<NodeId>(x), perm[x], 0};
  }
  return packets;
}

std::vector<NodeId> bit_reversal_permutation(unsigned h) {
  const std::uint64_t n = labels::ipow_checked(2, h);
  std::vector<NodeId> perm(n);
  for (std::uint64_t x = 0; x < n; ++x) {
    std::uint64_t rev = 0;
    for (unsigned i = 0; i < h; ++i) {
      rev |= ((x >> i) & 1u) << (h - 1 - i);
    }
    perm[x] = static_cast<NodeId>(rev);
  }
  return perm;
}

std::vector<NodeId> transpose_permutation(unsigned h) {
  if (h % 2 != 0) throw std::invalid_argument("transpose_permutation: h must be even");
  const std::uint64_t n = labels::ipow_checked(2, h);
  const unsigned half = h / 2;
  const std::uint64_t mask = (std::uint64_t{1} << half) - 1;
  std::vector<NodeId> perm(n);
  for (std::uint64_t x = 0; x < n; ++x) {
    const std::uint64_t lo = x & mask;
    const std::uint64_t hi = x >> half;
    perm[x] = static_cast<NodeId>((lo << half) | hi);
  }
  return perm;
}

std::vector<NodeId> shuffle_permutation(unsigned h) {
  const std::uint64_t n = labels::ipow_checked(2, h);
  std::vector<NodeId> perm(n);
  for (std::uint64_t x = 0; x < n; ++x) {
    perm[x] = static_cast<NodeId>(labels::rotate_left(x, 2, h));
  }
  return perm;
}

std::vector<Packet> zipf_traffic(std::size_t logical_nodes, std::size_t count, double theta,
                                 std::uint64_t seed, std::uint64_t packets_per_cycle) {
  if (logical_nodes == 0) throw std::invalid_argument("zipf_traffic: empty machine");
  if (!(theta >= 0.0) || !std::isfinite(theta)) {
    throw std::invalid_argument("zipf_traffic: theta must be finite and >= 0");
  }
  if (packets_per_cycle == 0) packets_per_cycle = 1;

  // Cumulative weights of the truncated Zipf law; destinations are found by
  // binary search on a unit draw.
  std::vector<double> cumulative(logical_nodes);
  double total = 0.0;
  for (std::size_t r = 0; r < logical_nodes; ++r) {
    total += std::pow(static_cast<double>(r + 1), -theta);
    cumulative[r] = total;
  }

  SplitMix64 rng(seed);
  std::vector<Packet> packets(count);
  for (std::size_t i = 0; i < count; ++i) {
    packets[i].id = i;
    packets[i].src = static_cast<NodeId>(rng.next_below(logical_nodes));
    const double u = rng.next_unit() * total;
    const auto it = std::upper_bound(cumulative.begin(), cumulative.end(), u);
    const std::size_t rank =
        std::min<std::size_t>(static_cast<std::size_t>(it - cumulative.begin()),
                              logical_nodes - 1);
    packets[i].dst = static_cast<NodeId>(rank);
    packets[i].inject_cycle = i / packets_per_cycle;
  }
  return packets;
}

std::vector<Packet> hotspot_burst_traffic(std::size_t logical_nodes, std::size_t count,
                                          const std::vector<NodeId>& hot_nodes,
                                          double fraction_hot, std::uint64_t burst_cycles,
                                          std::uint64_t seed,
                                          std::uint64_t packets_per_cycle) {
  if (logical_nodes == 0) throw std::invalid_argument("hotspot_burst_traffic: empty machine");
  if (hot_nodes.empty()) throw std::invalid_argument("hotspot_burst_traffic: no hot nodes");
  for (NodeId hot : hot_nodes) {
    if (hot >= logical_nodes) {
      throw std::out_of_range("hotspot_burst_traffic: hot node out of range");
    }
  }
  if (!(fraction_hot >= 0.0 && fraction_hot <= 1.0)) {
    throw std::invalid_argument("hotspot_burst_traffic: fraction_hot must be in [0, 1]");
  }
  if (burst_cycles == 0) {
    throw std::invalid_argument("hotspot_burst_traffic: burst_cycles must be >= 1");
  }
  if (packets_per_cycle == 0) {
    packets_per_cycle = std::max<std::uint64_t>(logical_nodes / 4, 1);
  }

  SplitMix64 rng(seed);
  std::vector<Packet> packets(count);
  for (std::size_t i = 0; i < count; ++i) {
    packets[i].id = i;
    packets[i].src = static_cast<NodeId>(rng.next_below(logical_nodes));
    packets[i].inject_cycle = i / packets_per_cycle;
    const std::uint64_t window = packets[i].inject_cycle / burst_cycles;
    const NodeId active = hot_nodes[window % hot_nodes.size()];
    if (rng.next_unit() < fraction_hot) {
      packets[i].dst = active;
    } else {
      packets[i].dst = static_cast<NodeId>(rng.next_below(logical_nodes));
    }
  }
  return packets;
}

std::vector<Packet> trace_traffic(const std::string& text, std::size_t logical_nodes) {
  std::vector<Packet> packets;
  std::istringstream lines(text);
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(lines, line)) {
    ++line_no;
    if (const auto hash = line.find('#'); hash != std::string::npos) line.resize(hash);
    std::istringstream fields(line);
    std::uint64_t cycle = 0;
    std::uint64_t src = 0;
    std::uint64_t dst = 0;
    if (!(fields >> cycle)) continue;  // blank / comment-only line
    if (!(fields >> src >> dst)) {
      throw std::invalid_argument("trace_traffic: malformed line " + std::to_string(line_no) +
                                  " (want: inject_cycle src dst)");
    }
    std::string extra;
    if (fields >> extra) {
      throw std::invalid_argument("trace_traffic: trailing tokens on line " +
                                  std::to_string(line_no));
    }
    if (logical_nodes != 0 && (src >= logical_nodes || dst >= logical_nodes)) {
      throw std::out_of_range("trace_traffic: endpoint out of range on line " +
                              std::to_string(line_no));
    }
    Packet p;
    p.id = packets.size();
    p.src = static_cast<NodeId>(src);
    p.dst = static_cast<NodeId>(dst);
    p.inject_cycle = cycle;
    packets.push_back(p);
  }
  return packets;
}

std::string format_trace(const std::vector<Packet>& packets) {
  std::ostringstream out;
  for (const Packet& p : packets) {
    out << p.inject_cycle << ' ' << p.src << ' ' << p.dst << '\n';
  }
  return out.str();
}

}  // namespace ftdb::sim
