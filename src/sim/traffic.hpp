// Traffic workloads for the routing experiments: uniform random traffic,
// the classic adversarial permutations (bit reversal, transpose, perfect
// shuffle), Zipf-skewed and hotspot-burst traffic, and packet traces. The
// random generators draw from one seeded splitmix64 stream (ft/rng.hpp), so
// their packets are bit-identical across platforms and standard libraries.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/engine.hpp"

namespace ftdb::sim {

/// `count` packets, uniformly random (src, dst) pairs among live logical
/// nodes, injected `rate` packets per cycle (rate = packets injected each
/// cycle, round-robin over the batch).
std::vector<Packet> uniform_traffic(std::size_t logical_nodes, std::size_t count,
                                    std::uint64_t packets_per_cycle, std::uint64_t seed);

/// One packet per node x -> perm(x), all injected at cycle 0.
std::vector<Packet> permutation_traffic(const std::vector<NodeId>& perm);

/// Bit-reversal permutation on h-bit labels.
std::vector<NodeId> bit_reversal_permutation(unsigned h);

/// Transpose permutation (swap label halves); h must be even.
std::vector<NodeId> transpose_permutation(unsigned h);

/// Perfect-shuffle permutation (rotate left one bit).
std::vector<NodeId> shuffle_permutation(unsigned h);

/// Zipf-skewed traffic: sources are uniform, destination ranks follow a
/// Zipf(theta) law with node id r drawn with probability proportional to
/// 1 / (r + 1)^theta (node 0 hottest; theta = 0 degenerates to uniform).
/// `packets_per_cycle` = 0 means 1.
std::vector<Packet> zipf_traffic(std::size_t logical_nodes, std::size_t count, double theta,
                                 std::uint64_t seed, std::uint64_t packets_per_cycle = 0);

/// Multi-hotspot burst trains: hotspots take turns being hot. A packet
/// injected in burst window w (cycles [w*burst_cycles, (w+1)*burst_cycles))
/// targets hot_nodes[w % hot_nodes.size()] with probability `fraction_hot`,
/// otherwise a uniform destination. Sources are uniform. `packets_per_cycle`
/// = 0 means max(logical_nodes / 4, 1).
std::vector<Packet> hotspot_burst_traffic(std::size_t logical_nodes, std::size_t count,
                                          const std::vector<NodeId>& hot_nodes,
                                          double fraction_hot, std::uint64_t burst_cycles,
                                          std::uint64_t seed,
                                          std::uint64_t packets_per_cycle = 0);

/// Parses a packet trace: one packet per line, "inject_cycle src dst"
/// (whitespace separated); '#' starts a comment; blank lines are ignored.
/// Packet ids are assigned in line order. Throws std::invalid_argument on
/// malformed lines, and std::out_of_range when an endpoint is >=
/// `logical_nodes` (pass 0 to skip the range check).
std::vector<Packet> trace_traffic(const std::string& text, std::size_t logical_nodes);

/// Formats packets into the trace format accepted by trace_traffic.
std::string format_trace(const std::vector<Packet>& packets);

}  // namespace ftdb::sim
