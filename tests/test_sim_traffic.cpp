// Tests for the traffic generators.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>

#include "sim/traffic.hpp"

namespace ftdb::sim {
namespace {

TEST(UniformTraffic, DeterministicAndInRange) {
  const auto a = uniform_traffic(16, 100, 4, 42);
  const auto b = uniform_traffic(16, 100, 4, 42);
  ASSERT_EQ(a.size(), 100u);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].src, b[i].src);
    EXPECT_EQ(a[i].dst, b[i].dst);
    EXPECT_LT(a[i].src, 16u);
    EXPECT_LT(a[i].dst, 16u);
  }
}

TEST(UniformTraffic, InjectionRateHonored) {
  const auto packets = uniform_traffic(8, 10, 2, 1);
  for (std::size_t i = 0; i < packets.size(); ++i) {
    EXPECT_EQ(packets[i].inject_cycle, i / 2);
  }
}

TEST(UniformTraffic, ZeroRateDefaultsToOne) {
  const auto packets = uniform_traffic(8, 4, 0, 1);
  EXPECT_EQ(packets[3].inject_cycle, 3u);
}

TEST(UniformTraffic, EmptyMachineThrows) {
  EXPECT_THROW(uniform_traffic(0, 10, 1, 1), std::invalid_argument);
}

TEST(PermutationTraffic, OnePacketPerSource) {
  const auto packets = permutation_traffic({2, 0, 1});
  ASSERT_EQ(packets.size(), 3u);
  EXPECT_EQ(packets[0].src, 0u);
  EXPECT_EQ(packets[0].dst, 2u);
  EXPECT_EQ(packets[2].dst, 1u);
  for (const auto& p : packets) EXPECT_EQ(p.inject_cycle, 0u);
}

TEST(BitReversal, IsInvolutionAndPermutation) {
  for (unsigned h : {3u, 4u, 5u}) {
    const auto perm = bit_reversal_permutation(h);
    std::vector<NodeId> sorted = perm;
    std::sort(sorted.begin(), sorted.end());
    for (std::size_t i = 0; i < sorted.size(); ++i) EXPECT_EQ(sorted[i], i);
    for (std::size_t x = 0; x < perm.size(); ++x) EXPECT_EQ(perm[perm[x]], x);
  }
}

TEST(BitReversal, KnownValues) {
  const auto perm = bit_reversal_permutation(3);
  EXPECT_EQ(perm[0b001], 0b100u);
  EXPECT_EQ(perm[0b110], 0b011u);
  EXPECT_EQ(perm[0b101], 0b101u);
}

TEST(Transpose, SwapsHalves) {
  const auto perm = transpose_permutation(4);
  EXPECT_EQ(perm[0b0111], 0b1101u);  // hi=01 lo=11 -> hi=11 lo=01
  EXPECT_EQ(perm[perm[0b0111]], 0b0111u);  // involution
}

TEST(Transpose, OddHThrows) { EXPECT_THROW(transpose_permutation(3), std::invalid_argument); }

TEST(ShufflePermutation, IsRotation) {
  const auto perm = shuffle_permutation(3);
  EXPECT_EQ(perm[0b011], 0b110u);
  EXPECT_EQ(perm[0b100], 0b001u);
  std::vector<NodeId> sorted = perm;
  std::sort(sorted.begin(), sorted.end());
  for (std::size_t i = 0; i < sorted.size(); ++i) EXPECT_EQ(sorted[i], i);
}

/// hotspot_burst_traffic with one hot node: the burst window never changes
/// the target, so it is plain hotspot traffic.
std::vector<Packet> single_hotspot(std::size_t nodes, std::size_t count, NodeId hot,
                                   double fraction_hot, std::uint64_t seed,
                                   std::uint64_t packets_per_cycle = 0) {
  return hotspot_burst_traffic(nodes, count, {hot}, fraction_hot, /*burst_cycles=*/1, seed,
                               packets_per_cycle);
}

TEST(HotspotTraffic, FractionRoughlyHonored) {
  const NodeId hot = 3;
  const auto packets = single_hotspot(64, 2000, hot, 0.5, 9);
  const auto hits = static_cast<std::size_t>(
      std::count_if(packets.begin(), packets.end(), [&](const Packet& p) { return p.dst == hot; }));
  // 0.5 fraction plus ~1/64 background: expect between 40% and 65%.
  EXPECT_GT(hits, packets.size() * 2 / 5);
  EXPECT_LT(hits, packets.size() * 13 / 20);
}

TEST(HotspotTraffic, BadHotNodeThrows) {
  EXPECT_THROW(single_hotspot(8, 10, 8, 0.5, 1), std::out_of_range);
}

TEST(HotspotTraffic, EmptyMachineThrows) {
  EXPECT_THROW(single_hotspot(0, 10, 0, 0.5, 1), std::invalid_argument);
}

TEST(HotspotTraffic, FractionOutsideUnitIntervalThrows) {
  // A probability outside [0, 1] (or NaN) is rejected, not silently clamped.
  EXPECT_THROW(single_hotspot(8, 10, 0, -0.1, 1), std::invalid_argument);
  EXPECT_THROW(single_hotspot(8, 10, 0, 1.5, 1), std::invalid_argument);
  EXPECT_THROW(single_hotspot(8, 10, 0, std::nan(""), 1), std::invalid_argument);
  // The closed endpoints are legal.
  EXPECT_EQ(single_hotspot(8, 10, 0, 0.0, 1).size(), 10u);
  EXPECT_EQ(single_hotspot(8, 10, 0, 1.0, 1).size(), 10u);
}

TEST(HotspotTraffic, DefaultInjectionRatePreserved) {
  // packets_per_cycle = 0 means max(logical_nodes / 4, 1).
  const auto by_default = single_hotspot(64, 100, 3, 0.5, 9);
  const auto explicit_rate = single_hotspot(64, 100, 3, 0.5, 9, 16);
  ASSERT_EQ(by_default.size(), explicit_rate.size());
  for (std::size_t i = 0; i < by_default.size(); ++i) {
    EXPECT_EQ(by_default[i].inject_cycle, i / 16);
    EXPECT_EQ(by_default[i].inject_cycle, explicit_rate[i].inject_cycle);
    EXPECT_EQ(by_default[i].src, explicit_rate[i].src);
    EXPECT_EQ(by_default[i].dst, explicit_rate[i].dst);
  }
}

TEST(HotspotTraffic, CustomInjectionRateHonored) {
  const auto packets = single_hotspot(64, 10, 3, 0.5, 9, 2);
  for (std::size_t i = 0; i < packets.size(); ++i) {
    EXPECT_EQ(packets[i].inject_cycle, i / 2);
  }
}

TEST(HotspotTraffic, EveryHotNodeReceivesTraffic) {
  // One-cycle bursts at 16 packets per cycle rotate through the hot list
  // about 60 times over 3000 packets.
  const std::vector<NodeId> hot = {1, 10, 40};
  const auto packets = hotspot_burst_traffic(64, 3000, hot, 1.0, 1, 7);
  std::size_t hits[3] = {0, 0, 0};
  for (const Packet& p : packets) {
    // fraction_hot = 1: every destination is one of the hot nodes.
    const auto it = std::find(hot.begin(), hot.end(), p.dst);
    ASSERT_NE(it, hot.end()) << "dst " << p.dst;
    ++hits[it - hot.begin()];
  }
  for (const std::size_t h : hits) EXPECT_GT(h, packets.size() / 6);
}

TEST(HotspotTraffic, EmptyHotSetThrows) {
  EXPECT_THROW(hotspot_burst_traffic(8, 10, {}, 0.5, 1, 1), std::invalid_argument);
  EXPECT_THROW(hotspot_burst_traffic(8, 10, {3, 8}, 0.5, 1, 1), std::out_of_range);
}

TEST(ZipfTraffic, DeterministicAndInRange) {
  const auto a = zipf_traffic(32, 400, 1.2, 11);
  const auto b = zipf_traffic(32, 400, 1.2, 11);
  ASSERT_EQ(a.size(), 400u);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].src, b[i].src);
    EXPECT_EQ(a[i].dst, b[i].dst);
    EXPECT_LT(a[i].src, 32u);
    EXPECT_LT(a[i].dst, 32u);
    EXPECT_EQ(a[i].inject_cycle, i);  // packets_per_cycle defaults to 1
  }
}

TEST(ZipfTraffic, SkewConcentratesOnLowRanks) {
  const auto packets = zipf_traffic(64, 4000, 1.5, 3);
  std::vector<std::size_t> hits(64, 0);
  for (const Packet& p : packets) ++hits[p.dst];
  // Node 0 is the hottest rank; the tail node is orders of magnitude colder.
  EXPECT_GT(hits[0], packets.size() / 5);
  EXPECT_LT(hits[63], hits[0] / 10);
  // theta = 0 degenerates to uniform: the head holds no special mass.
  const auto flat = zipf_traffic(64, 4000, 0.0, 3);
  std::size_t head = 0;
  for (const Packet& p : flat) head += (p.dst == 0);
  EXPECT_LT(head, flat.size() / 16);
}

TEST(ZipfTraffic, RejectsBadTheta) {
  EXPECT_THROW(zipf_traffic(8, 10, -0.5, 1), std::invalid_argument);
  EXPECT_THROW(zipf_traffic(8, 10, std::nan(""), 1), std::invalid_argument);
  EXPECT_THROW(zipf_traffic(8, 10, std::numeric_limits<double>::infinity(), 1),
               std::invalid_argument);
  EXPECT_THROW(zipf_traffic(0, 10, 1.0, 1), std::invalid_argument);
}

TEST(HotspotBurstTraffic, RotatesTheActiveHotspot) {
  // fraction_hot = 1 pins every packet to the window's active hot node, so
  // the rotation schedule is directly observable: windows of `burst_cycles`
  // cycles take turns across the hot list.
  const std::vector<NodeId> hot = {2, 5};
  const auto packets = hotspot_burst_traffic(8, 24, hot, 1.0, 3, 13, 1);
  ASSERT_EQ(packets.size(), 24u);
  for (std::size_t i = 0; i < packets.size(); ++i) {
    EXPECT_EQ(packets[i].inject_cycle, i);
    EXPECT_EQ(packets[i].dst, hot[(i / 3) % 2]) << "packet " << i;
  }
}

TEST(HotspotBurstTraffic, DeterministicWithBackgroundTraffic) {
  const std::vector<NodeId> hot = {0, 3, 6};
  const auto a = hotspot_burst_traffic(16, 300, hot, 0.6, 4, 21);
  const auto b = hotspot_burst_traffic(16, 300, hot, 0.6, 4, 21);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].src, b[i].src);
    EXPECT_EQ(a[i].dst, b[i].dst);
    // Default injection rate: n/4 per cycle.
    EXPECT_EQ(a[i].inject_cycle, i / 4);
  }
}

TEST(HotspotBurstTraffic, ValidationRejectsBadArguments) {
  const std::vector<NodeId> hot = {1};
  EXPECT_THROW(hotspot_burst_traffic(0, 10, hot, 0.5, 4, 1), std::invalid_argument);
  EXPECT_THROW(hotspot_burst_traffic(8, 10, {}, 0.5, 4, 1), std::invalid_argument);
  EXPECT_THROW(hotspot_burst_traffic(8, 10, {9}, 0.5, 4, 1), std::out_of_range);
  EXPECT_THROW(hotspot_burst_traffic(8, 10, hot, 1.5, 4, 1), std::invalid_argument);
  EXPECT_THROW(hotspot_burst_traffic(8, 10, hot, std::nan(""), 4, 1), std::invalid_argument);
  EXPECT_THROW(hotspot_burst_traffic(8, 10, hot, 0.5, 0, 1), std::invalid_argument);
}

TEST(TraceTraffic, ParsesCommentsBlanksAndRoundTrips) {
  const std::string text =
      "# demo trace\n"
      "0 0 7   # first packet\n"
      "\n"
      "0 5 2\n"
      "3 1 6\n";
  const auto packets = trace_traffic(text, 8);
  ASSERT_EQ(packets.size(), 3u);
  EXPECT_EQ(packets[0].src, 0u);
  EXPECT_EQ(packets[0].dst, 7u);
  EXPECT_EQ(packets[2].inject_cycle, 3u);
  // Ids are assigned in line order.
  for (std::size_t i = 0; i < packets.size(); ++i) EXPECT_EQ(packets[i].id, i);
  // format_trace emits exactly what trace_traffic accepts (fixed point after
  // one normalization pass).
  const std::string canon = format_trace(packets);
  EXPECT_EQ(canon, format_trace(trace_traffic(canon, 8)));
}

TEST(TraceTraffic, RejectsMalformedAndOutOfRangeLines) {
  EXPECT_THROW(trace_traffic("0 1\n", 8), std::invalid_argument);       // missing dst
  EXPECT_THROW(trace_traffic("0 1 2 3\n", 8), std::invalid_argument);   // trailing token
  EXPECT_THROW(trace_traffic("0 9 0\n", 8), std::out_of_range);         // src >= n
  EXPECT_EQ(trace_traffic("0 9 0\n", 0).size(), 1u);                    // n = 0 skips the check
}

}  // namespace
}  // namespace ftdb::sim
