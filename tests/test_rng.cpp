// Platform pins for the library's one random-number generator (ft/rng.hpp)
// and the seeded draws built on it. Every value below is a literal, so a
// build whose compiler or standard library changed any draw fails here
// rather than in a downstream report.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "ft/reconfigure.hpp"
#include "ft/rng.hpp"
#include "sim/traffic.hpp"

namespace ftdb {
namespace {

TEST(SplitMix64, MatchesTheReferenceStream) {
  // Seed 0 gives splitmix64's published first output.
  EXPECT_EQ(SplitMix64(0).next_u64(), 0xe220a8397b1dcdafull);
  SplitMix64 rng(2026);
  EXPECT_EQ(rng.next_u64(), 0xdb9c559891948d23ull);
  EXPECT_EQ(rng.next_u64(), 0x78bc927ded35455dull);
  EXPECT_EQ(rng.next_u64(), 0xaad71e75cde2b88eull);
  EXPECT_EQ(rng.next_u64(), 0x6280938ad5a104f2ull);
}

TEST(SplitMix64, NextBelowIsOneMultiplyShiftPerDraw) {
  SplitMix64 rng(2026);
  EXPECT_EQ(rng.next_below(1), 0u);
  EXPECT_EQ(rng.next_below(2), 0u);
  EXPECT_EQ(rng.next_below(10), 6u);
  EXPECT_EQ(rng.next_below(1000), 384u);
  EXPECT_EQ(rng.next_below(std::uint64_t{1} << 40), 870378642951u);
  // Bound 1 still consumes its draw: the stream is at its sixth output.
  EXPECT_EQ(rng.next_below(1), 0u);
  SplitMix64 sixth(2026);
  for (int i = 0; i < 6; ++i) sixth.next_u64();
  EXPECT_EQ(rng.next_u64(), sixth.next_u64());
}

TEST(SplitMix64, NextUnitKeeps53Bits) {
  SplitMix64 rng(2026);
  // The top 53 bits of the first two outputs above, times 2^-53 (both
  // decimals round-trip to those exact doubles).
  EXPECT_EQ(rng.next_unit(), 0.8578542230112182);
  EXPECT_EQ(rng.next_unit(), 0.4716273839414571);
}

TEST(FaultSetRandom, PinnedDraws) {
  SplitMix64 rng(2026);
  EXPECT_EQ(FaultSet::random(20, 5, rng).nodes(), (std::vector<NodeId>{7, 8, 12, 13, 15}));
  // Count 0 draws nothing; count = universe takes every node.
  EXPECT_TRUE(FaultSet::random(20, 0, rng).nodes().empty());
  EXPECT_EQ(FaultSet::random(6, 6, rng).nodes(), (std::vector<NodeId>{0, 1, 2, 3, 4, 5}));
  EXPECT_EQ(FaultSet::random(1000, 4, rng).nodes(), (std::vector<NodeId>{280, 318, 643, 899}));
}

TEST(UniformTraffic, PinnedPackets) {
  const std::vector<sim::Packet> packets = sim::uniform_traffic(16, 6, 4, 2026);
  const std::uint64_t want[6][3] = {{13, 7, 0}, {10, 6, 0}, {12, 11, 0},
                                    {15, 12, 0}, {5, 3, 1}, {5, 14, 1}};
  ASSERT_EQ(packets.size(), 6u);
  for (std::size_t i = 0; i < packets.size(); ++i) {
    EXPECT_EQ(packets[i].id, i);
    EXPECT_EQ(packets[i].src, want[i][0]) << "packet " << i;
    EXPECT_EQ(packets[i].dst, want[i][1]) << "packet " << i;
    EXPECT_EQ(packets[i].inject_cycle, want[i][2]) << "packet " << i;
  }
}

}  // namespace
}  // namespace ftdb
