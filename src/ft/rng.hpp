// The library's one random-number generator: splitmix64 (Steele, Lea, Flood
// 2014). Every seeded draw in src/ — fault sets, traffic, campaign trials —
// goes through it. Its outputs are plain integer arithmetic, so a seed gives
// the same bytes under every compiler and standard library; the standard
// library's distributions are implementation-defined and do not.
#pragma once

#include <cstdint>

namespace ftdb {

/// splitmix64 output/finalizer function. Bijective on 64 bits with full
/// avalanche; also usable as a standalone hash.
inline constexpr std::uint64_t splitmix64_mix(std::uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

/// splitmix64 generator. Not cryptographic; statistically solid for the
/// Monte Carlo workloads here and a few instructions per draw.
class SplitMix64 {
 public:
  explicit SplitMix64(std::uint64_t state) : state_(state) {}

  std::uint64_t next_u64() {
    state_ += 0x9e3779b97f4a7c15ull;
    return splitmix64_mix(state_);
  }

  /// Uniform double in [0, 1) with 53 random bits.
  double next_unit() { return static_cast<double>(next_u64() >> 11) * 0x1.0p-53; }

  /// Uniform integer in [0, bound) by 128-bit multiply-shift: exactly one
  /// draw per call, bias at most bound / 2^64. `bound` must be positive.
  std::uint64_t next_below(std::uint64_t bound) {
    return static_cast<std::uint64_t>((static_cast<unsigned __int128>(next_u64()) * bound) >> 64);
  }

 private:
  std::uint64_t state_;
};

}  // namespace ftdb
