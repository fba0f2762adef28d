// The per-unit pass the clocked fault models made before kFaultDrawVersion 1
// (scenario.hpp), kept as the tests' statistical oracle: each unit's uniform
// is drawn, compared as a 53-bit integer against a running cut, and skipped
// unless it can be a fault or reach the (k+1)-st order statistic.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace ftdb::campaign::detail {

/// The relative slack the models' clock bands used: 2^-20 dwarfs the
/// few-ulp (2^-50) rounding error of log1p and pow.
inline constexpr double kClockSlack = 0x1p-20;

/// A cut no 53-bit mantissa exceeds.
inline constexpr std::int64_t kEveryMantissa = std::int64_t{1} << 53;

/// The largest 53-bit mantissa m with m * 2^-53 <= x, saturated: -1 when
/// no m qualifies (x < 0) and kEveryMantissa when every one does (x >= 1,
/// +inf, and NaN, which stands for a band whose `!(u > edge)` test admits
/// all).
inline std::int64_t mantissa_floor(double x) {
  if (!(x < 1.0)) return kEveryMantissa;
  if (x < 0.0) return -1;
  // x * 2^53 is exact, and truncation is floor for x >= 0.
  return static_cast<std::int64_t>(x * 0x1p53);
}

/// A unit whose uniform was within the slack of the order statistic.
struct Candidate {
  std::uint32_t unit;
  double u;
};

/// One pass over n units, one rng.next_u64() each in order; the advanced
/// generator is written back to `rng`. A unit's uniform is its top 53 bits
/// times 2^-53, as TrialRng::next_unit() makes it.
///
/// `admit(v, u)` runs, in unit order, for every uniform at or below the
/// fault edge and for some others; the caller's fault test decides. The
/// result is the units whose uniform is at most T * (1 + slack), T the
/// (rank+1)-st smallest uniform, ascending: empty when rank >= n, every
/// unit when slack is +inf.
///
/// A max-heap holds the rank+1 smallest uniforms so far, and a unit enters
/// the result if it is within the slack of the heap's top when it is seen.
/// The top only falls, so the final band is inside every earlier one and
/// one last filter trims the result to it. A uniform above both the fault
/// edge and the current band can change nothing, so it is skipped on an
/// integer compare of its mantissa.
template <class Rng, class Admit>
std::vector<Candidate> scan_clocks(Rng& rng, std::size_t n, std::size_t rank, double slack,
                                   double fault_edge, Admit admit) {
  const std::int64_t fault_cut = mantissa_floor(fault_edge);
  const bool ranked = rank < n;
  const double widen = 1.0 + slack;
  std::vector<double> heap;
  std::vector<Candidate> out;
  std::int64_t cut = ranked ? kEveryMantissa : fault_cut;
  Rng local = rng;
  for (std::size_t v = 0; v < n; ++v) {
    const auto m = static_cast<std::int64_t>(local.next_u64() >> 11);
    if (m > cut) [[likely]] continue;
    const double u = static_cast<double>(m) * 0x1p-53;
    admit(static_cast<std::uint32_t>(v), u);
    if (!ranked) continue;
    if (heap.size() <= rank) {
      // Filling: the first rank+1 uniforms are all candidates so far.
      heap.push_back(u);
      std::push_heap(heap.begin(), heap.end());
      out.push_back({static_cast<std::uint32_t>(v), u});
      if (heap.size() <= rank) continue;
    } else {
      if (u < heap.front()) {
        std::pop_heap(heap.begin(), heap.end());
        heap.back() = u;
        std::push_heap(heap.begin(), heap.end());
      }
      // `!(u > band)` rather than `u <= band`: with an infinite slack the
      // band edge is +inf, or NaN when the top is 0, and either way u is in.
      if (!(u > heap.front() * widen)) out.push_back({static_cast<std::uint32_t>(v), u});
    }
    cut = std::max(fault_cut, mantissa_floor(heap.front() * widen));
  }
  rng = local;
  if (ranked) {
    const double band = heap.front() * widen;
    std::erase_if(out, [band](const Candidate& c) { return c.u > band; });
  }
  return out;
}

}  // namespace ftdb::campaign::detail
