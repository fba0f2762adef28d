// Counter-based per-trial randomness for campaign runs.
//
// Every trial's generator is derived purely from (campaign seed, scenario
// index, trial index) through splitmix64 finalizer mixing, so a trial's
// random stream is identical no matter which worker thread runs it, in what
// order, or how the trial blocks are sharded. This is what makes campaign
// reports byte-identical across thread counts and what lets a resumed
// campaign reproduce the exact trials a crashed run would have executed.
#pragma once

#include <cstdint>

#include "ft/rng.hpp"

namespace ftdb::campaign {

using ftdb::splitmix64_mix;

/// The library generator (ft/rng.hpp), seeded per trial.
class TrialRng : public SplitMix64 {
 public:
  using SplitMix64::SplitMix64;

  /// The canonical campaign derivation: mix the seed and the two counters in
  /// stages so that neighboring (scenario, trial) pairs get uncorrelated
  /// streams.
  static TrialRng for_trial(std::uint64_t campaign_seed, std::uint64_t scenario_idx,
                            std::uint64_t trial_idx) {
    std::uint64_t s = splitmix64_mix(campaign_seed + 0x9e3779b97f4a7c15ull);
    s = splitmix64_mix(s ^ (scenario_idx + 0x9e3779b97f4a7c15ull));
    s = splitmix64_mix(s ^ (trial_idx + 0x9e3779b97f4a7c15ull));
    return TrialRng(s);
  }
};

}  // namespace ftdb::campaign
