#include "ft/reconfigure.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>

namespace ftdb {

FaultSet::FaultSet(std::size_t universe, std::vector<NodeId> faulty)
    : universe_(universe), faulty_(std::move(faulty)) {
  std::sort(faulty_.begin(), faulty_.end());
  faulty_.erase(std::unique(faulty_.begin(), faulty_.end()), faulty_.end());
  if (!faulty_.empty() && faulty_.back() >= universe_) {
    throw std::out_of_range("FaultSet: fault id out of range");
  }
}

FaultSet FaultSet::random(std::size_t universe, std::size_t count, SplitMix64& rng) {
  if (count > universe) throw std::invalid_argument("FaultSet::random: count > universe");
  // Floyd's algorithm: uniform sample of `count` distinct values.
  std::vector<NodeId> chosen;
  chosen.reserve(count);
  for (std::size_t j = universe - count; j < universe; ++j) {
    const NodeId t = static_cast<NodeId>(rng.next_below(j + 1));
    if (std::find(chosen.begin(), chosen.end(), t) == chosen.end()) {
      chosen.push_back(t);
    } else {
      chosen.push_back(static_cast<NodeId>(j));
    }
  }
  return FaultSet(universe, std::move(chosen));
}

bool FaultSet::is_faulty(NodeId v) const {
  return std::binary_search(faulty_.begin(), faulty_.end(), v);
}

std::vector<NodeId> FaultSet::survivors() const {
  // The survivors are the consecutive runs between faults, so fill with
  // std::iota per run (vectorized) instead of branching on every node — this
  // is the whole reconfiguration algorithm, so it is worth keeping at memory
  // speed.
  std::vector<NodeId> out(universe_ - faulty_.size());
  auto it = out.begin();
  NodeId run_start = 0;
  for (const NodeId f : faulty_) {
    auto run_end = it + (f - run_start);
    std::iota(it, run_end, run_start);
    it = run_end;
    run_start = f + 1;
  }
  std::iota(it, out.end(), run_start);
  return out;
}

std::vector<NodeId> monotone_embedding(const FaultSet& faults) {
  return faults.survivors();  // the (x+1)-st survivor, by construction
}

std::vector<std::uint32_t> embedding_offsets(const std::vector<NodeId>& phi) {
  std::vector<std::uint32_t> delta(phi.size());
  for (std::size_t x = 0; x < phi.size(); ++x) {
    delta[x] = static_cast<std::uint32_t>(phi[x] - x);
  }
  return delta;
}

std::vector<NodeId> inverse_embedding(const std::vector<NodeId>& phi, std::size_t universe) {
  std::vector<NodeId> inv(universe, kInvalidNode);
  for (std::size_t x = 0; x < phi.size(); ++x) inv[phi[x]] = static_cast<NodeId>(x);
  return inv;
}

}  // namespace ftdb
