// Checks of the distance steppers' routing protocol (reset / seed /
// probe_neighbors / probe), shared by the de Bruijn and shuffle-exchange
// tests. `exact(x)` is the label-distance formula d(x, dest).
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <vector>

#include "graph/graph.hpp"
#include "topology/distance_witness.hpp"

namespace ftdb::stepper_protocol {

/// Neighbor ids of the stepper's current node, in probe_neighbors order.
template <class Stepper>
std::vector<NodeId> neighbor_ids(const Stepper& st) {
  std::vector<typename Stepper::ProbeNeighbor> nbrs(64);
  nbrs.resize(static_cast<std::size_t>(st.probe_neighbors(nbrs.data())));
  std::vector<NodeId> ids;
  for (const auto& nb : nbrs) ids.push_back(nb.id);
  return ids;
}

/// Probes every probe_neighbors entry of the current node twice: at the
/// refutation cap dist-1, where only a neighbor one hop closer may report a
/// value <= cap (and then exactly), and at dist+1, which no neighbor exceeds
/// and so must come back exact.
template <class Stepper, class Exact>
void expect_probes_exact(const Stepper& st, Exact&& exact) {
  typename Stepper::ProbeNeighbor nbrs[64];
  const int count = st.probe_neighbors(nbrs);
  const std::uint32_t here = st.distance();
  for (int i = 0; i < count; ++i) {
    const auto& nb = nbrs[i];
    const std::uint32_t want = exact(nb.id);
    DistanceWitness w;
    if (here > 0) {
      const std::uint32_t got = st.probe(nb, here - 1, &w);
      if (want <= here - 1) {
        EXPECT_EQ(got, want) << "node=" << st.node() << " nb=" << nb.id << " cap=dist-1";
      } else {
        EXPECT_GT(got, here - 1) << "node=" << st.node() << " nb=" << nb.id << " cap=dist-1";
      }
    }
    EXPECT_EQ(st.probe(nb, here + 1, &w), want)
        << "node=" << st.node() << " nb=" << nb.id << " cap=dist+1";
  }
}

/// A walk that moves the way ImplicitRouter::route_many does — seed() with
/// the (dist, witness, opt) a probe of the chosen neighbor returned — and
/// checks every neighbor's probes at each step. Every fourth step takes the
/// canonical closer hop (the first neighbor the refutation probe accepts),
/// as do random steps that happen to land one hop closer, so the next
/// step's refutation probes run on the carried opt mask; the other steps
/// move to a uniformly random neighbor.
template <class Stepper, class Exact>
void walk(Stepper& st, NodeId start, int steps, std::uint64_t seed, Exact&& exact) {
  std::mt19937_64 rng(seed);
  ASSERT_EQ(st.reset(start), exact(start));
  typename Stepper::ProbeNeighbor nbrs[64];
  for (int s = 0; s < steps; ++s) {
    expect_probes_exact(st, exact);
    if (::testing::Test::HasFailure()) return;
    const std::uint32_t here = st.distance();
    const int count = st.probe_neighbors(nbrs);
    ASSERT_GT(count, 0);
    int pick = static_cast<int>(rng() % static_cast<std::uint64_t>(count));
    DistanceWitness w;
    std::uint64_t opt = 0;
    std::uint32_t d = 0;
    if (here > 0 && s % 4 == 0) {
      for (pick = 0; pick < count; ++pick) {
        d = st.probe(nbrs[pick], here - 1, &w, &opt);
        if (d == here - 1) break;
      }
      ASSERT_LT(pick, count) << "no closer neighbor of " << st.node();
    } else {
      const bool closer = here > 0 && st.probe(nbrs[pick], here - 1, &w, &opt) == here - 1;
      d = closer ? here - 1 : st.probe(nbrs[pick], here + 1, &w, &opt);
    }
    const NodeId next = nbrs[pick].id;
    ASSERT_EQ(d, exact(next)) << "step=" << s << " next=" << next;
    st.seed(next, d, w, opt);
    ASSERT_EQ(st.node(), next);
    ASSERT_EQ(st.distance(), d);
  }
}

}  // namespace ftdb::stepper_protocol
