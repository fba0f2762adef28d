// Label-algebra routes on the simulated machine. (Next-hop routing over an
// arbitrary graph lives behind sim::Router in sim/router.hpp.)
//
//  * de Bruijn shift routing: the classic shift-register route that appends
//    the destination's digits; shortened by the longest overlap between the
//    source's suffix and the destination's prefix. Works on B_{m,h} without
//    tables and survives reconfiguration unchanged (it runs in logical space).
//  * Shuffle-exchange routing: alternate exchange (fix bit) / shuffle
//    (rotate) steps, at most 2h hops.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/graph.hpp"

namespace ftdb::sim {

/// Shift-register route in B_{m,h} from src to dst, as a node sequence
/// (src ... dst). Uses the longest-overlap shortening, so its length is
/// h - (longest suffix of src that is a prefix of dst); never exceeds h hops.
std::vector<NodeId> debruijn_shift_route(std::uint64_t m, unsigned h, NodeId src, NodeId dst);

/// Shuffle-exchange route: at most 2h hops (exchange to fix the current low
/// bit, shuffle to expose the next one). Returns the node sequence.
std::vector<NodeId> shuffle_exchange_route(unsigned h, NodeId src, NodeId dst);

/// Validates that consecutive nodes of `route` are adjacent in `g` and that
/// the route starts/ends as claimed.
bool route_is_walk(const Graph& g, const std::vector<NodeId>& route, NodeId src, NodeId dst);

}  // namespace ftdb::sim
