// Routing on a reconfigured machine: the paper's embeddings are dilation-1
// (every logical edge maps to one physical link), so any logical routing
// algorithm — BFS tables, de Bruijn shift routing, SE routing — runs on the
// reconfigured machine by translating its hops through the embedding, with
// zero stretch. These helpers perform that translation and validate it
// against the physical fabric.
#pragma once

#include <memory>
#include <utility>
#include <vector>

#include "graph/graph.hpp"
#include "sim/network.hpp"
#include "sim/router.hpp"
#include "sim/routing.hpp"

namespace ftdb::sim {

/// Maps a logical route to the physical nodes hosting it. Throws
/// std::out_of_range if the route mentions nodes outside the machine.
std::vector<NodeId> physical_route(const Machine& machine, const std::vector<NodeId>& logical);

/// True when every consecutive pair of the *physical* route is a healthy
/// physical link (both endpoints alive, edge present).
bool physical_route_is_live(const Machine& machine, const std::vector<NodeId>& physical);

/// de Bruijn shift routing executed on a reconfigured machine: computes the
/// logical route in B_{m,h} label space and returns the physical node
/// sequence. The returned route is guaranteed live on a correctly
/// reconfigured FT machine (Theorem 1/2).
std::vector<NodeId> debruijn_route_on_machine(const Machine& machine, std::uint64_t m,
                                              unsigned h, NodeId logical_src,
                                              NodeId logical_dst);

/// Shuffle-exchange routing executed on a reconfigured machine.
std::vector<NodeId> se_route_on_machine(const Machine& machine, unsigned h,
                                        NodeId logical_src, NodeId logical_dst);

/// The routing engine a machine carrying `target` actually runs: a Router
/// over the live logical graph. With the default Auto options this composes
/// the implicit digit-shift algebra with the monotone logical->physical
/// relabeling — the implicit backend is selected exactly when the realized
/// machine still presents an intact de Bruijn / shuffle-exchange shape (the
/// dilation-1 case of Theorems 1/2), and falls back to compressed/table
/// routing otherwise.
std::unique_ptr<Router> machine_logical_router(const Machine& machine, const Graph& target,
                                               const RouterOptions& options = {});

/// Route-stretch audit: for every (src, dst) pair, compares the route length
/// of `logical` — the routing engine the machine runs over its live logical
/// graph — against the shortest path in the *physical* survivor graph, which
/// may cut through spare nodes the logical machine does not use. The logical
/// route is never shorter than the physical shortest path; the maximum ratio
/// quantifies the price of routing in logical space. Returns the maximum over
/// all pairs (1.0 = the logical engine is physically optimal everywhere).
/// Pairs with no live logical route are skipped. Throws
/// std::invalid_argument when `logical` does not span the machine's logical
/// nodes. A caller that already holds the router of the machine's live
/// logical graph (say, of the target itself, which is that graph whenever
/// the monotone embedding survived) passes it instead of rebuilding it.
double max_route_stretch(const Machine& machine, const Router& logical);

/// Sampled variant for big-N sweeps: the same ratio maximized over the given
/// (logical src, logical dst) pairs only. Deterministic for a fixed pair
/// list, so campaign reports stay byte-identical across thread counts and
/// checkpoint/resume as long as the pairs are drawn from the trial's
/// counter-based RNG. Self-pairs are ignored; returns 1.0 for an empty list.
/// Throws std::out_of_range for a pair outside the machine.
double max_route_stretch_sampled(const Machine& machine, const Router& logical,
                                 const std::vector<std::pair<NodeId, NodeId>>& pairs);

/// The audits over machine_logical_router(machine, B_{m,h}): the deployed
/// engine, implicit shift algebra on dilation-1 machines.
double max_route_stretch(const Machine& machine, std::uint64_t m, unsigned h);
double max_route_stretch_sampled(const Machine& machine, std::uint64_t m, unsigned h,
                                 const std::vector<std::pair<NodeId, NodeId>>& pairs);

/// Shuffle-exchange variants of the stretch audit: the machine carries SE_h
/// as its logical target (everything past the router — the survivor-graph
/// BFS sweeps and the ratio — is family-agnostic and shared with the de
/// Bruijn versions above).
double max_route_stretch_se(const Machine& machine, unsigned h);
double max_route_stretch_se_sampled(const Machine& machine, unsigned h,
                                    const std::vector<std::pair<NodeId, NodeId>>& pairs);

}  // namespace ftdb::sim
