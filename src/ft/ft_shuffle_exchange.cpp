#include "ft/ft_shuffle_exchange.hpp"

#include <stdexcept>
#include <utility>

#include "ft/ft_debruijn.hpp"
#include "topology/debruijn.hpp"
#include "topology/labels.hpp"
#include "topology/shuffle_exchange.hpp"

namespace ftdb {

std::optional<Embedding> find_se_in_debruijn(unsigned h, const EmbeddingSearchOptions& options) {
  return find_subgraph_embedding(shuffle_exchange_graph(h), debruijn_base2(h), options);
}

FtShuffleExchange ft_shuffle_exchange_via_debruijn(unsigned h, unsigned k,
                                                   const EmbeddingSearchOptions& options) {
  auto sigma = find_se_in_debruijn(h, options);
  if (!sigma.has_value()) {
    throw std::runtime_error(
        "ft_shuffle_exchange_via_debruijn: SE -> de Bruijn containment embedding not found "
        "within the step budget (try a larger max_steps)");
  }
  return FtShuffleExchange{ft_debruijn_base2(h, k), std::move(*sigma), h, k};
}

SeOffsets ft_se_natural_offsets(unsigned k) {
  const auto kk = static_cast<std::int64_t>(k);
  return SeOffsets{-kk, kk + 1, kk + 1};
}

Graph ft_se_natural_graph_custom(unsigned h, unsigned k, const SeOffsets& offsets) {
  const std::uint64_t n = labels::ipow_checked(2, h) + k;
  // Shuffle family: the SE shuffle edge is y = X(x, 2, msb(x), 2^h); after
  // reconfiguration the offset drifts exactly as in Theorem 1, so the same
  // interval [-k, k+1] suffices. Exchange family: the SE exchange edge
  // y = x ^ 1 never wraps, and under the monotone embedding the images
  // differ by 1 + (delta_y - delta_x) in [1, k+1] (from the even endpoint):
  // the plain band |x - y| <= exchange_hi, no modulus.
  return GraphBuilder::from_offset_intervals(n, 2, offsets.shuffle_lo, offsets.shuffle_hi,
                                             offsets.exchange_hi);
}

FtShuffleExchange ft_shuffle_exchange_natural(unsigned h, unsigned k) {
  return FtShuffleExchange{ft_se_natural_graph_custom(h, k, ft_se_natural_offsets(k)),
                           identity_embedding(labels::ipow_checked(2, h)), h, k};
}

std::uint64_t ft_se_natural_degree_bound_paper(unsigned k) { return 6ull * k + 4; }

std::uint64_t ft_se_natural_degree_bound_ours(unsigned k) { return 6ull * k + 6; }

std::optional<Embedding> reconfigure(const FtShuffleExchange& machine, const FaultSet& faults) {
  if (faults.count() > machine.k) return std::nullopt;
  if (faults.universe() != machine.ft_graph.num_nodes()) {
    throw std::invalid_argument("reconfigure: fault set universe mismatch");
  }
  const std::vector<NodeId> phi = monotone_embedding(faults);
  // With fewer than k faults the survivor count exceeds the logical target
  // size; the monotone embedding still provides images for all logical nodes.
  return compose(machine.se_to_logical, phi);
}

}  // namespace ftdb
