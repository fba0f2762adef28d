#include "ft/ft_debruijn.hpp"

#include <stdexcept>
#include <utility>

#include "topology/labels.hpp"

namespace ftdb {

std::uint64_t ft_debruijn_num_nodes(const FtDeBruijnParams& params) {
  if (params.base < 2) throw std::invalid_argument("ft_debruijn: base must be >= 2");
  if (params.digits < 1) throw std::invalid_argument("ft_debruijn: digits must be >= 1");
  return labels::ipow_checked(params.base, params.digits) + params.spares;
}

OffsetRange ft_debruijn_offsets(const FtDeBruijnParams& params) {
  const auto m = static_cast<std::int64_t>(params.base);
  const auto k = static_cast<std::int64_t>(params.spares);
  return OffsetRange{(m - 1) * (-k), (m - 1) * (k + 1)};
}

Graph ft_debruijn_graph_custom_offsets(std::uint64_t base, unsigned digits, unsigned spares,
                                       OffsetRange offsets) {
  if (base < 2) throw std::invalid_argument("ft_debruijn: base must be >= 2");
  const std::uint64_t n = labels::ipow_checked(base, digits) + spares;
  return GraphBuilder::from_offset_intervals(n, base, offsets.lo, offsets.hi);
}

Graph ft_debruijn_graph(const FtDeBruijnParams& params) {
  return ft_debruijn_graph_custom_offsets(params.base, params.digits, params.spares,
                                          ft_debruijn_offsets(params));
}

Graph ft_debruijn_base2(unsigned h, unsigned k) {
  return ft_debruijn_graph({.base = 2, .digits = h, .spares = k});
}

std::uint64_t ft_debruijn_degree_bound(const FtDeBruijnParams& params) {
  // Corollary 3: degree <= (m-1) * 4k + 2m; for m = 2 this is 4k + 4.
  return (params.base - 1) * 4 * params.spares + 2 * params.base;
}

}  // namespace ftdb
