#include "topology/shuffle_exchange.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <limits>
#include <stdexcept>
#include <utility>

#include "graph/csr.hpp"
#include "topology/labels.hpp"

namespace ftdb {

std::uint64_t shuffle_exchange_num_nodes(unsigned h) {
  if (h < 1) throw std::invalid_argument("shuffle-exchange requires h >= 1");
  return labels::ipow_checked(2, h);
}

Graph shuffle_exchange_graph(unsigned h) {
  const std::uint64_t n = shuffle_exchange_num_nodes(h);
  std::vector<csr::HalfEdge>& halves = csr::emission_buffer();
  halves.reserve(static_cast<std::size_t>(n) * 4);
  for (std::uint64_t x = 0; x < n; ++x) {
    csr::emit_undirected(halves, static_cast<NodeId>(x),
                         static_cast<NodeId>(labels::rotate_left(x, 2, h)));
    csr::emit_undirected(halves, static_cast<NodeId>(x),
                         static_cast<NodeId>(labels::exchange_bit0(x)));
  }
  return GraphBuilder::from_half_edges(n, halves);
}

NodeId se_shuffle(NodeId x, unsigned h) {
  return static_cast<NodeId>(labels::rotate_left(x, 2, h));
}

NodeId se_unshuffle(NodeId x, unsigned h) {
  return static_cast<NodeId>(labels::rotate_right(x, 2, h));
}

NodeId se_exchange(NodeId x) { return static_cast<NodeId>(labels::exchange_bit0(x)); }

void shuffle_exchange_neighbors(unsigned h, NodeId x, std::vector<NodeId>& out) {
  const std::uint64_t n = shuffle_exchange_num_nodes(h);
  if (x >= n) throw std::out_of_range("shuffle_exchange_neighbors: node out of range");
  out.clear();
  out.push_back(se_exchange(x));
  out.push_back(se_shuffle(x, h));
  out.push_back(se_unshuffle(x, h));
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  out.erase(std::remove(out.begin(), out.end(), x), out.end());
}

namespace {

constexpr std::uint32_t kUncapped = 0xFFFFFFFEu;
constexpr int kNoHint = std::numeric_limits<int>::min();

struct SeScanState {
  std::uint32_t best;
  int witness;
};

// Evaluate one final alignment rho exactly against the current best, given
// aligned == rotr^rho(y). Any rotation walk ending on rho's residue class
// has length >= min(rho, h-rho), so flips + that floor rejects most
// alignments before the per-residue split scan. The residues come out
// sorted for free: ascending bit index i gives residue (h-i) % h, which is
// 0 for i == 0 and then descends — so bit 0 first, then bits h-1 down to 1.
void se_eval_rho(std::uint64_t x, std::uint64_t aligned, int h, int rho, SeScanState& e) {
  const std::uint64_t diff = x ^ aligned;
  const int flips = std::popcount(diff);
  const int rot_floor = std::min(rho, h - rho);
  if (static_cast<std::uint32_t>(flips + rot_floor) >= e.best) return;
  if (diff == 0) {
    e.best = static_cast<std::uint32_t>(rot_floor);
    e.witness = rho;
    return;
  }
  // Bit i is exchangeable when the net rotation r satisfies r ≡ -i (mod h).
  std::array<int, 64> required;  // residues the rotation walk must visit, ascending
  int count = 0;
  if (diff & 1u) required[static_cast<std::size_t>(count++)] = 0;
  std::uint64_t rest = diff & ~std::uint64_t{1};
  while (rest != 0) {
    const int i = 63 - __builtin_clzll(rest);
    required[static_cast<std::size_t>(count++)] = h - i;
    rest &= ~(std::uint64_t{1} << i);
  }
  const int endpoints[3] = {rho - h, rho, rho + h};
  // Split the sorted residues: the first j are reached sweeping up (at
  // their value), the rest sweeping down (at value - h).
  for (int j = 0; j <= count; ++j) {
    const int cover_max = (j > 0) ? required[static_cast<std::size_t>(j - 1)] : 0;
    const int cover_min = (j < count) ? required[static_cast<std::size_t>(j)] - h : 0;
    for (const int f : endpoints) {
      const int walk_max = std::max(cover_max, std::max(0, f));
      const int walk_min = std::min(cover_min, std::min(0, f));
      const int up_first = walk_max + (walk_max - walk_min) + (f - walk_min);
      const int down_first = (-walk_min) + (walk_max - walk_min) + (walk_max - f);
      const int hops = flips + std::min(up_first, down_first);
      if (hops >= 0 && static_cast<std::uint32_t>(hops) < e.best) {
        e.best = static_cast<std::uint32_t>(hops);
        e.witness = rho;
      }
    }
  }
}

// Exact cost of the best tour constrained to final alignment rho — a fresh
// single-rho evaluation with no running best to reject against.
int se_cost_at(std::uint64_t x, std::uint64_t y, int h, int rho) {
  const std::uint64_t aligned =
      rho == 0 ? y : (((y >> rho) | (y << (h - rho))) & ((std::uint64_t{1} << h) - 1));
  SeScanState e{kUncapped + 1, 0};
  se_eval_rho(x, aligned, h, rho, e);
  return static_cast<int>(e.best);
}

// Full-alignment scan with the hinted rotation tried first and the
// floor-stop exit of the de Bruijn kernel: `floor_stop` is a caller
// guaranteed lower bound on the true distance, so matching it is proof.
// Results <= cap are exact; anything above cap means "farther than cap".
std::uint32_t se_distance_scan(std::uint64_t x, std::uint64_t y, int h, std::uint32_t cap,
                               std::uint32_t floor_stop, int hint, int* witness) {
  SeScanState e{std::min(cap, kUncapped) + 1, 0};
  if (hint != kNoHint && hint >= 0 && hint < h) {
    const std::uint64_t aligned =
        hint == 0 ? y : (((y >> hint) | (y << (h - hint))) & ((std::uint64_t{1} << h) - 1));
    se_eval_rho(x, aligned, h, hint, e);
    if (e.best <= floor_stop) {
      if (witness != nullptr) *witness = e.witness;
      return e.best;
    }
  } else {
    hint = kNoHint;
  }
  std::uint64_t aligned = y;  // rotr^rho(y): the flip targets in x's frame
  for (int rho = 0; rho < h; ++rho) {
    if (rho > 0) aligned = labels::rotate_right(aligned, 2, static_cast<unsigned>(h));
    if (rho == hint) continue;
    se_eval_rho(x, aligned, h, rho, e);
    if (e.best <= floor_stop) break;
  }
  if (witness != nullptr) *witness = e.witness;
  return e.best;
}

}  // namespace

std::uint32_t shuffle_exchange_distance(unsigned h, NodeId x, NodeId y) {
  const std::uint64_t n = shuffle_exchange_num_nodes(h);
  if (x >= n || y >= n) throw std::out_of_range("shuffle_exchange_distance: node out of range");
  if (x == y) return 0;
  return se_distance_scan(x, y, static_cast<int>(h), kUncapped, 0, kNoHint, nullptr);
}

ShuffleExchangeDistanceStepper::ShuffleExchangeDistanceStepper(unsigned h, NodeId dest)
    : dest_(dest), h_(static_cast<int>(h)) {
  n_ = shuffle_exchange_num_nodes(h);
  if (dest >= n_) throw std::out_of_range("ShuffleExchangeDistanceStepper: dest out of range");
}

void ShuffleExchangeDistanceStepper::retarget(NodeId dest) {
  if (dest >= n_) throw std::out_of_range("ShuffleExchangeDistanceStepper: dest out of range");
  dest_ = dest;
  node_ = kInvalidNode;
  opt_valid_ = false;
}

std::uint32_t ShuffleExchangeDistanceStepper::reset(NodeId node) {
  if (node >= n_) throw std::out_of_range("ShuffleExchangeDistanceStepper: node out of range");
  node_ = node;
  wit_.offset = 0;
  opt_valid_ = false;
  dist_ = (node == dest_) ? 0 : se_distance_scan(node, dest_, h_, kUncapped, 0, kNoHint,
                                                 &wit_.offset);
  return dist_;
}

void ShuffleExchangeDistanceStepper::seed(NodeId node, std::uint32_t dist,
                                          const DistanceWitness& witness, std::uint64_t opt) {
  if (node >= n_) throw std::out_of_range("ShuffleExchangeDistanceStepper: node out of range");
  node_ = node;
  dist_ = dist;
  wit_ = witness;
  opt_ = opt;
  opt_valid_ = opt != 0;
}

// Collect {rho : cost(rho) == dist_} exactly: h single-rho evaluations, each
// cheap because se_eval_rho's own flips + rotation floor usually rejects.
void ShuffleExchangeDistanceStepper::collect_opt() const {
  opt_ = 0;
  const int d = static_cast<int>(dist_);
  for (int rho = 0; rho < h_; ++rho) {
    if (se_cost_at(node_, dest_, h_, rho) == d) opt_ |= std::uint64_t{1} << rho;
  }
  opt_valid_ = true;
}

int ShuffleExchangeDistanceStepper::probe_neighbors(ProbeNeighbor* out) const {
  const unsigned h = static_cast<unsigned>(h_);
  int count = 0;
  auto push = [&](NodeId id, int hint, int dir) {
    if (id == node_) return;
    int i = count;
    while (i > 0 && out[i - 1].id > id) --i;
    if (i > 0 && out[i - 1].id == id) return;
    for (int j = count; j > i; --j) out[j] = out[j - 1];
    out[i] = {id, hint, dir};
    ++count;
  };
  push(se_exchange(node_), wit_.offset, 0);
  push(se_shuffle(node_, h), (wit_.offset + h_ - 1) % h_, -1);
  push(se_unshuffle(node_, h), (wit_.offset + 1) % h_, +1);
  return count;
}

std::uint32_t ShuffleExchangeDistanceStepper::probe(const ProbeNeighbor& nb, std::uint32_t cap,
                                                    DistanceWitness* witness,
                                                    std::uint64_t* opt_out) const {
  if (opt_out != nullptr) *opt_out = 0;
  if (nb.id == dest_) {
    if (witness != nullptr) witness->offset = 0;
    // The destination's own optimal set: diff == 0, so cost(rho) is the pure
    // rotation floor min(rho, h - rho), zero only at rho == 0.
    if (opt_out != nullptr) *opt_out = 1;
    return 0;
  }
  if (dist_ > 0 && cap == dist_ - 1) {
    // Refutation probe: is this neighbor exactly one hop closer? A tour for
    // the neighbor at alignment rho, extended by the reverse edge, is a tour
    // for the current node at the move-remapped alignment with one more hop
    // — so the neighbor can hit dist-1 only at alignments whose image under
    // the move lies in the current optimal set. Evaluate exactly those; the
    // evaluations double as the neighbor's complete optimal set at dist-1.
    if (!opt_valid_) collect_opt();
    std::uint64_t cands = opt_;
    if (nb.dir != 0 && h_ > 1) {
      const std::uint64_t lane = (std::uint64_t{1} << h_) - 1;
      cands = nb.dir < 0 ? (((opt_ >> 1) | (opt_ << (h_ - 1))) & lane)
                         : (((opt_ << 1) | (opt_ >> (h_ - 1))) & lane);
    }
    const int target = static_cast<int>(dist_) - 1;
    std::uint64_t hits = 0;
    int first_rho = 0;
    while (cands != 0) {
      const int rho = __builtin_ctzll(cands);
      cands &= cands - 1;
      if (se_cost_at(nb.id, dest_, h_, rho) == target) {
        if (hits == 0) first_rho = rho;
        hits |= std::uint64_t{1} << rho;
      }
    }
    if (hits != 0) {
      if (witness != nullptr) witness->offset = first_rho;
      if (opt_out != nullptr) *opt_out = hits;
      return static_cast<std::uint32_t>(target);
    }
    return cap + 1;
  }
  const std::uint32_t floor_stop = dist_ > 0 ? dist_ - 1 : 0;
  return se_distance_scan(nb.id, dest_, h_, cap, floor_stop, nb.hint,
                          witness != nullptr ? &witness->offset : nullptr);
}

std::optional<unsigned> shuffle_exchange_shape_of(const Graph& g) {
  const std::uint64_t n = g.num_nodes();
  if (n < 2 || (n & (n - 1)) != 0) return std::nullopt;
  const unsigned h = static_cast<unsigned>(std::countr_zero(n));
  std::vector<NodeId> expected;
  for (std::uint64_t x = 0; x < n; ++x) {
    shuffle_exchange_neighbors(h, static_cast<NodeId>(x), expected);
    const auto actual = g.neighbors(static_cast<NodeId>(x));
    if (actual.size() != expected.size() ||
        !std::equal(actual.begin(), actual.end(), expected.begin())) {
      return std::nullopt;
    }
  }
  return h;
}

}  // namespace ftdb
