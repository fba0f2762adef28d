// GraphBuilder::from_offset_intervals: the CSR rows of the de Bruijn family
// (B^k_{m,h}, the natural SE^k_h and the bus machine's realized graph)
// straight from their offset intervals.
//
// Node x is joined to (m*x + r) mod s for every r in [lo, hi] (the
// out-interval), to every y with (m*y + r) mod s == x (the in-intervals) and
// to the band [x - e, x + e]. Only lo mod s and the width L = hi - lo + 1
// matter, so lo is moved into (-s, 0] and L is capped at s. Then
// m*y + r = x + j*s has a solution y in [0, s) only for j in [-1, m], and
// for each such j the solutions form the interval
//   [ceil((x - hi + j*s) / m), floor((x - lo + j*s) / m)] ∩ [0, s).
// A row is therefore at most m + 5 runs of consecutive ids; sorting them by
// their first id and merging yields the sorted, duplicate-free adjacency
// list directly.
#include <algorithm>
#include <stdexcept>
#include <string>
#include <vector>

#include "graph/graph.hpp"

namespace ftdb {

namespace {

/// An inclusive run [first, last] of node ids.
struct IdRun {
  std::int64_t first;
  std::int64_t last;
};

/// floor((x + d) / m) as x counts up from 0: quot * m + rem == x + d with
/// 0 <= rem < m, advanced by one compare per row instead of one division.
struct FloorCounter {
  std::int64_t quot;
  std::int64_t rem;

  FloorCounter(std::int64_t d, std::int64_t m) : quot(d / m), rem(d % m) {
    if (rem < 0) {
      rem += m;
      --quot;
    }
  }

  void step(std::int64_t m) {
    if (++rem == m) {
      rem = 0;
      ++quot;
    }
  }
};

NodeId* write_run(NodeId* out, IdRun run, std::int64_t skip) {
  for (std::int64_t v = run.first; v <= run.last; ++v) {
    if (v != skip) *out++ = static_cast<NodeId>(v);
  }
  return out;
}

}  // namespace

Graph GraphBuilder::from_offset_intervals(std::size_t num_nodes, std::uint64_t multiplier,
                                          std::int64_t lo, std::int64_t hi, std::int64_t band) {
  if (lo > hi || band < 0) {
    std::string what = "GraphBuilder::from_offset_intervals: empty ";
    what += lo > hi ? "offset range [" + std::to_string(lo) + ", " + std::to_string(hi) + "]"
                    : "band offset range [1, " + std::to_string(band) + "]";
    throw std::invalid_argument(what);
  }
  Graph g;
  g.offsets_.assign(num_nodes + 1, 0);
  if (num_nodes == 0) return g;

  const auto s = static_cast<std::int64_t>(num_nodes);
  // m is only needed mod s; keep it in [1, s] so the preimage intervals
  // below never divide by zero.
  std::int64_t m = static_cast<std::int64_t>(multiplier % num_nodes);
  if (m == 0) m = s;
  const std::uint64_t span = static_cast<std::uint64_t>(hi) - static_cast<std::uint64_t>(lo);
  const std::int64_t len = span >= num_nodes ? s : static_cast<std::int64_t>(span) + 1;
  std::int64_t first = lo % s;  // lo mod s, in (-s, 0]
  if (first > 0) first -= s;
  const std::int64_t last = first + len - 1;
  const std::int64_t e = std::min(band, s);

  // floor counters for the in-interval ends, two per j in [-1, m].
  std::vector<FloorCounter> ends;
  ends.reserve(2 * static_cast<std::size_t>(m + 2));
  for (std::int64_t j = -1; j <= m; ++j) {
    ends.emplace_back(-last + j * s + m - 1, m);
    ends.emplace_back(-first + j * s, m);
  }
  std::vector<IdRun> runs(static_cast<std::size_t>(m) + 5);

  // A row holds at most len out-neighbors, len + m + 1 in-neighbors (the
  // multiples of m among the <= m + 1 lifts of the out-interval's image
  // inside [0, m*(s-1)]) and 2e + 1 band ids.
  const std::int64_t row_cap = std::min(s, 2 * len + m + 2 * e + 2);
  g.adjacency_.resize(static_cast<std::size_t>(s * row_cap));
  NodeId* const base = g.adjacency_.data();
  NodeId* out = base;
  std::int64_t out_first = first < 0 ? first + s : 0;  // (m*x + lo) mod s
  for (std::int64_t x = 0; x < s; ++x) {
    std::size_t n = 0;
    const auto add = [&](std::int64_t a, std::int64_t b) {
      if (a <= b) runs[n++] = {a, b};
    };
    if (out_first + len <= s) {
      add(out_first, out_first + len - 1);
    } else {
      add(out_first, s - 1);
      add(0, out_first + len - 1 - s);
    }
    for (std::size_t i = 0; i < ends.size(); i += 2) {
      add(std::max<std::int64_t>(ends[i].quot, 0), std::min(ends[i + 1].quot, s - 1));
      ends[i].step(m);
      ends[i + 1].step(m);
    }
    if (e > 0) add(std::max<std::int64_t>(x - e, 0), std::min(x + e, s - 1));

    for (std::size_t i = 1; i < n; ++i) {
      const IdRun r = runs[i];
      std::size_t k = i;
      for (; k > 0 && runs[k - 1].first > r.first; --k) runs[k] = runs[k - 1];
      runs[k] = r;
    }
    IdRun cur = runs[0];
    for (std::size_t i = 1; i < n; ++i) {
      if (runs[i].first <= cur.last + 1) {
        cur.last = std::max(cur.last, runs[i].last);
      } else {
        out = write_run(out, cur, x);
        cur = runs[i];
      }
    }
    out = write_run(out, cur, x);
    g.offsets_[static_cast<std::size_t>(x) + 1] = static_cast<std::size_t>(out - base);

    out_first += m;
    if (out_first >= s) out_first -= s;
  }
  g.adjacency_.resize(static_cast<std::size_t>(out - base));
  return g;
}

}  // namespace ftdb
