// Shared pieces of the benchmark program: the options every workload gets, its
// own splitmix64 input generator, order statistics, the result record that
// main.cpp prints, and the in-memory span recorder behind --trace 1.
#pragma once

#include <chrono>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  unsigned threads = 4;                  // worker threads a workload may use
  std::string out_dir = ".bench_out";  // run artifacts (checkpoints, journals, traces)
};

/// The benchmark's own input generator. Every input (fault sets, packets,
/// query and event streams) is drawn from it, so inputs depend only on the
/// workload seed — not on the standard library's distribution algorithms.
class SplitMix64 {
 public:
  explicit SplitMix64(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, n) by multiply-shift (n > 0).
  std::uint64_t below(std::uint64_t n) {
    return static_cast<std::uint64_t>((static_cast<unsigned __int128>(next()) * n) >> 64);
  }

 private:
  std::uint64_t state_;
};

/// Independent stream `stream` of the workload seed.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream);

/// Linear-interpolated quantile (q in [0, 1]); 0 for an empty sample.
double quantile(std::vector<double> values, double q);
inline double median(std::vector<double> values) { return quantile(std::move(values), 0.5); }

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one run reports. `end_to_end` is printed with --trace 0 and
/// `per_layer` with --trace 1 (in BENCHMARK.json order); `detail` holds the
/// workload's own named figures, printed as summary lines and kept in the
/// run's result file.
struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  std::vector<Metric> detail;
  std::vector<std::string> errors;

  void set_end_to_end(const std::string& name, double value, const std::string& unit);
  void set_per_layer(const std::string& name, double value, const std::string& unit);
  void add_detail(const std::string& name, double value, const std::string& unit);
  /// Records a failed correctness check: the run is no longer correct.
  void fail(const std::string& why);
};

/// In-memory span recorder. Spans carry (name, start, end, parent) and are
/// recorded per lane — one lane per thread — so recording takes no lock.
/// With recording disabled a span costs one branch.
class Trace {
 public:
  struct Span {
    const char* name = nullptr;
    std::uint32_t id = 0;      // 1-based within the lane
    std::uint32_t parent = 0;  // 0 = root
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
  };

  class Scope;

  class Lane {
   public:
    explicit Lane(const Trace* trace) : trace_(trace) {}
    const std::vector<Span>& spans() const { return spans_; }

   private:
    friend class Scope;
    const Trace* trace_;
    std::vector<Span> spans_;
    std::vector<std::uint32_t> open_;  // indices of open spans
  };

  /// RAII span on one lane; a no-op when the trace is disabled.
  class Scope {
   public:
    Scope(Lane& lane, const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Lane* lane_ = nullptr;
  };

  explicit Trace(bool enabled);

  bool enabled() const { return enabled_; }
  void set_enabled(bool on) { enabled_ = on; }

  /// A new lane for the calling thread (thread-safe; the lane lives as long
  /// as the trace).
  Lane& new_lane();

  std::int64_t now_ns() const;

  struct Totals {
    std::uint64_t count = 0;
    double total_ns = 0.0;
  };
  using TotalsMap = std::map<std::string, Totals>;
  /// Per-name call counts and summed durations over every lane.
  TotalsMap totals() const;

  /// Mean duration of `name` in ns divided by `per` (1e3 for µs, 1e6 for
  /// ms), 0 when the name never ran.
  static double mean(const TotalsMap& totals, const std::string& name, double per);
  /// Summed duration of `name` in ns divided by `per`.
  static double total(const TotalsMap& totals, const std::string& name, double per);

  /// Share of the time inside root spans named `window` that no layer span
  /// covers. Layer spans are the ones whose name starts with a library
  /// module prefix (topology., graph., ft., fault_models., sim., router.,
  /// serve., campaign.).
  double unattributed_share(const std::string& window) const;

  /// Writes every lane as CSV (lane,id,parent,name,start_ns,end_ns), keeping
  /// at most `max_per_name` spans of each name.
  void write_csv(const std::string& path, std::size_t max_per_name) const;

 private:
  bool enabled_;
  Clock::time_point origin_;
  mutable std::mutex mu_;
  std::deque<std::unique_ptr<Lane>> lanes_;
};

bool is_layer_span(const char* name);

}  // namespace perfbench
