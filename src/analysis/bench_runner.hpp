// Parallel benchmark driver: discovers benchmarks in the BenchRegistry, runs
// them across a worker pool, and serializes results (wall time per repetition
// plus whatever metrics each benchmark reported) to BENCH_*.json so the perf
// trajectory of the repo is machine-readable PR over PR.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace ftdb::analysis {

struct BenchRunOptions {
  /// Worker threads; 0 means std::thread::hardware_concurrency() (min 1).
  /// The default is 1 so wall times are not contaminated by sibling
  /// benchmarks competing for cores/caches — baselines should be serial;
  /// opt into the pool when throughput matters more than timing fidelity.
  unsigned threads = 1;
  /// Root seed; each benchmark's RNG is seeded from (seed, name) so results
  /// do not depend on thread scheduling.
  std::uint64_t seed = 2026;
  /// How many times each benchmark body runs; wall time is recorded per
  /// repetition, metrics are kept from the last repetition.
  unsigned repetitions = 1;
  /// Substring filter over benchmark names (empty = all).
  std::string filter;
};

struct BenchResult {
  std::string name;
  bool ok = false;
  std::string error;  // exception text when !ok
  std::vector<double> wall_seconds;  // one entry per completed repetition
  std::vector<std::pair<std::string, double>> metrics;

  double wall_min() const;
  double wall_mean() const;
  double wall_max() const;
};

/// Runs every registered benchmark matching options.filter. Results come back
/// sorted by name. Benchmarks that throw are reported with ok=false rather
/// than aborting the run.
std::vector<BenchResult> run_benchmarks(const BenchRunOptions& options);

/// The worker count run_benchmarks actually uses for `job_count` jobs:
/// options.threads with 0 resolved to hardware concurrency, capped at the
/// job count. This is what the JSON reports, not the raw option.
unsigned resolved_thread_count(const BenchRunOptions& options, std::size_t job_count);

/// The machine a BENCH_*.json was timed on. Wall times and ns_per_* metrics
/// are compared only between files whose stamps are equal; the field names
/// match perfbench's `stamp`.
struct MachineStamp {
  std::string cpu_model;   // /proc/cpuinfo "model name", or "unknown"
  std::uint64_t nproc = 0;  // std::thread::hardware_concurrency()
  std::string compiler;    // e.g. "gcc 12.2.0"
  std::string build_type;  // CMake build type the library was compiled in

  bool operator==(const MachineStamp&) const = default;
};

/// The stamp of the running binary on this machine.
MachineStamp current_machine();

/// The BENCH_*.json document (schema "ftdb-bench-v1"), stamped with
/// current_machine() under "machine".
std::string bench_results_to_json(const std::vector<BenchResult>& results,
                                  const BenchRunOptions& options);

/// Renders a human-readable summary table of the results.
std::string bench_results_to_text(const std::vector<BenchResult>& results);

}  // namespace ftdb::analysis
