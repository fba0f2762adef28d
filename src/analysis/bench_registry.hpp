// Registry of named benchmarks for bench_runner. A benchmark is a function
// taking a BenchContext; it does its work (using the context's seeded RNG for
// any randomness) and reports named scalar metrics. The runner measures wall
// time around the whole body, so iteration-style microbenchmarks should run a
// fixed iteration count and report it as a metric.
//
// Registration happens via static initializers, so benchmark translation
// units must be linked directly into the runner executable (not buried in a
// static library where the linker may drop them).
//
//   FTDB_BENCH(build_target, "perf_construction/build_target_b2") {
//     for (int i = 0; i < 100; ++i) use(debruijn_base2(10));
//     ctx.report("iterations", 100);
//   }
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "ft/rng.hpp"
#include "sim/engine.hpp"

namespace ftdb::analysis {

class BenchContext {
 public:
  explicit BenchContext(std::uint64_t seed) : rng_(seed) {}

  /// Deterministic per-benchmark RNG: seeded from the runner seed and the
  /// benchmark name, independent of which worker thread runs the benchmark.
  SplitMix64& rng() { return rng_; }

  /// Records a named scalar result (cycle counts, latencies, iteration
  /// counts...). Later reports with the same key overwrite earlier ones.
  void report(const std::string& key, double value);

  /// Records the interesting fields of a simulation run under `prefix.`.
  void report_stats(const std::string& prefix, const sim::SimStats& stats);

  const std::vector<std::pair<std::string, double>>& metrics() const { return metrics_; }

 private:
  SplitMix64 rng_;
  std::vector<std::pair<std::string, double>> metrics_;
};

using BenchFn = std::function<void(BenchContext&)>;

class BenchRegistry {
 public:
  static BenchRegistry& instance();

  void add(std::string name, BenchFn fn);

  /// All registered names, sorted, optionally restricted to names containing
  /// `filter` as a substring.
  std::vector<std::string> names(const std::string& filter = "") const;

  /// Null when no benchmark of that name exists.
  const BenchFn* find(const std::string& name) const;

  std::size_t size() const { return entries_.size(); }

 private:
  std::vector<std::pair<std::string, BenchFn>> entries_;
};

struct BenchRegistrar {
  BenchRegistrar(const char* name, BenchFn fn);
};

}  // namespace ftdb::analysis

#define FTDB_BENCH(ident, name)                                               \
  static void ftdb_bench_##ident(::ftdb::analysis::BenchContext& ctx);        \
  static const ::ftdb::analysis::BenchRegistrar ftdb_bench_registrar_##ident( \
      name, &ftdb_bench_##ident);                                             \
  static void ftdb_bench_##ident([[maybe_unused]] ::ftdb::analysis::BenchContext& ctx)
