#include "analysis/bench_runner.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <fstream>
#include <stdexcept>
#include <thread>

#include "analysis/bench_json.hpp"
#include "analysis/bench_registry.hpp"
#include "analysis/table.hpp"

namespace ftdb::analysis {
namespace {

/// FNV-1a; mixes the benchmark name into the root seed so every benchmark
/// gets an independent, scheduling-invariant stream.
std::uint64_t mix_seed(std::uint64_t seed, const std::string& name) {
  std::uint64_t h = 1469598103934665603ull ^ seed;
  for (const char c : name) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

BenchResult run_one(const std::string& name, const BenchFn& fn, const BenchRunOptions& options) {
  BenchResult result;
  result.name = name;
  try {
    for (unsigned rep = 0; rep < std::max(1u, options.repetitions); ++rep) {
      BenchContext ctx(mix_seed(options.seed, name) + rep);
      const auto start = std::chrono::steady_clock::now();
      fn(ctx);
      const auto stop = std::chrono::steady_clock::now();
      result.wall_seconds.push_back(std::chrono::duration<double>(stop - start).count());
      result.metrics = ctx.metrics();
    }
    result.ok = true;
  } catch (const std::exception& e) {
    result.ok = false;
    result.error = e.what();
  } catch (...) {
    result.ok = false;
    result.error = "unknown exception";
  }
  return result;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) != 0) continue;
    const std::size_t colon = line.find(':');
    if (colon == std::string::npos) continue;
    const std::size_t start = line.find_first_not_of(' ', colon + 1);
    if (start != std::string::npos) return line.substr(start);
  }
  return "unknown";
}

std::string compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

}  // namespace

MachineStamp current_machine() {
  // FTDB_BUILD_TYPE comes from src/analysis/CMakeLists.txt.
  return {cpu_model(), std::thread::hardware_concurrency(), compiler(), FTDB_BUILD_TYPE};
}

double BenchResult::wall_min() const {
  return wall_seconds.empty() ? 0.0 : *std::min_element(wall_seconds.begin(), wall_seconds.end());
}

double BenchResult::wall_max() const {
  return wall_seconds.empty() ? 0.0 : *std::max_element(wall_seconds.begin(), wall_seconds.end());
}

double BenchResult::wall_mean() const {
  if (wall_seconds.empty()) return 0.0;
  double sum = 0.0;
  for (const double w : wall_seconds) sum += w;
  return sum / static_cast<double>(wall_seconds.size());
}

unsigned resolved_thread_count(const BenchRunOptions& options, std::size_t job_count) {
  unsigned threads = options.threads;
  if (threads == 0) threads = std::max(1u, std::thread::hardware_concurrency());
  return static_cast<unsigned>(
      std::min<std::size_t>(threads, std::max<std::size_t>(job_count, 1)));
}

std::vector<BenchResult> run_benchmarks(const BenchRunOptions& options) {
  const std::vector<std::string> names = BenchRegistry::instance().names(options.filter);
  std::vector<BenchResult> results(names.size());

  const unsigned threads = resolved_thread_count(options, names.size());

  std::atomic<std::size_t> next{0};
  auto worker = [&] {
    for (;;) {
      const std::size_t i = next.fetch_add(1);
      if (i >= names.size()) return;
      const BenchFn* fn = BenchRegistry::instance().find(names[i]);
      results[i] = run_one(names[i], *fn, options);
    }
  };

  if (threads <= 1) {
    worker();
  } else {
    std::vector<std::thread> pool;
    pool.reserve(threads);
    for (unsigned t = 0; t < threads; ++t) pool.emplace_back(worker);
    for (std::thread& t : pool) t.join();
  }
  return results;  // names() is sorted, so results are too
}

std::string bench_results_to_json(const std::vector<BenchResult>& results,
                                  const BenchRunOptions& options) {
  JsonWriter w;
  w.begin_object();
  w.key("schema");
  w.value("ftdb-bench-v1");
  w.key("seed");
  w.value(static_cast<std::uint64_t>(options.seed));
  w.key("threads");
  w.value(static_cast<std::uint64_t>(resolved_thread_count(options, results.size())));
  w.key("repetitions");
  w.value(static_cast<std::uint64_t>(std::max(1u, options.repetitions)));
  w.key("filter");
  w.value(options.filter);
  const MachineStamp machine = current_machine();
  w.key("machine");
  w.begin_object();
  w.key("cpu_model").value(machine.cpu_model);
  w.key("nproc").value(machine.nproc);
  w.key("compiler").value(machine.compiler);
  w.key("build_type").value(machine.build_type);
  w.end_object();
  w.key("benchmarks");
  w.begin_array();
  for (const BenchResult& r : results) {
    w.begin_object();
    w.key("name");
    w.value(r.name);
    w.key("ok");
    w.value(r.ok);
    if (!r.ok) {
      w.key("error");
      w.value(r.error);
    }
    w.key("wall_seconds");
    w.begin_object();
    w.key("min");
    w.value(r.wall_min());
    w.key("mean");
    w.value(r.wall_mean());
    w.key("max");
    w.value(r.wall_max());
    w.key("samples");
    w.begin_array();
    for (const double s : r.wall_seconds) w.value(s);
    w.end_array();
    w.end_object();
    w.key("metrics");
    w.begin_object();
    for (const auto& [k, v] : r.metrics) {
      w.key(k);
      w.value(v);
    }
    w.end_object();
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return w.str();
}

std::string bench_results_to_text(const std::vector<BenchResult>& results) {
  Table t({"benchmark", "status", "wall mean (ms)", "wall min (ms)", "metrics"});
  for (const BenchResult& r : results) {
    t.add_row({r.name, r.ok ? "ok" : ("FAILED: " + r.error),
               fmt_double(1e3 * r.wall_mean(), 3), fmt_double(1e3 * r.wall_min(), 3),
               fmt_u64(r.metrics.size())});
  }
  return t.render();
}

}  // namespace ftdb::analysis
