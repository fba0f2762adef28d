// bench_runner — discovers the registered perf_* benchmarks, runs them on a
// thread pool with seeded RNG, and emits machine-readable BENCH_*.json (plus
// an optional human-readable table). The JSON is the repo's perf trajectory:
// commit one per baseline and diff against it in later PRs.
//
//   bench_runner --list
//   bench_runner --json                      # writes BENCH_results.json
//   bench_runner --json --out BENCH_seed.json --threads 4 --seed 7
//   bench_runner --filter perf_routing --text
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <string>

#include "analysis/bench_registry.hpp"
#include "analysis/bench_runner.hpp"
#include "serve/durable_file.hpp"

namespace {

void usage(const char* argv0) {
  std::cout << "usage: " << argv0 << " [options]\n"
            << "  --list              list registered benchmarks and exit\n"
            << "  --json              write results as JSON (default path BENCH_results.json)\n"
            << "  --out PATH          JSON output path (implies --json)\n"
            << "  --text              print a human-readable summary table\n"
            << "  --filter SUBSTR     only run benchmarks whose name contains SUBSTR\n"
            << "  --threads N         worker threads (default 1 for timing fidelity;\n"
            << "                      0 = hardware concurrency)\n"
            << "  --seed S            root RNG seed (default 2026)\n"
            << "  --repetitions R     repetitions per benchmark (default 1)\n";
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ftdb::analysis;

  BenchRunOptions options;
  bool want_json = false;
  bool want_text = false;
  bool want_list = false;
  std::string out_path = "BENCH_results.json";

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&](const char* flag) -> std::string {
      if (i + 1 >= argc) {
        std::cerr << flag << " requires an argument\n";
        std::exit(2);
      }
      return argv[++i];
    };
    auto next_u64 = [&](const char* flag) -> std::uint64_t {
      const std::string value = next(flag);
      try {
        // stoull accepts "-1" and wraps it mod 2^64; reject signs explicitly.
        if (value.empty() || value[0] == '-' || value[0] == '+') throw std::invalid_argument(value);
        std::size_t consumed = 0;
        const std::uint64_t parsed = std::stoull(value, &consumed);
        if (consumed != value.size()) throw std::invalid_argument(value);
        return parsed;
      } catch (const std::exception&) {
        std::cerr << flag << " expects a non-negative integer, got \"" << value << "\"\n";
        std::exit(2);
      }
    };
    if (arg == "--list") {
      want_list = true;
    } else if (arg == "--json") {
      want_json = true;
    } else if (arg == "--out") {
      out_path = next("--out");
      want_json = true;
    } else if (arg == "--text") {
      want_text = true;
    } else if (arg == "--filter") {
      options.filter = next("--filter");
    } else if (arg == "--threads") {
      options.threads = static_cast<unsigned>(next_u64("--threads"));
    } else if (arg == "--seed") {
      options.seed = next_u64("--seed");
    } else if (arg == "--repetitions") {
      options.repetitions = static_cast<unsigned>(next_u64("--repetitions"));
    } else if (arg == "--help" || arg == "-h") {
      usage(argv[0]);
      return 0;
    } else {
      std::cerr << "unknown option: " << arg << "\n";
      usage(argv[0]);
      return 2;
    }
  }

  if (want_list) {
    for (const std::string& name : BenchRegistry::instance().names(options.filter)) {
      std::cout << name << "\n";
    }
    return 0;
  }

  const auto results = run_benchmarks(options);
  if (results.empty()) {
    std::cerr << "no benchmarks matched filter \"" << options.filter << "\"\n";
    return 1;
  }

  if (want_text || !want_json) {
    std::cout << bench_results_to_text(results) << "\n";
  }

  if (want_json) {
    try {
      ftdb::serve::write_file_atomically(out_path, bench_results_to_json(results, options) + "\n",
                                         false);
    } catch (const std::exception& e) {
      std::cerr << "bench_runner: " << e.what() << "\n";
      return 1;
    }
    std::cout << "wrote " << out_path << " (" << results.size() << " benchmarks)\n";
  }

  int failures = 0;
  for (const auto& r : results) {
    if (!r.ok) {
      std::cerr << "BENCH FAILED: " << r.name << ": " << r.error << "\n";
      ++failures;
    }
  }
  return failures == 0 ? 0 : 1;
}
