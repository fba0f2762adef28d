// bench_compare — diffs two BENCH_*.json files produced by bench_runner and
// emits a markdown table of per-benchmark ratios of the wall-time minima plus
// the geomean speedup. Exits non-zero when any shared benchmark regressed
// beyond the threshold, or when the files share no benchmark. Timings are
// gated only between files stamped with the same machine:
//
//   bench_compare BENCH_before.json BENCH_after.json --threshold 1.15
//   bench_compare BENCH_pr2_pre.json BENCH_pr2.json --filter perf_construction
//
// --validate checks files instead of diffing: each must json_parse as a
// well-formed ftdb-bench-v1 document:
//
//   bench_compare --validate BENCH_*.json
//
// --gates evaluates the declarative perf gates (bench/gates.json) against the
// head runs and, for the head-vs-parent timing gates, the parent runs built in
// the same job:
//
//   bench_compare --gates bench/gates.json head_*.json vs parent_*.json
//
// The logic lives in analysis/bench_compare so the tests can drive it.
#include <iostream>
#include <string>
#include <vector>

#include "analysis/bench_compare.hpp"

int main(int argc, char** argv) {
  const std::vector<std::string> args(argv + 1, argv + argc);
  return ftdb::analysis::bench_compare_main(args, std::cout, std::cerr);
}
