// bench_compare: diffs BENCH_*.json files written by bench_runner and
// evaluates the declarative CI perf gates in bench/gates.json. The command
// line lives here, not in tools/, so the tests can drive it end to end.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

namespace ftdb::analysis {

/// Runs `bench_compare ARGS...` (argv without the program name). Markdown
/// goes to `out`, diagnostics to `err`. Returns the exit code: 0 when every
/// comparison or gate passes, 1 on a regression, drift, failed gate or a
/// comparison that shares no benchmark, 2 on bad usage or unreadable input.
int bench_compare_main(const std::vector<std::string>& args, std::ostream& out,
                       std::ostream& err);

}  // namespace ftdb::analysis
