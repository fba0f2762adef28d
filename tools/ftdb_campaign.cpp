// ftdb_campaign — Monte Carlo fault-injection campaigns from the command
// line. A campaign spec (JSON) declares a grid of topologies x spare budgets
// x fault models; the engine runs 256-trial blocks of every cell through a
// work-stealing thread pool and emits deterministic JSON/CSV/markdown
// reports (byte-identical for any --threads value, across --checkpoint /
// --resume boundaries, and across elastic workers and shards).
//
//   ftdb_campaign example-spec > demo.json
//   ftdb_campaign run --spec demo.json --out report.json --md report.md
//   ftdb_campaign run --spec big.json --checkpoint big.ckpt --checkpoint-every 30
//   ftdb_campaign run --spec big.json --checkpoint big.ckpt --resume   # pick up
//
//   # elastic: any number of workers join/leave through a shared directory;
//   # dead workers' cell leases age out and are reclaimed
//   ftdb_campaign run --spec big.json --elastic /shared/big &
//   ftdb_campaign run --spec big.json --elastic /shared/big &
//   ftdb_campaign merge --elastic /shared/big --partial       # live snapshot
//   ftdb_campaign merge --elastic /shared/big --out report.json
//
//   # static shards without shared storage: one directory per machine, then
//   # one merge over all of them
//   ftdb_campaign run --spec big.json --elastic d0 --shard 0/2   # machine A
//   ftdb_campaign run --spec big.json --elastic d1 --shard 1/2   # machine B
//   ftdb_campaign merge --elastic d0 d1 --out report.json
//
//   ftdb_campaign validate report.json
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <iostream>
#include <string>
#include <system_error>
#include <vector>

#include "campaign/elastic/elastic.hpp"
#include "campaign/elastic/partial.hpp"
#include "campaign/report.hpp"
#include "campaign/runner.hpp"
#include "campaign/scenario.hpp"
#include "serve/durable_file.hpp"

namespace {

using namespace ftdb::campaign;
using ftdb::serve::read_file;
using ftdb::serve::write_file_atomically;

int usage() {
  std::cerr
      << "usage:\n"
         "  ftdb_campaign run --spec FILE [options]\n"
         "  ftdb_campaign merge --elastic DIR [DIR...] [--partial] [--out FILE] [--csv FILE]\n"
         "                      [--md FILE]\n"
         "  ftdb_campaign example-spec [--full]\n"
         "  ftdb_campaign validate-spec SPEC.json\n"
         "  ftdb_campaign validate REPORT.json\n"
         "\n"
         "run options:\n"
         "  --spec FILE             campaign spec JSON (required)\n"
         "  --out FILE              write the JSON report (default: stdout)\n"
         "  --csv FILE              also write a CSV report\n"
         "  --md FILE               also write a markdown report\n"
         "  --threads N             worker threads, at most 1024 (0 = hardware, default 0)\n"
         "  --checkpoint FILE       write block-granular checkpoints to FILE\n"
         "  --checkpoint-every SEC  min seconds between checkpoint writes\n"
         "                          (default 0 = after every completed block)\n"
         "  --resume                load --checkpoint and skip completed blocks\n"
         "  --stop-after-blocks N   crash-simulation hook: checkpoint and abort (exit 3)\n"
         "                          once N trial blocks completed (elastic: the held cell\n"
         "                          lease is left behind, like a hard-killed worker)\n"
         "  --quiet                 no per-scenario progress on stderr\n"
         "\n"
         "elastic run options (workers coordinate through a shared directory):\n"
         "  --elastic DIR           join the elastic campaign at DIR: lease cells, append\n"
         "                          completed blocks to DIR/logs/<worker>.blk, reclaim\n"
         "                          dead workers' leases (no report; `merge --elastic`\n"
         "                          produces it). Excludes --checkpoint/--resume\n"
         "  --shard I/N             lease only the cells shard I of N owns (grid index\n"
         "                          mod N == I) and stop once they are durable\n"
         "  --worker-id ID          stable worker name (default: <host>-<pid>)\n"
         "  --lease-ttl SEC         lease staleness horizon, 1 s to a year (default 30)\n"
         "  --no-fsync              skip fsync on block appends (tests only)\n"
         "\n"
         "merge --elastic reads the campaign from each DIR (spec.json + compacted.ckpt\n"
         "+ block logs). Directories of one spec, say one per shard, fold together,\n"
         "deduplicated by (cell, block); the report is byte-identical to a single-\n"
         "machine run. --partial emits a stamped JSON coverage snapshot of a still-\n"
         "running campaign instead of requiring completion.\n";
  return 2;
}

ShardSpec parse_shard_arg(const std::string& s) {
  unsigned index = 0;
  unsigned count = 0;
  char tail = '\0';
  if (std::sscanf(s.c_str(), "%u/%u%c", &index, &count, &tail) != 2 || count == 0) {
    std::cerr << "ftdb_campaign: --shard wants I/N (e.g. 0/4), got \"" << s << "\"\n";
    std::exit(2);
  }
  return {index, count};
}

/// Most worker threads --threads accepts.
constexpr std::uint64_t kMaxThreads = 1024;
/// Longest --lease-ttl: a year. Stamps add it to a wall-clock second count.
constexpr std::uint64_t kMaxLeaseTtl = 365ULL * 24 * 3600;

[[noreturn]] void bad_value(const std::string& flag, const std::string& text,
                            const std::string& wanted) {
  std::cerr << "ftdb_campaign: " << flag << " wants " << wanted << ", got \"" << text << "\"\n";
  std::exit(2);
}

/// `text` as a decimal integer in [lo, hi], with nothing before or after
/// it; anything else exits 2 naming `flag`.
std::uint64_t parse_count(const std::string& flag, const std::string& text, std::uint64_t lo,
                          std::uint64_t hi) {
  std::uint64_t value = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (text.empty() || ec != std::errc{} || ptr != end || value < lo || value > hi) {
    bad_value(flag, text, "an integer in [" + std::to_string(lo) + ", " + std::to_string(hi) + "]");
  }
  return value;
}

/// `text` as a finite, non-negative number of seconds, with nothing before
/// or after it; anything else exits 2 naming `flag`.
double parse_seconds(const std::string& flag, const std::string& text) {
  double value = 0.0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (text.empty() || ec != std::errc{} || ptr != end || !std::isfinite(value) || value < 0.0) {
    bad_value(flag, text, "a finite, non-negative number of seconds");
  }
  return value;
}

/// Writes the three report renderings. An empty out_path sends the JSON to
/// stdout.
void emit_reports(const CampaignResult& result, const std::string& out_path,
                  const std::string& csv_path, const std::string& md_path) {
  const std::string report = campaign_report_json(result);
  if (out_path.empty()) {
    std::cout << report;
  } else {
    write_file_atomically(out_path, report, false);
  }
  if (!csv_path.empty()) write_file_atomically(csv_path, campaign_report_csv(result), false);
  if (!md_path.empty()) write_file_atomically(md_path, campaign_report_markdown(result), false);
}

int run_command(const std::vector<std::string>& args) {
  std::string spec_path;
  std::string out_path;
  std::string csv_path;
  std::string md_path;
  CampaignOptions options;
  elastic::ElasticOptions elastic;
  bool quiet = false;

  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    auto next = [&]() -> const std::string& {
      if (i + 1 >= args.size()) {
        std::cerr << "ftdb_campaign: " << arg << " requires an argument\n";
        std::exit(2);
      }
      return args[++i];
    };
    if (arg == "--spec") {
      spec_path = next();
    } else if (arg == "--out") {
      out_path = next();
    } else if (arg == "--csv") {
      csv_path = next();
    } else if (arg == "--md") {
      md_path = next();
    } else if (arg == "--threads") {
      options.threads = static_cast<unsigned>(parse_count(arg, next(), 0, kMaxThreads));
    } else if (arg == "--checkpoint") {
      options.checkpoint_path = next();
    } else if (arg == "--checkpoint-every") {
      options.checkpoint_every_seconds = parse_seconds(arg, next());
    } else if (arg == "--resume") {
      options.resume = true;
    } else if (arg == "--shard") {
      elastic.shard = parse_shard_arg(next());
    } else if (arg == "--stop-after-blocks") {
      options.stop_after_blocks = parse_count(arg, next(), 0, UINT64_MAX);
    } else if (arg == "--elastic") {
      elastic.dir = next();
    } else if (arg == "--worker-id") {
      elastic.worker_id = next();
    } else if (arg == "--lease-ttl") {
      elastic.lease_ttl_seconds = parse_count(arg, next(), 1, kMaxLeaseTtl);
    } else if (arg == "--no-fsync") {
      elastic.fsync = false;
    } else if (arg == "--quiet") {
      quiet = true;
    } else {
      std::cerr << "ftdb_campaign: unknown option " << arg << "\n";
      return usage();
    }
  }
  if (spec_path.empty()) {
    std::cerr << "ftdb_campaign: run needs --spec\n";
    return usage();
  }
  if (elastic.dir.empty() && !elastic.shard.whole_campaign()) {
    std::cerr << "ftdb_campaign: --shard needs --elastic DIR (a shard is an elastic worker "
                 "restricted to its cells; `merge --elastic` combines the directories)\n";
    return usage();
  }
  if (!elastic.dir.empty()) {
    if (!options.checkpoint_path.empty() || options.resume) {
      std::cerr << "ftdb_campaign: --elastic has its own checkpointing; it excludes "
                   "--checkpoint and --resume\n";
      return usage();
    }
    if (!(out_path.empty() && csv_path.empty() && md_path.empty())) {
      std::cerr << "ftdb_campaign: --elastic does not emit reports; run `merge --elastic` "
                   "on the directory instead\n";
      return usage();
    }
    elastic.threads = options.threads;
    elastic.stop_after_blocks = options.stop_after_blocks;
    if (!quiet) elastic.progress = &std::cerr;
    const ScenarioSpec spec = parse_scenario_spec(read_file(spec_path));
    try {
      const elastic::ElasticResult r = run_elastic_worker(spec, elastic);
      if (!quiet) {
        std::cerr << "elastic worker done: " << r.blocks_run << " blocks run, "
                  << r.blocks_skipped << " already durable, " << r.cells_leased
                  << " cells leased, " << r.leases_reclaimed << " stale leases reclaimed";
        if (r.campaign_complete) {
          std::cerr << (elastic.shard.whole_campaign()
                            ? "; campaign complete"
                            : "; shard " + elastic.shard.label() + " complete");
        }
        std::cerr << "\n";
      }
    } catch (const elastic::ElasticAborted& aborted) {
      std::cerr << "ftdb_campaign: " << aborted.what() << "; durable blocks stay in "
                << elastic.dir << "\n";
      return 3;
    }
    return 0;
  }
  if (options.stop_after_blocks != 0 && options.checkpoint_path.empty()) {
    std::cerr << "ftdb_campaign: --stop-after-blocks needs --checkpoint (aborting without one "
                 "would just discard the completed blocks)\n";
    return usage();
  }
  if (!quiet) options.progress = &std::cerr;
  // Refuse a report path the final write would refuse before any trial runs.
  for (const std::string* path : {&out_path, &csv_path, &md_path}) {
    if (!path->empty()) ftdb::serve::check_replaceable(*path);
  }

  const ScenarioSpec spec = parse_scenario_spec(read_file(spec_path));
  CampaignResult result;
  try {
    result = run_campaign(spec, options);
  } catch (const CampaignAborted& aborted) {
    std::cerr << "ftdb_campaign: " << aborted.what() << "; checkpoint "
              << options.checkpoint_path << " is resumable\n";
    return 3;
  }

  emit_reports(result, out_path, csv_path, md_path);
  if (!quiet) {
    std::cerr << "campaign \"" << spec.name << "\": " << result.scenarios.size()
              << " scenarios x " << spec.trials << " trials done";
    if (result.resumed_scenarios > 0 || result.resumed_blocks > 0) {
      std::cerr << " (" << result.resumed_scenarios << " scenarios / " << result.resumed_blocks
                << " blocks resumed from checkpoint)";
    }
    std::cerr << "\n";
  }
  return 0;
}

int merge_command(const std::vector<std::string>& args) {
  std::string spec_path;
  std::string out_path;
  std::string csv_path;
  std::string md_path;
  std::vector<std::string> dirs;
  bool elastic = false;
  bool partial_snapshot = false;

  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    auto next = [&]() -> const std::string& {
      if (i + 1 >= args.size()) {
        std::cerr << "ftdb_campaign: " << arg << " requires an argument\n";
        std::exit(2);
      }
      return args[++i];
    };
    if (arg == "--spec") {
      spec_path = next();
    } else if (arg == "--out") {
      out_path = next();
    } else if (arg == "--csv") {
      csv_path = next();
    } else if (arg == "--md") {
      md_path = next();
    } else if (arg == "--elastic") {
      elastic = true;
      dirs.push_back(next());
    } else if (arg == "--partial") {
      partial_snapshot = true;
    } else if (!arg.empty() && arg[0] == '-') {
      std::cerr << "ftdb_campaign: unknown option " << arg << "\n";
      return usage();
    } else {
      dirs.push_back(arg);
    }
  }
  if (!elastic) {
    std::cerr << "ftdb_campaign: merge reads elastic directories: merge --elastic DIR [DIR...]\n";
    return usage();
  }
  // The directories carry their own canonical spec; an explicit --spec just
  // has to agree with it.
  const ScenarioSpec spec = elastic::load_elastic_spec(dirs.front());
  if (!spec_path.empty() &&
      spec_fingerprint(parse_scenario_spec(read_file(spec_path))) != spec_fingerprint(spec)) {
    std::cerr << "ftdb_campaign: --spec disagrees with " << dirs.front() << "/spec.json\n";
    return 1;
  }
  if (partial_snapshot) {
    if (!csv_path.empty() || !md_path.empty()) {
      std::cerr << "ftdb_campaign: --partial emits the JSON snapshot only\n";
      return usage();
    }
    const std::string report = elastic::partial_elastic_report_json(spec, dirs);
    if (out_path.empty()) {
      std::cout << report;
    } else {
      write_file_atomically(out_path, report, false);
    }
    return 0;
  }
  const CampaignResult result = elastic::merge_elastic(spec, dirs);
  emit_reports(result, out_path, csv_path, md_path);
  std::cerr << "merged " << dirs.size() << " elastic dir(s): " << result.scenarios.size()
            << " scenarios x " << spec.trials << " trials\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  std::vector<std::string> args(argv + 2, argv + argc);
  try {
    if (cmd == "example-spec" && args.empty()) {
      std::cout << example_spec_json();
      return 0;
    }
    if (cmd == "example-spec" && args.size() == 1 && args[0] == "--full") {
      // The kitchen-sink spec: every family, fault model, metric and traffic
      // knob (see docs/SCENARIOS.md). CI round-trips it through validate-spec.
      std::cout << full_example_spec_json();
      return 0;
    }
    if (cmd == "validate-spec" && args.size() == 1) {
      const ScenarioSpec spec = parse_scenario_spec(read_file(args[0]));
      // The canonical form must be a fixed point: parse -> write -> parse ->
      // write yields the same bytes (and hence the same fingerprint), or
      // checkpoints and elastic directories could never agree on the stamp.
      const std::string canon = scenario_spec_to_json(spec);
      const ScenarioSpec again = parse_scenario_spec(canon);
      if (scenario_spec_to_json(again) != canon) {
        std::cerr << "ftdb_campaign: " << args[0]
                  << ": canonical spec form is not a round-trip fixed point\n";
        return 1;
      }
      const std::size_t cells = expand_grid(spec).size();
      char fp[32];
      std::snprintf(fp, sizeof fp, "%016llx",
                    static_cast<unsigned long long>(spec_fingerprint(spec)));
      std::cout << args[0] << ": valid campaign spec \"" << spec.name << "\", " << cells
                << " cells x " << spec.trials << " trials, fingerprint " << fp << "\n";
      return 0;
    }
    if (cmd == "validate" && args.size() == 1) {
      const std::size_t n = validate_campaign_report(read_file(args[0]));
      std::cout << args[0] << ": valid ftdb-campaign-v1 report, " << n << " scenarios\n";
      return 0;
    }
    if (cmd == "run") return run_command(args);
    if (cmd == "merge") return merge_command(args);
  } catch (const std::exception& e) {
    std::cerr << "ftdb_campaign: " << e.what() << "\n";
    return 1;
  }
  return usage();
}
