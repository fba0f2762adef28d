#include "campaign/elastic/partial.hpp"

#include <stdexcept>

#include "analysis/bench_json.hpp"

namespace ftdb::campaign::elastic {

using analysis::JsonWriter;

CampaignResult merge_elastic(const ScenarioSpec& spec, const std::vector<std::string>& dirs) {
  const std::vector<ScenarioCase> cells = expand_grid(spec);
  const std::uint64_t total_blocks = num_trial_blocks(spec.trials);
  TargetTable targets(spec, cells);
  ElasticProgress progress = load_elastic_progress(spec, dirs, &targets);

  CampaignResult result;
  result.spec = spec;
  result.scenarios.resize(cells.size());
  for (std::size_t i = 0; i < cells.size(); ++i) {
    CellProgress& cp = progress.cells[i];
    if (cp.prefix_blocks != total_blocks) {
      throw std::runtime_error("elastic merge: cell " + std::to_string(i) + " (" +
                               cells[i].label() + ") is incomplete (" +
                               std::to_string(cp.prefix_blocks) + "/" +
                               std::to_string(total_blocks) +
                               " blocks durable) — use merge --partial for a live snapshot");
    }
    if (cp.prefix.trials != spec.trials) {
      throw std::runtime_error("elastic merge: cell " + std::to_string(i) + " carries " +
                               std::to_string(cp.prefix.trials) + " trials, expected " +
                               std::to_string(spec.trials));
    }
    result.scenarios[i] = std::move(cp.prefix);
  }
  return result;
}

std::string partial_elastic_report_json(const ScenarioSpec& spec,
                                        const std::vector<std::string>& dirs) {
  const std::vector<ScenarioCase> cells = expand_grid(spec);
  const std::uint64_t total_blocks = num_trial_blocks(spec.trials);
  // Completed cells come back finalized, exactly as the final report has them.
  TargetTable targets(spec, cells);
  ElasticProgress progress = load_elastic_progress(spec, dirs, &targets);

  std::uint64_t completed_trials = 0;
  std::uint64_t cells_complete = 0;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    CellProgress& cp = progress.cells[i];
    completed_trials += cp.prefix.trials;
    for (const auto& [block, partial] : cp.extra) completed_trials += partial.trials;
    if (cp.prefix_blocks == total_blocks) {
      ++cells_complete;
    } else {
      // Incomplete cells: raw accumulators over the completed prefix, plus
      // the cheap identity fields (no graphs get built for a live snapshot).
      cp.prefix.scenario_index = i;
      cp.prefix.label = cells[i].label();
      cp.prefix.target_nodes = cells[i].topology.target_nodes();
    }
  }
  const std::uint64_t total_trials = spec.trials * static_cast<std::uint64_t>(cells.size());

  JsonWriter w;
  w.begin_object();
  w.key("schema").value("ftdb-campaign-v1");
  w.key("partial").value(true);
  w.key("coverage").begin_object();
  w.key("completed_trials").value(completed_trials);
  w.key("total_trials").value(total_trials);
  w.key("fraction");
  w.value(total_trials == 0 ? 0.0
                            : static_cast<double>(completed_trials) /
                                  static_cast<double>(total_trials));
  w.key("cells_complete").value(cells_complete);
  w.key("cells_total").value(static_cast<std::uint64_t>(cells.size()));
  w.key("cells").begin_array();
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const CellProgress& cp = progress.cells[i];
    std::uint64_t cell_trials = cp.prefix.trials;
    for (const auto& [block, partial] : cp.extra) cell_trials += partial.trials;
    w.begin_object();
    w.key("scenario_index").value(static_cast<std::uint64_t>(i));
    w.key("completed_trials").value(cell_trials);
    w.key("total_trials").value(spec.trials);
    w.key("completed_blocks").value(cp.prefix_blocks + static_cast<std::uint64_t>(cp.extra.size()));
    w.key("total_blocks").value(total_blocks);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  w.key("spec");
  write_scenario_spec(w, spec);
  // "scenarios" stays exactly v1-shaped: every grid cell present, in grid
  // order, serialized by the same writer the final report uses — so a
  // completed cell's object here is a byte-identical substring of the final
  // report. Only the merged prefix is reported; out-of-order extra blocks
  // count toward coverage but stay out of the accumulators (they would make
  // the "which trials" story ambiguous).
  w.key("scenarios").begin_array();
  for (const CellProgress& cp : progress.cells) write_scenario_result(w, cp.prefix);
  w.end_array();
  w.end_object();
  return w.str();
}

}  // namespace ftdb::campaign::elastic
