#include "campaign/report.hpp"

#include <cmath>
#include <cstdio>
#include <sstream>
#include <stdexcept>

#include "analysis/bench_json.hpp"
#include "analysis/table.hpp"

namespace ftdb::campaign {

using analysis::JsonValue;
using analysis::JsonWriter;

namespace {

std::string fmt(double v, int precision = 4) {
  if (!std::isfinite(v)) return "-";
  return analysis::fmt_double(v, precision);
}

/// Mean of a streaming accumulator, or "-" when it saw no samples.
std::string fmt_mean(const StreamingStats& s, int precision = 2) {
  return s.count == 0 ? "-" : analysis::fmt_double(s.mean, precision);
}

/// RFC-4180 quoting: wrap when the cell holds a comma/quote/newline.
std::string csv_quote(const std::string& s) {
  if (s.find_first_of(",\"\n") == std::string::npos) return s;
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
  return out;
}

std::string csv_num(double v) {
  if (!std::isfinite(v)) return "";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// A StreamingStats mean or max; empty when it saw no samples.
std::string csv_mean(const StreamingStats& s) { return s.count == 0 ? "" : csv_num(s.mean); }
std::string csv_max(const StreamingStats& s) { return s.count == 0 ? "" : csv_num(s.max); }

/// The slowdown-vs-fault-count curve as one cell: "f:mean" pairs joined
/// with ';' ("f:-" when every run at that fault count was unreachable).
std::string csv_slowdown_curve(const ScenarioResult& r) {
  std::string curve;
  for (const SlowdownPoint& p : r.slowdown_curve) {
    if (!curve.empty()) curve += ';';
    curve += std::to_string(p.faults) + ':';
    curve += p.trials > p.unreachable ? csv_num(p.mean_slowdown()) : "-";
  }
  return csv_quote(curve);
}

/// One CSV column: its header and how a scenario renders into it.
struct CsvColumn {
  const char* header;
  std::string (*cell)(const ScenarioResult&);
};

using R = ScenarioResult;
using std::to_string;
const CsvColumn kCsvColumns[] = {
    {"scenario_index", [](const R& r) { return to_string(r.scenario_index); }},
    {"label", [](const R& r) { return csv_quote(r.label); }},
    {"target_nodes", [](const R& r) { return to_string(r.target_nodes); }},
    {"fabric_nodes", [](const R& r) { return to_string(r.fabric_nodes); }},
    {"target_diameter", [](const R& r) { return to_string(r.target_diameter); }},
    {"trials", [](const R& r) { return to_string(r.trials); }},
    {"reconfig_success", [](const R& r) { return to_string(r.reconfig_success); }},
    {"success_rate", [](const R& r) { return csv_num(r.success_rate()); }},
    {"wilson95_lo", [](const R& r) { return csv_num(r.success_ci().lo); }},
    {"wilson95_hi", [](const R& r) { return csv_num(r.success_ci().hi); }},
    {"analytic_survival", [](const R& r) { return csv_num(r.analytic_survival); }},
    {"over_budget", [](const R& r) { return to_string(r.over_budget); }},
    {"mean_faults", [](const R& r) { return csv_num(r.fault_count.mean); }},
    {"reconfigured_diameter_mean", [](const R& r) { return csv_mean(r.reconfigured_diameter); }},
    {"degraded_diameter_mean", [](const R& r) { return csv_mean(r.degraded_diameter); }},
    {"degraded_disconnected", [](const R& r) { return to_string(r.degraded_disconnected); }},
    {"route_stretch_max", [](const R& r) { return csv_max(r.route_stretch); }},
    {"mttf_mean", [](const R& r) { return csv_mean(r.mttf); }},
    {"analytic_mttf", [](const R& r) { return csv_num(r.analytic_mttf); }},
    {"mttf_censored", [](const R& r) { return to_string(r.mttf_censored); }},
    {"collective_rounds", [](const R& r) { return to_string(r.collective_rounds); }},
    {"collective_baseline_cycles",
     [](const R& r) { return to_string(r.collective_baseline_cycles); }},
    {"collective_slowdown_mean", [](const R& r) { return csv_mean(r.collective_slowdown); }},
    {"collective_unreachable", [](const R& r) { return to_string(r.collective_unreachable); }},
    {"collective_hop_cycles_mean", [](const R& r) { return csv_mean(r.collective_hop_cycles); }},
    {"collective_congestion_max", [](const R& r) { return csv_max(r.collective_congestion); }},
    {"bus_fault_mean", [](const R& r) { return csv_mean(r.bus_fault_count); }},
    {"traffic_delivered_mean", [](const R& r) { return csv_mean(r.traffic_delivered); }},
    {"traffic_latency_mean", [](const R& r) { return csv_mean(r.traffic_latency); }},
    {"traffic_congestion_max", [](const R& r) { return csv_max(r.traffic_congestion); }},
    {"traffic_timed_out", [](const R& r) { return to_string(r.traffic_timed_out); }},
    {"slowdown_by_faults", csv_slowdown_curve},
};

}  // namespace

CampaignResult merge_checkpoints(const ScenarioSpec& spec,
                                 const std::vector<Checkpoint>& partials) {
  if (partials.empty()) throw std::runtime_error("campaign merge: no partials given");
  const std::vector<ScenarioCase> cells = expand_grid(spec);
  const std::uint64_t spec_fp = spec_fingerprint(spec);
  const std::uint64_t total_blocks = num_trial_blocks(spec.trials);

  CampaignResult result;
  result.spec = spec;
  result.scenarios.resize(cells.size());
  std::vector<bool> seen(cells.size(), false);

  for (std::size_t p = 0; p < partials.size(); ++p) {
    const Checkpoint& ckpt = partials[p];
    const std::string who = "partial " + std::to_string(p) + " (shard " + ckpt.shard.label() + ")";
    if (ckpt.fingerprint != spec_fp) {
      throw std::runtime_error("campaign merge: " + who +
                               " was produced by a different spec (fingerprint mismatch)");
    }
    if (ckpt.shard_stamp != shard_fingerprint(spec, ckpt.shard)) {
      throw std::runtime_error("campaign merge: " + who +
                               " carries a shard stamp that does not match its coordinates");
    }
    for (const CellProgress& cp : ckpt.cells) {
      if (cp.scenario_index >= cells.size()) {
        throw std::runtime_error("campaign merge: " + who + " has scenario index " +
                                 std::to_string(cp.scenario_index) + " outside the grid");
      }
      if (!ckpt.shard.owns(cp.scenario_index)) {
        throw std::runtime_error("campaign merge: " + who + " contains cell " +
                                 std::to_string(cp.scenario_index) + " it does not own");
      }
      if (seen[cp.scenario_index]) {
        throw std::runtime_error("campaign merge: overlapping shards — cell " +
                                 std::to_string(cp.scenario_index) +
                                 " appears in more than one partial");
      }
      if (cp.prefix_blocks != total_blocks) {
        throw std::runtime_error("campaign merge: " + who + " cell " +
                                 std::to_string(cp.scenario_index) + " is incomplete (" +
                                 std::to_string(cp.prefix_blocks) + "/" +
                                 std::to_string(total_blocks) + " blocks)");
      }
      // A cell can claim all its blocks yet carry a truncated accumulator
      // (torn write, hand-mangled file); the same invariants resume checks.
      check_cell_progress(cp, spec.trials, "campaign merge: " + who);
      seen[cp.scenario_index] = true;
      result.scenarios[cp.scenario_index] = cp.prefix;
    }
  }
  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (!seen[i]) {
      throw std::runtime_error("campaign merge: cell " + std::to_string(i) + " (" +
                               cells[i].label() + ") is covered by no partial");
    }
  }
  return result;
}

std::string campaign_report_json(const CampaignResult& result) {
  JsonWriter w;
  w.begin_object();
  w.key("schema").value("ftdb-campaign-v1");
  w.key("spec");
  write_scenario_spec(w, result.spec);
  // Run telemetry (thread count, resumed-scenario count) stays out of the
  // document on purpose: the report must be byte-identical across thread
  // counts and checkpoint/resume boundaries.
  w.key("scenarios").begin_array();
  for (const ScenarioResult& r : result.scenarios) write_scenario_result(w, r);
  w.end_array();
  w.end_object();
  return w.str();
}

std::string campaign_report_csv(const CampaignResult& result) {
  std::string out;
  const auto row = [&](const auto& text_of) {
    for (const CsvColumn& c : kCsvColumns) {
      if (&c != kCsvColumns) out += ',';
      out += text_of(c);
    }
    out += '\n';
  };
  row([](const CsvColumn& c) { return std::string(c.header); });
  for (const ScenarioResult& r : result.scenarios) {
    row([&](const CsvColumn& c) { return c.cell(r); });
  }
  return out;
}

std::string campaign_report_markdown(const CampaignResult& result) {
  std::ostringstream out;
  out << "# Campaign: " << result.spec.name << "\n\n"
      << "seed " << result.spec.seed << ", " << result.spec.trials
      << " trials per scenario, " << result.scenarios.size() << " scenarios\n\n";
  analysis::Table t({"scenario", "trials", "ok", "rate", "wilson 95%", "analytic",
                     "E[faults]", "diam", "mttf", "analytic mttf", "slowdown", "delivered"});
  for (const ScenarioResult& r : result.scenarios) {
    const WilsonInterval ci = r.success_ci();
    t.add_row({r.label, analysis::fmt_u64(r.trials), analysis::fmt_u64(r.reconfig_success),
               fmt(r.success_rate()),
               "[" + fmt(ci.lo) + ", " + fmt(ci.hi) + "]",
               fmt(r.analytic_survival), fmt_mean(r.fault_count),
               fmt_mean(r.reconfigured_diameter), fmt_mean(r.mttf, 1),
               fmt(r.analytic_mttf, 1), fmt_mean(r.collective_slowdown, 4),
               fmt_mean(r.traffic_delivered, 4)});
  }
  out << t.render();
  // Survival curves: only scenarios where the curve has more than one point
  // say anything beyond the headline rate.
  out << "\n## Survival by drawn fault count\n\n";
  for (const ScenarioResult& r : result.scenarios) {
    if (r.survival_curve.size() < 2) continue;
    out << "- " << r.label << ":";
    for (const SurvivalPoint& p : r.survival_curve) {
      out << " " << p.faults << ":" << p.survived << "/" << p.trials;
    }
    out << "\n";
  }
  // Collective slowdown curves: the completion-time cost of the drawn fault
  // count, relative to the healthy baseline (1.0 = the dilation-1 claim).
  bool any_slowdown = false;
  for (const ScenarioResult& r : result.scenarios) any_slowdown |= !r.slowdown_curve.empty();
  if (any_slowdown) {
    out << "\n## Collective slowdown by drawn fault count\n\n";
    for (const ScenarioResult& r : result.scenarios) {
      if (r.slowdown_curve.empty()) continue;
      out << "- " << r.label << " (" << r.collective_rounds << " rounds, baseline "
          << r.collective_baseline_cycles << " cycles):";
      for (const SlowdownPoint& p : r.slowdown_curve) {
        out << " " << p.faults << ":";
        if (p.trials > p.unreachable) {
          out << fmt(p.mean_slowdown(), 3);
        } else {
          out << "-";
        }
        if (p.unreachable > 0) out << "(" << p.unreachable << " unreachable)";
      }
      out << "\n";
    }
  }
  return out.str();
}

std::size_t validate_campaign_report(const std::string& json_text) {
  const JsonValue doc = analysis::json_parse(json_text);
  const JsonValue* schema = doc.find("schema");
  if (schema == nullptr || schema->string != "ftdb-campaign-v1") {
    throw std::runtime_error("not an ftdb-campaign-v1 document");
  }
  const JsonValue& spec = doc.at("spec");
  if (spec.kind != JsonValue::Kind::Object) throw std::runtime_error("spec must be an object");
  const JsonValue& scenarios = doc.at("scenarios");
  if (scenarios.kind != JsonValue::Kind::Array || scenarios.array.empty()) {
    throw std::runtime_error("scenarios must be a non-empty array");
  }
  // Partial documents (elastic `merge --partial`) legitimately carry cells no
  // worker has touched yet; everything else about them must still validate.
  const JsonValue* partial = doc.find("partial");
  const bool is_partial = partial != nullptr && partial->kind == JsonValue::Kind::Bool &&
                          partial->boolean;
  for (const JsonValue& s : scenarios.array) {
    // parse_scenario_result throws on any missing/mistyped field.
    const ScenarioResult r = parse_scenario_result(s);
    if (r.trials == 0 && !is_partial) throw std::runtime_error("scenario with zero trials");
    if (r.reconfig_success > r.trials) {
      throw std::runtime_error("scenario with more successes than trials");
    }
    std::uint64_t curve_trials = 0;
    for (const SurvivalPoint& p : r.survival_curve) curve_trials += p.trials;
    if (curve_trials != r.trials) {
      throw std::runtime_error("survival curve does not partition the trials");
    }
    std::uint64_t coll_trials = 0;
    std::uint64_t coll_unreachable = 0;
    for (const SlowdownPoint& p : r.slowdown_curve) {
      if (p.unreachable > p.trials) {
        throw std::runtime_error("slowdown curve point with more unreachable runs than trials");
      }
      coll_trials += p.trials;
      coll_unreachable += p.unreachable;
    }
    if (coll_trials > r.trials) {
      throw std::runtime_error("slowdown curve covers more trials than the scenario ran");
    }
    if (coll_unreachable != r.collective_unreachable) {
      throw std::runtime_error("slowdown curve unreachable count does not match the total");
    }
    for (const ResultField& f : result_fields()) {
      if (f.kind == ResultField::Kind::Stats && (r.*f.stats).count > r.trials) {
        throw std::runtime_error(std::string(f.key) +
                                 " stats cover more trials than the scenario ran");
      }
    }
    if (r.traffic_latency.count > r.traffic_delivered.count) {
      throw std::runtime_error("traffic latency samples exceed the trials that ran traffic");
    }
  }
  return scenarios.array.size();
}

}  // namespace ftdb::campaign
