#include "analysis/bench_compare.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <initializer_list>
#include <optional>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "analysis/bench_json.hpp"
#include "analysis/bench_runner.hpp"

namespace ftdb::analysis {
namespace {

/// Seeded metrics (cycle counts, makespans, success rates) repeat exactly
/// for the same code; the tolerance only absorbs decimal round-trips.
constexpr double kMetricTolerance = 1e-9;

void usage(std::ostream& out) {
  out << "usage: bench_compare BASE.json NEW.json [options]\n"
      << "       bench_compare --validate BENCH.json...\n"
      << "       bench_compare --gates GATES.json HEAD.json... [vs PARENT.json...]\n"
      << "  --filter SUBSTR       only compare benchmarks whose name contains SUBSTR\n"
      << "  --threshold R         flag a regression when new > R * base (default 1.15;\n"
      << "                        R must be a finite number above 0)\n"
      << "  --fail-on-drift       exit 1 on metric drift too, not just wall regressions\n"
      << "\n"
      << "BASE NEW prints a markdown table of wall-time minima (speedup = base/new;\n"
      << ">1 is faster) plus a semantic drift section diffing the *reported metrics*\n"
      << "(cycle counts, makespans, success rates...) of shared benchmarks. Wall times\n"
      << "and ns_per_* metrics are gated only when both files carry the same machine\n"
      << "stamp. Exits 1 when a shared benchmark regressed beyond the threshold or no\n"
      << "benchmark is shared.\n"
      << "\n"
      << "--gates evaluates every gate in GATES.json: head and pin gates in each HEAD\n"
      << "pass, head-vs-parent gates on the median over the pass pairs of HEAD/PARENT\n"
      << "(the i-th HEAD and PARENT passes form a pair). Exits 1 when any gate fails.\n";
}

struct Sample {
  std::string name;
  bool ok = false;
  double wall = 0.0;  // wall_seconds.min: the least disturbed repetition
  std::vector<std::pair<std::string, double>> metrics;  // insertion order

  const double* metric(const std::string& key) const {
    for (const auto& [k, v] : metrics) {
      if (k == key) return &v;
    }
    return nullptr;
  }
};

/// One bench_runner run: one pass.
struct Run {
  std::optional<MachineStamp> machine;  // absent in files older than the stamp
  std::vector<Sample> benches;

  const Sample* find(const std::string& name) const {
    const auto it = std::find_if(benches.begin(), benches.end(),
                                 [&](const Sample& s) { return s.name == name; });
    return it == benches.end() ? nullptr : &*it;
  }
};

bool matches(const std::string& name, const std::string& filter) {
  return name.find(filter) != std::string::npos;
}

/// Timing-valued metrics (per-hop / per-step nanosecond rates) vary with the
/// machine like wall times do, so they are gated like wall times, not held to
/// the exact-match bar of seeded metrics.
bool is_timing_metric(const std::string& key) { return key.rfind("ns_per_", 0) == 0; }

/// The passes of one side of a comparison. Pass i of one side ran back to
/// back with pass i of the other, so the two form a pair.
using Passes = std::vector<Run>;

/// True when every pass of both sides carries one and the same stamp.
bool same_machine(const Passes& a, const Passes& b) {
  const std::optional<MachineStamp>& m = a.front().machine;
  const auto stamped = [&](const Run& r) { return m.has_value() && r.machine == m; };
  return std::all_of(a.begin(), a.end(), stamped) && std::all_of(b.begin(), b.end(), stamped);
}

const std::string& string_at(const JsonValue& obj, const std::string& key) {
  const JsonValue& v = obj.at(key);
  if (v.kind != JsonValue::Kind::String) throw std::runtime_error(key + " is not a string");
  return v.string;
}

std::optional<JsonValue> read_json(const std::string& path, std::ostream& err) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    err << "bench_compare: cannot open " << path << "\n";
    return std::nullopt;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  try {
    return json_parse(buf.str());
  } catch (const std::exception& e) {
    err << "bench_compare: " << path << ": " << e.what() << "\n";
    return std::nullopt;
  }
}

/// Reads a well-formed ftdb-bench-v1 document: schema stamp, an optional
/// machine stamp, and name/ok per benchmark with all three wall statistics
/// on ok entries. Only the minimum is compared.
std::optional<Run> load_run(const std::string& path, std::ostream& err) {
  const std::optional<JsonValue> doc = read_json(path, err);
  if (!doc) return std::nullopt;
  const JsonValue* schema = doc->find("schema");
  if (schema == nullptr || schema->string != "ftdb-bench-v1") {
    err << "bench_compare: " << path << " is not an ftdb-bench-v1 document\n";
    return std::nullopt;
  }
  try {
    Run run;
    if (const JsonValue* m = doc->find("machine")) {
      run.machine = MachineStamp{string_at(*m, "cpu_model"), json_uint_at(*m, "nproc"),
                                 string_at(*m, "compiler"), string_at(*m, "build_type")};
    }
    for (const JsonValue& b : doc->at("benchmarks").array) {
      Sample s;
      s.name = string_at(b, "name");
      s.ok = b.at("ok").boolean;
      if (s.ok) {
        const JsonValue& wall = b.at("wall_seconds");
        s.wall = json_number(wall.at("min"), "wall_seconds.min");
        json_number(wall.at("mean"), "wall_seconds.mean");
        json_number(wall.at("max"), "wall_seconds.max");
        if (const JsonValue* metrics = b.find("metrics")) {
          for (const auto& [key, value] : metrics->object) {
            if (value.kind == JsonValue::Kind::Number) s.metrics.emplace_back(key, value.number);
          }
        }
      }
      run.benches.push_back(std::move(s));
    }
    return run;
  } catch (const std::exception& e) {
    err << "bench_compare: " << path << ": malformed bench document: " << e.what() << "\n";
    return std::nullopt;
  }
}

/// One timing of `bench` in every pass: its wall time when `key` is empty,
/// else the metric `key`. Empty when a pass lacks or failed the benchmark or
/// lacks the metric.
std::vector<double> timings(const Passes& passes, const std::string& bench,
                            const std::string& key) {
  std::vector<double> out;
  for (const Run& r : passes) {
    const Sample* s = r.find(bench);
    const double* v = s == nullptr || !s->ok ? nullptr : key.empty() ? &s->wall : s->metric(key);
    if (v == nullptr) return {};
    out.push_back(*v);
  }
  return out;
}

double median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid] : (values[mid - 1] + values[mid]) / 2.0;
}

/// One timing over the pass pairs: each side's median and the median of the
/// per-pair ratios new/base, which decides the verdict.
struct Paired {
  double base = 0.0, fresh = 0.0, ratio = 0.0;
};

Paired pair_up(const std::vector<double>& base, const std::vector<double>& fresh) {
  std::vector<double> ratios;
  for (std::size_t i = 0; i < base.size(); ++i) {
    ratios.push_back(base[i] > 0.0 ? fresh[i] / base[i] : fresh[i] > 0.0 ? HUGE_VAL : 1.0);
  }
  return {median(base), median(fresh), median(ratios)};
}

std::string fmt_fixed(double v, int precision) {
  std::ostringstream o;
  o.setf(std::ios::fixed);
  o.precision(precision);
  o << v;
  return o.str();
}

std::string fmt_ratio(double r) { return fmt_fixed(r, 2) + "x"; }

std::string fmt_g(double v, int precision) {
  std::ostringstream o;
  o.precision(precision);
  o << v;
  return o.str();
}

/// Benchmarks both sides ran (`shared`) and the entries that fail a check.
struct Tally {
  std::size_t shared = 0;
  std::size_t failures = 0;
};

/// Prints the wall-time and ns_per_* tables of the benchmarks matching
/// `filter`. Each timing is judged on the median over the pass pairs of
/// new/base: a slow spell hits both passes of a pair alike, and one outlier
/// pass on either side does not decide. A timing regresses when that median
/// exceeds `threshold`, but timings are gated only between runs stamped with
/// the same machine; otherwise they print as not comparable. A benchmark
/// that failed in a `fresh` pass always counts.
Tally compare_timings(const Passes& base, const Passes& fresh, const std::string& filter,
                      double threshold, std::ostream& out) {
  const bool comparable = same_machine(base, fresh);
  const char* const unjudged = "not comparable (different machine)";
  if (!comparable) out << "timings " << unjudged << ": shown, not gated\n\n";
  if (base.size() > 1) {
    out << "medians over " << base.size() << " pass pairs; speedup = 1 / median of new/base\n\n";
  }
  out << "| benchmark | base min (ms) | new min (ms) | speedup | status |\n"
      << "|---|---|---|---|---|\n";

  struct MetricRow {
    std::string bench, metric;
    Paired p;
  };
  std::vector<MetricRow> metric_rows;
  Tally tally;
  double log_sum = 0.0;
  std::size_t timed = 0;
  const auto verdict = [&](const Paired& p) {
    const bool regressed = comparable && p.ratio > threshold;
    if (regressed) ++tally.failures;
    const double speedup = p.ratio > 0.0 ? 1.0 / p.ratio : 0.0;
    return (speedup > 0.0 ? fmt_ratio(speedup) : "-") + " | " +
           (regressed ? "REGRESSION" : comparable ? "ok" : unjudged);
  };
  for (const Sample& b : base.front().benches) {
    if (!matches(b.name, filter)) continue;
    if (fresh.front().find(b.name) == nullptr) {
      out << "| " << b.name << " | " << fmt_fixed(b.wall * 1e3, 3) << " | - | - | removed |\n";
      continue;
    }
    ++tally.shared;
    const std::vector<double> base_wall = timings(base, b.name, "");
    const std::vector<double> fresh_wall = timings(fresh, b.name, "");
    if (base_wall.empty() || fresh_wall.empty()) {
      out << "| " << b.name << " | - | - | - | " << (fresh_wall.empty() ? "FAILED" : "base failed")
          << " |\n";
      if (fresh_wall.empty()) ++tally.failures;
      continue;
    }
    const Paired p = pair_up(base_wall, fresh_wall);
    if (p.ratio > 0.0 && std::isfinite(p.ratio)) {
      log_sum -= std::log(p.ratio);
      ++timed;
    }
    out << "| " << b.name << " | " << fmt_fixed(p.base * 1e3, 3) << " | "
        << fmt_fixed(p.fresh * 1e3, 3) << " | " << verdict(p) << " |\n";
    for (const auto& [key, value] : b.metrics) {
      if (!is_timing_metric(key)) continue;
      const std::vector<double> bv = timings(base, b.name, key);
      const std::vector<double> nv = timings(fresh, b.name, key);
      if (!bv.empty() && !nv.empty()) metric_rows.push_back({b.name, key, pair_up(bv, nv)});
    }
  }
  for (const Sample& s : fresh.front().benches) {
    if (matches(s.name, filter) && base.front().find(s.name) == nullptr) {
      out << "| " << s.name << " | - | " << fmt_fixed(s.wall * 1e3, 3) << " | - | new |\n";
    }
  }
  const double geomean = timed > 0 ? std::exp(log_sum / static_cast<double>(timed)) : 1.0;
  out << "\ngeomean speedup over " << timed << " shared benchmarks: " << fmt_ratio(geomean)
      << " (threshold " << threshold << "x)\n";

  if (metric_rows.empty()) return tally;
  out << "\n## timing metrics (ns, threshold " << threshold << "x)\n\n"
      << "| benchmark | metric | base | new | speedup | status |\n"
      << "|---|---|---|---|---|---|\n";
  for (const MetricRow& r : metric_rows) {
    out << "| " << r.bench << " | " << r.metric << " | " << fmt_fixed(r.p.base, 2) << " | "
        << fmt_fixed(r.p.fresh, 2) << " | " << verdict(r.p) << " |\n";
  }
  return tally;
}

/// Diffs the seeded (non-ns_per_*) metrics of the benchmarks matching
/// `filter` that both runs ran. Wall times drift with the machine; a metric
/// change means the code computes something different. Every drifted, added
/// or removed metric, and every benchmark `fresh` failed, is a failure.
Tally metric_drift(const Run& base, const Run& fresh, const std::string& filter,
                   std::ostream& out) {
  struct Row {
    std::string bench, metric, base_v, new_v, status;
  };
  std::vector<Row> rows;
  Tally tally;
  std::size_t compared = 0;
  for (const Sample& b : base.benches) {
    const Sample* f = matches(b.name, filter) ? fresh.find(b.name) : nullptr;
    if (f == nullptr) continue;
    ++tally.shared;
    if (!f->ok) rows.push_back({b.name, "-", "-", "-", "FAILED"});
    if (!b.ok || !f->ok) continue;
    for (const auto& [key, bv] : b.metrics) {
      if (is_timing_metric(key)) continue;
      const double* nv = f->metric(key);
      if (nv == nullptr) {
        rows.push_back({b.name, key, fmt_g(bv, 17), "-", "removed"});
        continue;
      }
      ++compared;
      if (std::abs(*nv - bv) > kMetricTolerance * std::max(std::abs(bv), 1e-300)) {
        rows.push_back({b.name, key, fmt_g(bv, 17), fmt_g(*nv, 17), "DRIFT"});
      }
    }
    for (const auto& [key, nv] : f->metrics) {
      if (!is_timing_metric(key) && b.metric(key) == nullptr) {
        rows.push_back({b.name, key, "-", fmt_g(nv, 17), "new"});
      }
    }
  }
  tally.failures = rows.size();
  out << "\n## metric drift\n\n";
  if (rows.empty()) {
    out << "no semantic drift across " << compared << " shared metrics\n";
    return tally;
  }
  out << "| benchmark | metric | base | new | status |\n|---|---|---|---|---|\n";
  for (const Row& r : rows) {
    out << "| " << r.bench << " | " << r.metric << " | " << r.base_v << " | " << r.new_v << " | "
        << r.status << " |\n";
  }
  out << "\n" << rows.size() << " metric change" << (rows.size() == 1 ? "" : "s") << " across "
      << compared << " shared metrics\n";
  return tally;
}

/// A ratio bound from the command line: the whole text must be a finite
/// number above zero, so "nan" (which would turn every regression off),
/// "inf", "0", "-1" and "1.25x" are all refused.
std::optional<double> parse_ratio(const std::string& text) {
  if (text.empty() || std::isspace(static_cast<unsigned char>(text.front()))) return std::nullopt;
  char* end = nullptr;
  const double v = std::strtod(text.c_str(), &end);
  if (end != text.c_str() + text.size() || !std::isfinite(v) || v <= 0.0) return std::nullopt;
  return v;
}

// ----------------------------------------------------------------------------
// --gates
// ----------------------------------------------------------------------------

struct MetricRef {
  std::string bench, metric;
};

/// One entry of a gates file; see docs/FORMATS.md#benchgatesjson.
struct Gate {
  std::string kind;  // "head" | "ab" | "pin"
  // head: value = metric (/ over.metric), held to `op` bound.
  MetricRef value;
  std::optional<MetricRef> over;
  std::string op;     // head: "max" | "min" | "equals"
  double bound = 0.0;  // head: the op's bound; ab: the largest head/parent ratio
  // ab and pin: the benchmarks whose name contains `filter`.
  std::string filter;
  std::string file;           // pin: the committed run, as written in the gates file
  std::optional<Run> pinned;  // pin: that run
};

double number_at(const JsonValue& obj, const std::string& key) {
  return json_number(obj.at(key), key);
}

void check_keys(const JsonValue& obj, std::initializer_list<const char*> allowed) {
  for (const auto& member : obj.object) {
    const std::string& key = member.first;
    if (std::none_of(allowed.begin(), allowed.end(), [&](const char* a) { return key == a; })) {
      throw std::runtime_error("unknown key \"" + key + "\"");
    }
  }
}

MetricRef metric_ref(const JsonValue& obj) {
  check_keys(obj, {"bench", "metric"});
  return {string_at(obj, "bench"), string_at(obj, "metric")};
}

/// Parses one gate; throws std::runtime_error naming the problem. Unknown keys
/// are errors, so a misspelt bound cannot silently switch a gate off.
Gate parse_gate(const JsonValue& g, const std::filesystem::path& gates_dir, std::ostream& err) {
  Gate gate;
  gate.kind = string_at(g, "kind");
  if (gate.kind == "head") {
    check_keys(g, {"kind", "bench", "metric", "over", "max", "min", "equals"});
    gate.value = {string_at(g, "bench"), string_at(g, "metric")};
    if (const JsonValue* over = g.find("over")) gate.over = metric_ref(*over);
    for (const char* op : {"max", "min", "equals"}) {
      if (g.find(op) == nullptr) continue;
      if (!gate.op.empty()) throw std::runtime_error("more than one of max, min, equals");
      gate.op = op;
      gate.bound = number_at(g, op);
    }
    if (gate.op.empty()) throw std::runtime_error("needs one of max, min, equals");
  } else if (gate.kind == "ab") {
    check_keys(g, {"kind", "filter", "max"});
    gate.filter = string_at(g, "filter");
    gate.bound = number_at(g, "max");
    if (!(gate.bound > 0.0)) throw std::runtime_error("max must be above 0");
  } else if (gate.kind == "pin") {
    check_keys(g, {"kind", "filter", "file"});
    gate.filter = string_at(g, "filter");
    gate.file = string_at(g, "file");
    gate.pinned = load_run((gates_dir / gate.file).string(), err);
    if (!gate.pinned) throw std::runtime_error("cannot read " + gate.file);
  } else {
    throw std::runtime_error("unknown kind \"" + gate.kind + "\"");
  }
  if (gate.kind != "head" && gate.filter.empty()) throw std::runtime_error("empty filter");
  return gate;
}

std::string describe(const MetricRef& ref) { return ref.bench + " " + ref.metric; }

/// The head value a gate reads, or nullopt with `why` set.
std::optional<double> read_metric(const Run& head, const MetricRef& ref, std::string& why) {
  const Sample* s = head.find(ref.bench);
  if (s == nullptr) {
    why = ref.bench + " did not run";
  } else if (!s->ok) {
    why = ref.bench + " failed";
  } else if (const double* v = s->metric(ref.metric)) {
    return *v;
  } else {
    why = ref.bench + " reported no " + ref.metric;
  }
  return std::nullopt;
}

struct Verdict {
  std::string label, value, bound;
  bool pass = false;
  std::string details;  // per-benchmark tables of ab and pin gates
};

/// A head gate's value in one pass: the metric, or its ratio to the `over`
/// metric read from the same process. Nullopt with `why` set when unreadable.
std::optional<double> head_value(const Gate& gate, const Run& pass, std::string& why) {
  std::optional<double> value = read_metric(pass, gate.value, why);
  if (value && gate.over) {
    const std::optional<double> denom = read_metric(pass, *gate.over, why);
    if (denom && *denom > 0.0) {
      *value /= *denom;
    } else {
      if (denom) why = describe(*gate.over) + " is not positive";
      value.reset();
    }
  }
  return value;
}

/// Evaluates a head gate in every head pass. Every pass must yield a value;
/// an `equals` invariant must hold in each, and a `max`/`min` bound is judged
/// on the median over the passes, so one disturbed pass does not decide it.
Verdict evaluate_head(const Gate& gate, const Passes& passes) {
  Verdict v;
  v.label = describe(gate.value) + (gate.over ? " / " + describe(*gate.over) : "");
  v.bound = (gate.op == "max" ? "<= " : gate.op == "min" ? ">= " : "== ") + fmt_g(gate.bound, 6);
  const auto in_pass = [&](std::size_t i) {
    return passes.size() == 1 ? std::string() : " in pass " + std::to_string(i + 1);
  };
  std::vector<double> values;
  for (std::size_t i = 0; i < passes.size(); ++i) {
    std::string why;
    const std::optional<double> value = head_value(gate, passes[i], why);
    if (!value) {
      v.value = why + in_pass(i);
      return v;
    }
    if (gate.op == "equals" && *value != gate.bound) {
      v.value = fmt_g(*value, 4) + in_pass(i);
      return v;
    }
    values.push_back(*value);
  }
  const double judged = median(values);
  v.value = fmt_g(judged, 4);
  if (passes.size() > 1) v.value += " (median of " + std::to_string(passes.size()) + ")";
  v.pass = gate.op == "max" ? judged <= gate.bound : gate.op == "min" ? judged >= gate.bound : true;
  return v;
}

Verdict evaluate_ab(const Gate& gate, const Passes& head, const Passes& parent) {
  Verdict v;
  v.label = "head vs parent: " + gate.filter + " (wall min, ns_per_*)";
  v.bound = "<= " + fmt_g(gate.bound, 6) + "x parent";
  if (parent.empty()) {
    v.value = "no parent run given";
    return v;
  }
  std::ostringstream details;
  const Tally t = compare_timings(parent, head, gate.filter, gate.bound, details);
  v.details = details.str();
  if (!same_machine(parent, head)) {
    v.value = "not comparable (different machine)";
  } else if (t.shared == 0) {
    v.value = "no shared benchmarks";
  } else {
    v.value = std::to_string(t.failures) + " regressions over " + std::to_string(t.shared) +
              " benchmarks";
    v.pass = t.failures == 0;
  }
  return v;
}

/// Diffs every head pass against the pinned run; the report is the first
/// pass that fails, or the first pass when none does.
Verdict evaluate_pin(const Gate& gate, const Passes& passes) {
  Verdict v;
  v.label = "seeded metrics: " + gate.filter + " vs " + gate.file;
  v.bound = "exact";
  for (std::size_t i = 0; i < passes.size(); ++i) {
    std::ostringstream details;
    const Tally t = metric_drift(*gate.pinned, passes[i], gate.filter, details);
    v.pass = t.shared > 0 && t.failures == 0;
    if (i > 0 && v.pass) continue;
    v.details = details.str();
    v.value = t.shared == 0 ? "no shared benchmarks"
                            : std::to_string(t.failures) + " changes over " +
                                  std::to_string(t.shared) + " benchmarks";
    if (!v.pass) {
      if (passes.size() > 1) v.value += " in pass " + std::to_string(i + 1);
      break;
    }
  }
  return v;
}

/// --gates GATES.json HEAD.json... [vs PARENT.json...]
int evaluate_gates(const std::string& gates_path, const std::vector<std::string>& files,
                   std::ostream& out, std::ostream& err) {
  Passes head_runs, parent_runs;
  Passes* side = &head_runs;
  for (const std::string& path : files) {
    if (path == "vs" && side == &head_runs) {
      side = &parent_runs;
      continue;
    }
    std::optional<Run> run = load_run(path, err);
    if (!run) return 2;
    side->push_back(std::move(*run));
  }
  if (head_runs.empty() || (side == &parent_runs && parent_runs.size() != head_runs.size())) {
    err << "bench_compare: --gates needs HEAD.json... [vs PARENT.json...], with as many\n"
        << "PARENT as HEAD passes: the i-th of each ran back to back\n";
    return 2;
  }

  const std::optional<JsonValue> doc = read_json(gates_path, err);
  if (!doc) return 2;
  std::vector<Gate> gates;
  try {
    const JsonValue* schema = doc->find("schema");
    if (schema == nullptr || schema->string != "ftdb-gates-v1") {
      throw std::runtime_error("not an ftdb-gates-v1 document");
    }
    const auto dir = std::filesystem::path(gates_path).parent_path();
    for (const JsonValue& g : doc->at("gates").array) {
      try {
        gates.push_back(parse_gate(g, dir, err));
      } catch (const std::exception& e) {
        throw std::runtime_error("gate " + std::to_string(gates.size() + 1) + ": " + e.what());
      }
    }
    if (gates.empty()) throw std::runtime_error("no gates");
  } catch (const std::exception& e) {
    err << "bench_compare: " << gates_path << ": " << e.what() << "\n";
    return 2;
  }

  std::vector<Verdict> verdicts;
  for (const Gate& gate : gates) {
    verdicts.push_back(gate.kind == "head" ? evaluate_head(gate, head_runs)
                       : gate.kind == "ab" ? evaluate_ab(gate, head_runs, parent_runs)
                                           : evaluate_pin(gate, head_runs));
  }

  const auto failed = static_cast<std::size_t>(
      std::count_if(verdicts.begin(), verdicts.end(), [](const Verdict& v) { return !v.pass; }));
  out << "## gates (" << gates_path << ": " << head_runs.size() << " head, " << parent_runs.size()
      << " parent passes)\n\n| gate | value | bound | status |\n|---|---|---|---|\n";
  for (const Verdict& v : verdicts) {
    out << "| " << v.label << " | " << v.value << " | " << v.bound << " | "
        << (v.pass ? "ok" : "FAIL") << " |\n";
  }
  out << "\n" << failed << " of " << verdicts.size() << " gates failed\n";
  for (const Verdict& v : verdicts) {
    if (!v.details.empty()) out << "\n## " << v.label << "\n\n" << v.details;
  }
  return failed == 0 ? 0 : 1;
}

/// --validate: each file must be a well-formed ftdb-bench-v1 document.
int validate_files(const std::vector<std::string>& paths, std::ostream& out, std::ostream& err) {
  if (paths.empty()) {
    err << "bench_compare: --validate needs at least one file\n";
    return 2;
  }
  int failures = 0;
  for (const std::string& path : paths) {
    const std::optional<Run> run = load_run(path, err);
    if (!run) {
      ++failures;
      continue;
    }
    out << path << ": valid ftdb-bench-v1, " << run->benches.size() << " benchmarks"
        << (run->machine ? "" : ", no machine stamp") << "\n";
  }
  return failures == 0 ? 0 : 1;
}

}  // namespace

int bench_compare_main(const std::vector<std::string>& args, std::ostream& out,
                       std::ostream& err) {
  std::string filter;
  double threshold = 1.15;
  bool fail_on_drift = false;
  bool validate = false;
  std::optional<std::string> gates_path;
  bool diff_options = false;  // options of the BASE NEW diff, meaningless to --gates
  std::vector<std::string> positional;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    const bool has_value = i + 1 < args.size();
    if (arg == "--filter" || arg == "--threshold" || arg == "--gates") {
      if (!has_value) {
        err << arg << " requires an argument\n";
        return 2;
      }
      const std::string& value = args[++i];
      diff_options = diff_options || arg != "--gates";
      if (arg == "--filter") {
        filter = value;
      } else if (arg == "--gates") {
        gates_path = value;
      } else if (const std::optional<double> r = parse_ratio(value)) {
        threshold = *r;
      } else {
        err << "--threshold expects a finite number above 0, got \"" << value << "\"\n";
        return 2;
      }
    } else if (arg == "--fail-on-drift") {
      fail_on_drift = diff_options = true;
    } else if (arg == "--validate") {
      validate = true;
    } else if (arg == "--help" || arg == "-h") {
      usage(out);
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      err << "unknown option: " << arg << "\n";
      usage(err);
      return 2;
    } else {
      positional.push_back(arg);
    }
  }
  if (validate) return validate_files(positional, out, err);
  if (gates_path) {
    if (!diff_options) return evaluate_gates(*gates_path, positional, out, err);
    err << "--gates takes its bounds from the gates file, not from options\n";
    return 2;
  }
  if (positional.size() != 2) {
    usage(err);
    return 2;
  }

  const std::optional<Run> base = load_run(positional[0], err);
  const std::optional<Run> fresh = load_run(positional[1], err);
  if (!base || !fresh) return 2;
  const Tally timing = compare_timings({*base}, {*fresh}, filter, threshold, out);
  const Tally drift = metric_drift(*base, *fresh, filter, out);
  if (timing.shared == 0) {
    err << "bench_compare: the two files share no benchmark"
        << (filter.empty() ? "" : " matching --filter " + filter) << "\n";
    return 1;
  }
  if (timing.failures > 0) return 1;
  if (fail_on_drift && drift.failures > 0) return 1;
  return 0;
}

}  // namespace ftdb::analysis
