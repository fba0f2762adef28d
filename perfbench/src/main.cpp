// ftdb_perfbench — runs one benchmark workload and prints its metrics.
//
//   ftdb_perfbench --workload NAME --seed N --seconds S --trace 0|1
//
// Summary lines ("metric NAME VALUE UNIT", "stamp {...}", "error ...") come
// first; the last line of standard output is the result object
// {"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics
// are the end-to-end ones, with --trace 1 the per-layer ones of a separate
// traced replay. The exit code is 0 only when every correctness check held.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>

#include "common.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

// The metrics each mode prints, {name, unit}, in BENCHMARK.json order. A
// workload reports 0 for a per-layer metric of a layer it does not run.
const char* const kEndToEndMetrics[][2] = {
    {"setup_s", "s"},
    {"throughput_per_s", "1/s"},
    {"latency_us", "us"},
};
const std::size_t kNumEndToEndMetrics = std::size(kEndToEndMetrics);

const char* const kPerLayerMetrics[][2] = {
    // campaign trial replay
    {"fault_models.draw_us", "us"},
    {"ft.survives_us", "us"},
    {"sim.reconfigure_us", "us"},
    {"graph.diameter_us", "us"},
    {"sim.stretch_us", "us"},
    {"sim.router_build_us", "us"},
    {"sim.schedule_build_us", "us"},
    {"sim.collective_us", "us"},
    {"sim.traffic_gen_us", "us"},
    {"sim.engine_run_us", "us"},
    {"campaign.checkpoint_ms", "ms"},
    {"campaign.report_ms", "ms"},
    {"trial.success_ratio", "ratio"},
    {"trial.faults_mean", "count"},
    {"engine.cycles_per_trial", "count"},
    {"engine.max_queue_depth", "count"},
    {"router.table_backend_share", "ratio"},
    // serving under a fault stream
    {"serve.journal_append_us", "us"},
    {"ft.online_apply_us", "us"},
    {"router.compressed_copy_ms", "ms"},
    {"router.compressed_patch_ms", "ms"},
    {"router.implicit_path_ns_per_hop", "ns"},
    {"router.ft_path_ns_per_hop", "ns"},
    {"serve.reader_pin_ns", "ns"},
    {"router.compressed_next_hop_ns", "ns"},
    {"router.compressed_exceptions", "count"},
    {"serve.generator_late_ms", "ms"},
    // every workload
    {"trace.unattributed_share", "ratio"},
    {"trace.overhead_share", "ratio"},
};
const std::size_t kNumPerLayerMetrics = std::size(kPerLayerMetrics);

int usage(const char* why) {
  std::fprintf(stderr,
               "ftdb_perfbench: %s\n"
               "usage: ftdb_perfbench --workload NAME --seed N --seconds S --trace 0|1\n"
               "workloads: campaign_survival campaign_sim engine_b2h18 serve_faultstream\n",
               why);
  return 2;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(line.find_first_not_of(' ', colon + 1));
    }
  }
  return "unknown";
}

double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  }
  return 0.0;
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

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string metrics_object(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i != 0) out += ", ";
    out += json_string(metrics[i].name) + ": {\"value\": " + json_number(metrics[i].value) +
           ", \"unit\": " + json_string(metrics[i].unit) + "}";
  }
  return out + "}";
}

/// The metrics to print, in declaration order; a name the workload did not
/// set reads 0 (a per-layer metric of a layer the workload does not run).
std::vector<Metric> ordered(const std::vector<Metric>& have, const char* const (*names)[2],
                            std::size_t count) {
  std::vector<Metric> out;
  for (std::size_t i = 0; i < count; ++i) {
    Metric m{names[i][0], 0.0, names[i][1]};
    for (const Metric& h : have) {
      if (h.name == m.name) m.value = h.value;
    }
    out.push_back(m);
  }
  return out;
}

}  // namespace

int main_impl(int argc, char** argv) {
  Options options;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + arg).c_str());
    const std::string value = argv[++i];
    try {
      if (arg == "--workload") {
        options.workload = value;
        have_workload = true;
      } else if (arg == "--seed") {
        options.seed = std::stoull(value);
      } else if (arg == "--seconds") {
        options.seconds = std::stod(value);
      } else if (arg == "--trace") {
        options.trace = std::stoi(value) != 0;
      } else {
        return usage(("unknown argument " + arg).c_str());
      }
    } catch (const std::exception&) {
      return usage(("bad value for " + arg).c_str());
    }
  }
  if (!have_workload) return usage("--workload is required");
  if (!(options.seconds > 0.0)) return usage("--seconds must be positive");
  options.threads = std::clamp(std::thread::hardware_concurrency(), 1u, 4u);
  std::filesystem::create_directories(options.out_dir);

  void (*run)(const Options&, Result&, Trace&) = nullptr;
  if (options.workload == "campaign_survival") run = run_campaign_survival;
  if (options.workload == "campaign_sim") run = run_campaign_sim;
  if (options.workload == "engine_b2h18") run = run_engine_b2h18;
  if (options.workload == "serve_faultstream") run = run_serve_faultstream;
  if (run == nullptr) return usage(("unknown workload " + options.workload).c_str());

  Trace trace(options.trace);
  Result result;
  try {
    run(options, result, trace);
  } catch (const std::exception& e) {
    result.fail(std::string("workload threw: ") + e.what());
    ++result.failed;
  }
  if (result.attempted == 0) result.attempted = 1;
  result.add_detail("failed_ratio",
                    static_cast<double>(result.failed) / static_cast<double>(result.attempted),
                    "ratio");
  result.add_detail("process.peak_rss_mb", peak_rss_mb(), "MB");
  if (result.failed != 0 && result.correct) result.fail("operations failed");

  const std::string tag = options.workload + "-seed" + std::to_string(options.seed) +
                          (options.trace ? "-traced" : "");
  if (options.trace) {
    trace.write_csv(options.out_dir + "/" + tag + ".spans.csv", 100000);
  }

  std::ostringstream stamp;
  stamp << "{\"workload\": " << json_string(options.workload) << ", \"seed\": " << options.seed
        << ", \"seconds\": " << json_number(options.seconds)
        << ", \"trace\": " << (options.trace ? 1 : 0) << ", \"threads\": " << options.threads
        << ", \"nproc\": " << std::thread::hardware_concurrency()
        << ", \"cpu_model\": " << json_string(cpu_model())
        << ", \"compiler\": " << json_string(compiler())
        << ", \"build_type\": " << json_string(PERFBENCH_BUILD_TYPE) << "}";

  const std::vector<Metric> printed =
      options.trace ? ordered(result.per_layer, kPerLayerMetrics, kNumPerLayerMetrics)
                    : ordered(result.end_to_end, kEndToEndMetrics, kNumEndToEndMetrics);

  std::ostringstream line;
  line << "{\"correct\": " << (result.correct ? "true" : "false")
       << ", \"attempted\": " << result.attempted << ", \"failed\": " << result.failed
       << ", \"metrics\": " << metrics_object(printed) << "}";

  {
    std::ofstream out(options.out_dir + "/" + tag + ".result.json");
    out << "{\"stamp\": " << stamp.str() << ", \"detail\": " << metrics_object(result.detail)
        << ", \"result\": " << line.str() << "}\n";
  }

  for (const std::string& e : result.errors) std::printf("error %s\n", e.c_str());
  for (const Metric& m : result.detail) {
    std::printf("metric %s %s %s\n", m.name.c_str(), json_number(m.value).c_str(),
                m.unit.c_str());
  }
  std::printf("stamp %s\n", stamp.str().c_str());
  std::printf("%s\n", line.str().c_str());
  std::fflush(stdout);
  return result.correct ? 0 : 1;
}

}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::main_impl(argc, argv); }
