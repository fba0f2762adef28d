// serve_faultstream: one in-process ReconfigurationService on B_{2,10} with
// k = 8 spares and an fsync'd journal. Two reader threads send open-loop
// queries at a fixed rate, alternating Reader::route (FT surface) and
// Reader::bare_route (bare surface); one writer sends open-loop fault/repair
// events at a fixed rate, never more than k faults outstanding. Every latency
// is timed from the operation's due time.
//
// The traced run records a span per service call, then replays the writer's
// event stream through replica layer objects (Journal, OnlineReconfigurator,
// CompressedRouter copy + patch) to split the mutation path, and probes the
// read path's layers (router path walks, compressed next hop, epoch pin).
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <exception>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "ft/ft_debruijn.hpp"
#include "ft/online.hpp"
#include "graph/algorithms.hpp"
#include "serve/journal.hpp"
#include "serve/service.hpp"
#include "sim/router.hpp"
#include "topology/debruijn.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace ftdb;
using serve::ReconfigurationService;
using Scope = Trace::Scope;

constexpr unsigned kDigits = 10;
constexpr unsigned kSpares = 8;
constexpr int kReaders = 2;
constexpr double kQueriesPerSecondPerReader = 37500.0;
constexpr double kMutationsPerSecond = 40.0;
constexpr std::size_t kProbePairs = 20000;
// The untraced run splits its window into segments of about this length,
// each on a freshly set-up service (kSetupsPerSegment set-up samples, the
// last one kept), so set-up samples spread over the whole run.
constexpr double kSegmentSeconds = 5.0;
constexpr int kSetupsPerSegment = 3;

const DeBruijnParams kParams{.base = 2, .digits = kDigits};

serve::ServeConfig make_config(const Options& options) {
  serve::ServeConfig config;
  config.family = serve::Family::kDeBruijn;
  config.base = 2;
  config.digits = kDigits;
  config.spares = kSpares;
  config.journal_path = options.out_dir + "/serve.journal";
  config.fsync_journal = true;
  return config;
}

struct Event {
  bool fault = true;
  NodeId node = 0;
};

/// Fault/repair events over the N + k physical nodes: a fault hits a node
/// that is not outstanding, a repair heals an outstanding one, and at most k
/// faults are ever outstanding — so every fault is accepted and every repair
/// repaired.
std::vector<Event> event_stream(std::uint64_t seed, std::size_t count, std::size_t physical) {
  SplitMix64 rng(derive_seed(seed, 100));
  std::vector<NodeId> outstanding;
  std::vector<Event> events;
  events.reserve(count);
  while (events.size() < count) {
    const bool fault = outstanding.empty() ||
                       (outstanding.size() < kSpares && (rng.next() & 1) != 0);
    if (fault) {
      NodeId v = 0;
      do {
        v = static_cast<NodeId>(rng.below(physical));
      } while (std::find(outstanding.begin(), outstanding.end(), v) != outstanding.end());
      outstanding.push_back(v);
      events.push_back({true, v});
    } else {
      const std::size_t i = rng.below(outstanding.size());
      events.push_back({false, outstanding[i]});
      outstanding.erase(outstanding.begin() + static_cast<std::ptrdiff_t>(i));
    }
  }
  return events;
}

/// Outcome of one open-loop thread. Latencies are in ns from the due time.
struct Log {
  std::vector<double> ft_ns;
  std::vector<double> bare_ns;
  std::vector<double> mutation_ns;
  std::vector<double> late_ns;
  std::uint64_t attempted = 0;
  std::uint64_t wrong = 0;
  std::uint64_t bare_unreachable = 0;
  std::size_t sent_events = 0;
  std::string error;
};

bool valid_bare_path(const Graph& target, const std::vector<NodeId>& path, NodeId from,
                     NodeId dest, std::uint32_t dist) {
  if (path.front() != from || path.back() != dest || path.size() < dist + 1) return false;
  for (std::size_t i = 0; i + 1 < path.size(); ++i) {
    if (!target.has_edge(path[i], path[i + 1])) return false;
  }
  return true;
}

void reader_loop(ReconfigurationService& service, int index, std::uint64_t seed,
                 Clock::time_point t0, Clock::time_point deadline, Trace::Lane& lane, Log& log) {
  try {
    const Graph& target = service.target();
    const std::uint64_t n = target.num_nodes();
    ReconfigurationService::Reader reader = service.reader();
    SplitMix64 rng(derive_seed(seed, 200 + static_cast<std::uint64_t>(index)));
    const double interval_ns = 1e9 / kQueriesPerSecondPerReader;
    for (std::uint64_t j = 0;; ++j) {
      const Clock::time_point due =
          t0 + std::chrono::nanoseconds(static_cast<std::int64_t>(static_cast<double>(j) * interval_ns));
      if (due >= deadline) break;
      while (Clock::now() < due) {
      }
      const NodeId from = static_cast<NodeId>(rng.below(n));
      const NodeId dest = static_cast<NodeId>(rng.below(n));
      const Clock::time_point start = Clock::now();
      std::vector<NodeId> path;
      const bool ft = j % 2 == 0;
      if (ft) {
        Scope s(lane, "serve.route");
        path = reader.route(from, dest);
      } else {
        Scope s(lane, "serve.bare_route");
        path = reader.bare_route(from, dest);
      }
      const Clock::time_point end = Clock::now();
      const double latency = static_cast<double>((end - due).count());
      log.late_ns.push_back(static_cast<double>((start - due).count()));
      ++log.attempted;
      const std::uint32_t dist = debruijn_distance(kParams, from, dest);
      if (ft) {
        log.ft_ns.push_back(latency);
        if (path.size() != dist + 1) ++log.wrong;
      } else {
        log.bare_ns.push_back(latency);
        if (path.empty()) {
          ++log.bare_unreachable;
        } else if (!valid_bare_path(target, path, from, dest, dist)) {
          ++log.wrong;
        }
      }
    }
  } catch (const std::exception& e) {
    log.error = std::string("reader: ") + e.what();
  }
}

void writer_loop(ReconfigurationService& service, const std::vector<Event>& events,
                 Clock::time_point t0, Clock::time_point deadline, Trace::Lane& lane, Log& log) {
  try {
    const double interval_ns = 1e9 / kMutationsPerSecond;
    for (std::size_t i = 0; i < events.size(); ++i) {
      const Clock::time_point due =
          t0 + std::chrono::nanoseconds(static_cast<std::int64_t>(static_cast<double>(i) * interval_ns));
      if (due >= deadline) break;
      std::this_thread::sleep_until(due);
      const Clock::time_point start = Clock::now();
      serve::MutationStatus status;
      if (events[i].fault) {
        Scope s(lane, "serve.fault");
        status = service.fault({FaultKind::kNode, events[i].node, 0});
      } else {
        Scope s(lane, "serve.repair");
        status = service.repair(events[i].node);
      }
      const Clock::time_point end = Clock::now();
      log.mutation_ns.push_back(static_cast<double>((end - due).count()));
      log.late_ns.push_back(static_cast<double>((start - due).count()));
      ++log.attempted;
      ++log.sent_events;
      const serve::MutationStatus want =
          events[i].fault ? serve::MutationStatus::kAccepted : serve::MutationStatus::kRepaired;
      if (status != want) ++log.wrong;
    }
  } catch (const std::exception& e) {
    log.error = std::string("writer: ") + e.what();
  }
}

/// The target with every retired logical node cut out (ids kept).
Graph degraded_target(const Graph& target, const std::vector<NodeId>& retired) {
  std::vector<bool> dead(target.num_nodes(), false);
  for (const NodeId v : retired) {
    if (v < target.num_nodes()) dead[v] = true;
  }
  GraphBuilder builder(target.num_nodes());
  for (const Edge& e : target.edges()) {
    if (!dead[e.u] && !dead[e.v]) builder.add_edge(e.u, e.v);
  }
  return builder.build();
}

/// Quiescent checks: the patched bare router equals a scratch build, and bare
/// routes have exactly BFS length on the degraded target.
void check_bare_surface(ReconfigurationService& service, std::uint64_t seed, Result& result) {
  const Graph& target = service.target();
  const std::vector<NodeId> retired = service.snapshot()->retired;
  const Graph degraded = degraded_target(target, retired);
  const sim::CompressedRouter scratch(degraded);
  if (scratch.stats().state_hash != service.stats().bare.state_hash) {
    result.fail("patched bare router differs from a scratch build");
  }
  ReconfigurationService::Reader reader = service.reader();
  SplitMix64 rng(derive_seed(seed, 400));
  for (int d = 0; d < 32; ++d) {
    const NodeId dest = static_cast<NodeId>(rng.below(target.num_nodes()));
    const std::vector<std::uint32_t> dist = bfs_distances(degraded, dest);
    for (int i = 0; i < 16; ++i) {
      const NodeId from = static_cast<NodeId>(rng.below(target.num_nodes()));
      const std::vector<NodeId> path = reader.bare_route(from, dest);
      ++result.attempted;
      const bool ok = dist[from] == kUnreachable ? path.empty() : path.size() == dist[from] + 1;
      if (!ok) {
        ++result.failed;
        result.fail("bare route length differs from BFS on the degraded target");
      }
    }
  }
}

void append(Log& into, const Log& log) {
  into.ft_ns.insert(into.ft_ns.end(), log.ft_ns.begin(), log.ft_ns.end());
  into.bare_ns.insert(into.bare_ns.end(), log.bare_ns.begin(), log.bare_ns.end());
  into.mutation_ns.insert(into.mutation_ns.end(), log.mutation_ns.begin(), log.mutation_ns.end());
  into.late_ns.insert(into.late_ns.end(), log.late_ns.begin(), log.late_ns.end());
  into.attempted += log.attempted;
  into.wrong += log.wrong;
  into.bare_unreachable += log.bare_unreachable;
  into.sent_events += log.sent_events;
}

struct Live {
  std::unique_ptr<ReconfigurationService> service;
  std::vector<Event> events;
  Log merged;
  double window_s = 0.0;
  std::vector<double> setup;
};

/// Set-up (repeated, the last service kept) and `seconds` of the open-loop
/// phase.
Live run_live(const Options& options, double seconds, Trace& trace, Result& result) {
  Live live;
  const serve::ServeConfig config = make_config(options);
  for (int i = 0; i < kSetupsPerSegment; ++i) {
    live.service.reset();
    std::remove(config.journal_path.c_str());
    const Clock::time_point t0 = Clock::now();
    live.service = std::make_unique<ReconfigurationService>(config);
    live.setup.push_back(seconds_between(t0, Clock::now()));
  }
  live.events = event_stream(
      options.seed, static_cast<std::size_t>(seconds * kMutationsPerSecond) + 16,
      live.service->num_physical_nodes());

  std::vector<Log> logs(kReaders + 1);
  std::vector<Trace::Lane*> lanes;
  for (int i = 0; i <= kReaders; ++i) lanes.push_back(&trace.new_lane());
  const Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(20);
  const Clock::time_point deadline =
      t0 + std::chrono::nanoseconds(static_cast<std::int64_t>(seconds * 1e9));
  {
    std::vector<std::thread> threads;
    for (int r = 0; r < kReaders; ++r) {
      threads.emplace_back(reader_loop, std::ref(*live.service), r, options.seed, t0, deadline,
                           std::ref(*lanes[r]), std::ref(logs[r]));
    }
    threads.emplace_back(writer_loop, std::ref(*live.service), std::cref(live.events), t0,
                         deadline, std::ref(*lanes[kReaders]), std::ref(logs[kReaders]));
    for (std::thread& t : threads) t.join();
  }
  live.window_s = seconds_between(t0, Clock::now());

  for (const Log& log : logs) {
    append(live.merged, log);
    if (!log.error.empty()) result.fail(log.error);
  }
  result.attempted += live.merged.attempted;
  result.failed += live.merged.wrong;
  if (live.merged.wrong != 0) {
    result.fail(std::to_string(live.merged.wrong) + " wrong answers or mutation statuses");
  }
  return live;
}

/// Destroys the service and recovers a new one from its journal: the
/// recovered state must hash identically and have replayed every event.
void check_recovery(Live& live, const Options& options, Result& result) {
  const std::uint64_t before = live.service->state_hash();
  live.service.reset();
  const ReconfigurationService recovered(make_config(options));
  ++result.attempted;
  if (recovered.state_hash() != before || recovered.replayed_events() != live.merged.sent_events) {
    ++result.failed;
    result.fail("service recovered from the journal differs from the live one");
  }
}

void report_live(const Log& m, const std::vector<double>& setup, double window_s,
                 Result& result) {
  const double ft_p50 = quantile(m.ft_ns, 0.5) / 1e3;
  const double ft_p99 = quantile(m.ft_ns, 0.99) / 1e3;
  const double bare_p50 = quantile(m.bare_ns, 0.5) / 1e3;
  const double bare_p99 = quantile(m.bare_ns, 0.99) / 1e3;
  const double mut_p50 = quantile(m.mutation_ns, 0.5) / 1e6;
  const double mut_p90 = quantile(m.mutation_ns, 0.9) / 1e6;
  result.add_detail("serve.ft_route_p50_us", ft_p50, "us");
  result.add_detail("serve.ft_route_p99_us", ft_p99, "us");
  result.add_detail("serve.bare_route_p50_us", bare_p50, "us");
  result.add_detail("serve.bare_route_p99_us", bare_p99, "us");
  result.add_detail("serve.mutation_p50_ms", mut_p50, "ms");
  result.add_detail("serve.mutation_p90_ms", mut_p90, "ms");
  result.add_detail("serve.queries", static_cast<double>(m.ft_ns.size() + m.bare_ns.size()),
                    "count");
  result.add_detail("serve.mutations", static_cast<double>(m.mutation_ns.size()), "count");
  result.add_detail("serve.bare_unreachable", static_cast<double>(m.bare_unreachable), "count");
  result.add_detail("serve.generator_late_p99_ms", quantile(m.late_ns, 0.99) / 1e6, "ms");

  result.set_end_to_end("setup_s", median(setup), "s");
  result.set_end_to_end(
      "throughput_per_s",
      static_cast<double>(m.ft_ns.size() + m.bare_ns.size() + m.mutation_ns.size()) /
          window_s,
      "1/s");
  // One latency across the three user surfaces: the geometric mean of their
  // p50 and p90 weighs a relative change on any of them equally. p99 stays
  // a detail: it moves with how often the host deschedules a reader for
  // milliseconds, not with the code.
  const double ft_p90 = quantile(m.ft_ns, 0.9) / 1e3;
  const double bare_p90 = quantile(m.bare_ns, 0.9) / 1e3;
  result.add_detail("serve.ft_route_p90_us", ft_p90, "us");
  result.add_detail("serve.bare_route_p90_us", bare_p90, "us");
  const double product = ft_p50 * ft_p90 * bare_p50 * bare_p90 * (mut_p50 * 1e3) * (mut_p90 * 1e3);
  result.set_end_to_end("latency_us", std::pow(product, 1.0 / 6.0), "us");
}

// --- traced: replicas and probes ------------------------------------------------

struct Replica {
  std::shared_ptr<const sim::CompressedRouter> bare;
  std::vector<NodeId> retired;
  double mean_exceptions = 0.0;  // bare-router exceptions after each event
};

/// Replays the writer's events through replica layer objects, timing each
/// layer the service's mutation path goes through.
Replica replay_mutations(const Options& options, const Live& live, Trace::Lane& lane,
                         Result& result) {
  const serve::ServeConfig config = make_config(options);
  const std::string path = options.out_dir + "/serve.replica.journal";
  std::remove(path.c_str());
  const Graph& target = live.service->target();
  serve::Journal journal(path, serve::config_fingerprint(config), config.fsync_journal);
  OnlineReconfigurator recon(ft_debruijn_graph({.base = 2, .digits = kDigits, .spares = kSpares}),
                             target);
  auto bare = std::make_shared<const sim::CompressedRouter>(target);

  double exceptions = 0.0;
  Scope window(lane, "replay.serve");
  for (std::size_t i = 0; i < live.merged.sent_events; ++i) {
    const Event& ev = live.events[i];
    {
      Scope s(lane, "serve.journal_append");
      journal.append({ev.fault ? serve::JournalOp::kFaultNode : serve::JournalOp::kRepair,
                      ev.node, 0});
    }
    bool applied = false;
    {
      Scope s(lane, "ft.online_apply");
      applied = ev.fault ? recon.apply({FaultKind::kNode, ev.node, 0}) == EventStatus::kAccepted
                         : recon.repair(ev.node);
    }
    if (!applied) result.fail("replica reconfigurator refused an event");
    if (ev.node >= target.num_nodes()) continue;
    std::shared_ptr<sim::CompressedRouter> patched;
    {
      Scope s(lane, "router.compressed_copy");
      patched = std::make_shared<sim::CompressedRouter>(*bare);
    }
    {
      Scope s(lane, "router.compressed_patch");
      if (ev.fault) {
        patched->apply_fault(ev.node);
      } else {
        patched->retract_fault(ev.node);
      }
    }
    bare = std::move(patched);
    exceptions += static_cast<double>(bare->num_exceptions());
  }
  const double events = static_cast<double>(std::max<std::size_t>(1, live.merged.sent_events));
  return {std::move(bare), recon.retired(), exceptions / events};
}

std::vector<std::pair<NodeId, NodeId>> probe_pairs(std::uint64_t seed, std::uint64_t n) {
  SplitMix64 rng(derive_seed(seed, 300));
  std::vector<std::pair<NodeId, NodeId>> pairs(kProbePairs);
  for (auto& [from, dest] : pairs) {
    from = static_cast<NodeId>(rng.below(n));
    dest = static_cast<NodeId>(rng.below(n));
  }
  return pairs;
}

/// ns per hop of Router::path over the probe pairs.
double path_ns_per_hop(const sim::Router& router,
                       const std::vector<std::pair<NodeId, NodeId>>& pairs, Trace::Lane& lane,
                       const char* span) {
  std::uint64_t hops = 0;
  const Clock::time_point t0 = Clock::now();
  {
    Scope s(lane, span);
    for (const auto& [from, dest] : pairs) hops += router.path(from, dest).size() - 1;
  }
  return seconds_between(t0, Clock::now()) * 1e9 / static_cast<double>(hops);
}

void traced(const Options& options, Result& result, Trace& trace) {
  Live live = run_live(options, options.seconds, trace, result);
  report_live(live.merged, live.setup, live.window_s, result);
  Trace::Lane& lane = trace.new_lane();
  const Graph& target = live.service->target();

  trace.set_enabled(false);
  Clock::time_point t0 = Clock::now();
  (void)replay_mutations(options, live, lane, result);
  const double off_s = seconds_between(t0, Clock::now());
  trace.set_enabled(true);
  t0 = Clock::now();
  const Replica replica = replay_mutations(options, live, lane, result);
  const sim::CompressedRouter& bare = *replica.bare;
  const double on_s = seconds_between(t0, Clock::now());

  ++result.attempted;
  if (replica.retired != live.service->snapshot()->retired ||
      bare.stats().state_hash != live.service->stats().bare.state_hash) {
    ++result.failed;
    result.fail("replica replay ended in a different state than the service");
  }

  // Read-path probes.
  const auto pairs = probe_pairs(options.seed, target.num_nodes());
  const sim::ImplicitRouter implicit = sim::ImplicitRouter::for_debruijn(kParams);
  const std::unique_ptr<sim::Router> ft_router = sim::make_router(target);
  const double implicit_ns = path_ns_per_hop(implicit, pairs, lane, "router.implicit_path");
  const double ft_ns = path_ns_per_hop(*ft_router, pairs, lane, "router.ft_path");
  std::uint64_t sink = 0;
  t0 = Clock::now();
  {
    Scope s(lane, "router.compressed_next_hop");
    for (const auto& [from, dest] : pairs) sink += bare.next_hop(dest, from);
  }
  const double next_hop_ns =
      seconds_between(t0, Clock::now()) * 1e9 / static_cast<double>(pairs.size());
  constexpr int kPins = 200000;
  double pin_ns = 0.0;
  {
    const ReconfigurationService::Reader reader = live.service->reader();
    t0 = Clock::now();
    Scope s(lane, "serve.reader_pin");
    for (int i = 0; i < kPins; ++i) sink += reader.epoch_id();
    pin_ns = seconds_between(t0, Clock::now()) * 1e9 / kPins;
  }
  if (sink == 0) std::printf("#\n");  // keeps the probe loops observable

  const Trace::TotalsMap totals = trace.totals();
  result.set_per_layer("serve.journal_append_us",
                       Trace::mean(totals, "serve.journal_append", 1e3), "us");
  result.set_per_layer("ft.online_apply_us", Trace::mean(totals, "ft.online_apply", 1e3), "us");
  result.set_per_layer("router.compressed_copy_ms",
                       Trace::mean(totals, "router.compressed_copy", 1e6), "ms");
  result.set_per_layer("router.compressed_patch_ms",
                       Trace::mean(totals, "router.compressed_patch", 1e6), "ms");
  result.set_per_layer("router.implicit_path_ns_per_hop", implicit_ns, "ns");
  result.set_per_layer("router.ft_path_ns_per_hop", ft_ns, "ns");
  result.set_per_layer("serve.reader_pin_ns", pin_ns, "ns");
  result.set_per_layer("router.compressed_next_hop_ns", next_hop_ns, "ns");
  result.set_per_layer("router.compressed_exceptions", replica.mean_exceptions, "count");
  result.add_detail("router.final_exceptions", static_cast<double>(bare.num_exceptions()),
                    "count");
  result.add_detail("serve.final_retired", static_cast<double>(replica.retired.size()), "count");
  result.set_per_layer("serve.generator_late_ms", quantile(live.merged.late_ns, 0.99) / 1e6,
                       "ms");
  result.set_per_layer("trace.unattributed_share", trace.unattributed_share("replay.serve"),
                       "ratio");
  result.set_per_layer("trace.overhead_share", (on_s - off_s) / off_s, "ratio");
  result.add_detail(std::string("router.ft_backend_") + sim::router_backend_name(ft_router->backend()),
                    1.0, "count");
  result.add_detail("serve.route_us", Trace::mean(totals, "serve.route", 1e3), "us");
  result.add_detail("serve.bare_route_us", Trace::mean(totals, "serve.bare_route", 1e3), "us");
  result.add_detail("serve.fault_ms", Trace::mean(totals, "serve.fault", 1e6), "ms");
  result.add_detail("serve.repair_ms", Trace::mean(totals, "serve.repair", 1e6), "ms");
  const double window_ns = Trace::total(totals, "replay.serve", 1.0);
  for (const char* name : {"serve.journal_append", "ft.online_apply", "router.compressed_copy",
                           "router.compressed_patch"}) {
    result.add_detail(std::string("share.") + name, Trace::total(totals, name, 1.0) / window_ns,
                      "ratio");
  }

  check_bare_surface(*live.service, options.seed, result);
  check_recovery(live, options, result);
}

void measure(const Options& options, Result& result, Trace& trace) {
  const int segments = std::max(1, static_cast<int>(std::lround(options.seconds / kSegmentSeconds)));
  Log pooled;
  std::vector<double> setup;
  double window_s = 0.0;
  for (int i = 0; i < segments; ++i) {
    Live live = run_live(options, options.seconds / segments, trace, result);
    append(pooled, live.merged);
    setup.insert(setup.end(), live.setup.begin(), live.setup.end());
    window_s += live.window_s;
    check_bare_surface(*live.service, options.seed, result);
    check_recovery(live, options, result);
  }
  report_live(pooled, setup, window_s, result);
}

}  // namespace

void run_serve_faultstream(const Options& options, Result& result, Trace& trace) {
  if (options.trace) {
    traced(options, result, trace);
  } else {
    measure(options, result, trace);
  }
}

}  // namespace perfbench
