#include "common.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <stdexcept>

namespace perfbench {

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) {
  SplitMix64 a(seed ^ 0x6a09e667f3bcc909ull);
  SplitMix64 b(a.next() + stream * 0x9e3779b97f4a7c15ull);
  return b.next();
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

namespace {

void upsert(std::vector<Metric>& list, const std::string& name, double value,
            const std::string& unit) {
  for (Metric& m : list) {
    if (m.name == name) {
      m.value = value;
      m.unit = unit;
      return;
    }
  }
  list.push_back({name, value, unit});
}

}  // namespace

void Result::set_end_to_end(const std::string& name, double value, const std::string& unit) {
  upsert(end_to_end, name, value, unit);
}

void Result::set_per_layer(const std::string& name, double value, const std::string& unit) {
  upsert(per_layer, name, value, unit);
}

void Result::add_detail(const std::string& name, double value, const std::string& unit) {
  upsert(detail, name, value, unit);
}

void Result::fail(const std::string& why) {
  correct = false;
  if (errors.size() < 32) errors.push_back(why);
}

// --- trace -------------------------------------------------------------------

bool is_layer_span(const char* name) {
  static const char* const kPrefixes[] = {"topology.", "graph.", "ft.",    "fault_models.",
                                          "sim.",      "router.", "serve.", "campaign."};
  for (const char* p : kPrefixes) {
    if (std::strncmp(name, p, std::strlen(p)) == 0) return true;
  }
  return false;
}

Trace::Trace(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

Trace::Lane& Trace::new_lane() {
  const std::lock_guard<std::mutex> lock(mu_);
  lanes_.push_back(std::make_unique<Lane>(this));
  return *lanes_.back();
}

std::int64_t Trace::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - origin_).count();
}

Trace::Scope::Scope(Lane& lane, const char* name) {
  if (!lane.trace_->enabled()) return;
  lane_ = &lane;
  Span s;
  s.name = name;
  s.id = static_cast<std::uint32_t>(lane.spans_.size() + 1);
  s.parent = lane.open_.empty() ? 0 : lane.spans_[lane.open_.back()].id;
  lane.open_.push_back(static_cast<std::uint32_t>(lane.spans_.size()));
  lane.spans_.push_back(s);
  lane.spans_.back().start_ns = lane.trace_->now_ns();
}

Trace::Scope::~Scope() {
  if (lane_ == nullptr) return;
  const std::int64_t end = lane_->trace_->now_ns();
  lane_->spans_[lane_->open_.back()].end_ns = end;
  lane_->open_.pop_back();
}

Trace::TotalsMap Trace::totals() const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::map<const char*, Totals> by_ptr;
  for (const auto& lane : lanes_) {
    for (const Span& s : lane->spans()) {
      Totals& t = by_ptr[s.name];
      ++t.count;
      t.total_ns += static_cast<double>(s.end_ns - s.start_ns);
    }
  }
  TotalsMap out;
  for (const auto& [name, t] : by_ptr) {
    Totals& o = out[name];
    o.count += t.count;
    o.total_ns += t.total_ns;
  }
  return out;
}

double Trace::mean(const TotalsMap& totals, const std::string& name, double per) {
  const auto it = totals.find(name);
  if (it == totals.end() || it->second.count == 0) return 0.0;
  return it->second.total_ns / static_cast<double>(it->second.count) / per;
}

double Trace::total(const TotalsMap& totals, const std::string& name, double per) {
  const auto it = totals.find(name);
  return it == totals.end() ? 0.0 : it->second.total_ns / per;
}

double Trace::unattributed_share(const std::string& window) const {
  const std::lock_guard<std::mutex> lock(mu_);
  double window_ns = 0.0;
  double covered_ns = 0.0;
  for (const auto& lane : lanes_) {
    const std::vector<Span>& spans = lane->spans();
    // Per span: the id of the root window it sits in (0 = none) and whether
    // a layer span already encloses it. Parents precede children.
    std::vector<std::uint32_t> window_of(spans.size(), 0);
    std::vector<bool> in_layer(spans.size(), false);
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      if (s.parent == 0) {
        if (window == s.name) {
          window_of[i] = s.id;
          window_ns += static_cast<double>(s.end_ns - s.start_ns);
        }
        continue;
      }
      const std::size_t p = s.parent - 1;
      window_of[i] = window_of[p];
      in_layer[i] = in_layer[p] || is_layer_span(spans[p].name);
      if (window_of[i] != 0 && !in_layer[i] && is_layer_span(s.name)) {
        covered_ns += static_cast<double>(s.end_ns - s.start_ns);
      }
    }
  }
  return window_ns <= 0.0 ? 0.0 : std::max(0.0, 1.0 - covered_ns / window_ns);
}

void Trace::write_csv(const std::string& path, std::size_t max_per_name) const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) throw std::runtime_error("cannot write trace file " + path);
  std::fprintf(f, "lane,id,parent,name,start_ns,end_ns\n");
  std::map<const char*, std::size_t> written;
  for (std::size_t l = 0; l < lanes_.size(); ++l) {
    for (const Span& s : lanes_[l]->spans()) {
      if (written[s.name]++ >= max_per_name) continue;
      std::fprintf(f, "%zu,%u,%u,%s,%lld,%lld\n", l, s.id, s.parent, s.name,
                   static_cast<long long>(s.start_ns), static_cast<long long>(s.end_ns));
    }
  }
  if (std::fclose(f) != 0) throw std::runtime_error("short write to trace file " + path);
}

}  // namespace perfbench
