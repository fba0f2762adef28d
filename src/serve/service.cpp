#include "serve/service.hpp"

#include <stdexcept>
#include <utility>

#include "ft/ft_debruijn.hpp"
#include "ft/ft_shuffle_exchange.hpp"
#include "topology/debruijn.hpp"
#include "topology/shuffle_exchange.hpp"

namespace ftdb::serve {
namespace {

constexpr std::uint64_t kFnvOffset = 1469598103934665603ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

void fnv_mix(std::uint64_t& h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xFFu;
    h *= kFnvPrime;
  }
}

Graph build_target(const ServeConfig& config) {
  if (config.digits < 2) {
    // The shape-delta router's reference detection needs h >= 2.
    throw std::invalid_argument("ReconfigurationService: digits must be >= 2");
  }
  if (config.family == Family::kDeBruijn) {
    return debruijn_graph({.base = config.base, .digits = config.digits});
  }
  return shuffle_exchange_graph(config.digits);
}

Graph build_ft_graph(const ServeConfig& config) {
  if (config.family == Family::kDeBruijn) {
    return ft_debruijn_graph(
        {.base = config.base, .digits = config.digits, .spares = config.spares});
  }
  return ft_shuffle_exchange_natural(config.digits, config.spares).ft_graph;
}

FaultEvent event_from_record(const JournalRecord& record) {
  switch (record.op) {
    case JournalOp::kFaultNode:
      return {FaultKind::kNode, record.a, 0};
    case JournalOp::kFaultLink:
      return {FaultKind::kLink, record.a, record.b};
    case JournalOp::kFaultBus:
      return {FaultKind::kBus, record.a, 0};
    case JournalOp::kRepair:
      break;
  }
  throw std::logic_error("event_from_record: not a fault record");
}

JournalOp op_from_kind(FaultKind kind) {
  switch (kind) {
    case FaultKind::kNode: return JournalOp::kFaultNode;
    case FaultKind::kLink: return JournalOp::kFaultLink;
    case FaultKind::kBus: return JournalOp::kFaultBus;
  }
  throw std::logic_error("op_from_kind: bad kind");
}

}  // namespace

std::uint64_t config_fingerprint(const ServeConfig& config) {
  std::uint64_t h = kFnvOffset;
  fnv_mix(h, static_cast<std::uint64_t>(config.family));
  fnv_mix(h, config.family == Family::kDeBruijn ? config.base : 2);
  fnv_mix(h, config.digits);
  fnv_mix(h, config.spares);
  return h;
}

const char* mutation_status_name(MutationStatus status) {
  switch (status) {
    case MutationStatus::kAccepted: return "accepted";
    case MutationStatus::kRedundant: return "redundant";
    case MutationStatus::kBudgetExhausted: return "budget-exhausted";
    case MutationStatus::kRepaired: return "repaired";
    case MutationStatus::kNotRetired: return "not-retired";
  }
  return "?";
}

ReconfigurationService::ReconfigurationService(const ServeConfig& config)
    : config_(config),
      target_(build_target(config)),
      recon_(build_ft_graph(config), target_) {
  num_physical_ = target_.num_nodes() + config.spares;
  healthy_ = sim::make_router(target_);

  auto bare = std::make_shared<const sim::CompressedRouter>(target_);
  head_owner_ = build_epoch(std::move(bare));
  head_.store(head_owner_.get());

  if (!config_.journal_path.empty()) {
    journal_.emplace(config_.journal_path, config_fingerprint(config_), config_.fsync_journal);
    for (const JournalRecord& record : journal_->recovered()) {
      if (record.op == JournalOp::kRepair) {
        apply_repair(record.a, /*journal=*/false);
      } else {
        apply_event(event_from_record(record), /*journal=*/false);
      }
    }
    replayed_ = journal_->recovered().size();
  }
}

ReconfigurationService::~ReconfigurationService() = default;

MutationStatus ReconfigurationService::fault(const FaultEvent& event) {
  std::lock_guard<std::mutex> lock(mu_);
  return apply_event(event, /*journal=*/true);
}

MutationStatus ReconfigurationService::repair(NodeId node) {
  std::lock_guard<std::mutex> lock(mu_);
  return apply_repair(node, /*journal=*/true);
}

MutationStatus ReconfigurationService::apply_event(const FaultEvent& event, bool journal) {
  // Validate before journaling: only events the reconfigurator is guaranteed
  // to accept without throwing may reach the log, so replay never throws.
  if (event.node >= num_physical_) {
    throw std::out_of_range("ReconfigurationService::fault: node out of range");
  }
  if (event.kind == FaultKind::kLink) {
    if (event.other >= num_physical_) {
      throw std::out_of_range("ReconfigurationService::fault: link endpoint out of range");
    }
    if (event.node == event.other) {
      throw std::invalid_argument("ReconfigurationService::fault: self-link fault");
    }
  }
  if (journal && journal_) {
    journal_->append({op_from_kind(event.kind), event.node, event.other});
  }
  const EventStatus status = recon_.apply(event);
  switch (status) {
    case EventStatus::kRedundant:
      return MutationStatus::kRedundant;
    case EventStatus::kBudgetExhausted:
      return MutationStatus::kBudgetExhausted;
    case EventStatus::kAccepted:
      break;
  }
  // Accepted events of every kind retire exactly event.node. Only faults in
  // the logical region [0, N) change the bare (degraded-shape) view; a spare
  // region fault shifts the embedding but leaves the bare router untouched.
  std::shared_ptr<const sim::CompressedRouter> bare = head_owner_->bare;
  if (event.node < target_.num_nodes()) {
    auto patched = std::make_shared<sim::CompressedRouter>(*bare);
    patched->apply_fault(event.node);
    bare = std::move(patched);
  }
  publish(build_epoch(std::move(bare)));
  return MutationStatus::kAccepted;
}

MutationStatus ReconfigurationService::apply_repair(NodeId node, bool journal) {
  if (node >= num_physical_) {
    throw std::out_of_range("ReconfigurationService::repair: node out of range");
  }
  if (journal && journal_) {
    journal_->append({JournalOp::kRepair, node, 0});
  }
  if (!recon_.repair(node)) return MutationStatus::kNotRetired;
  std::shared_ptr<const sim::CompressedRouter> bare = head_owner_->bare;
  if (node < target_.num_nodes()) {
    auto patched = std::make_shared<sim::CompressedRouter>(*bare);
    patched->retract_fault(node);
    bare = std::move(patched);
  }
  publish(build_epoch(std::move(bare)));
  return MutationStatus::kRepaired;
}

void ReconfigurationService::checkpoint() {
  std::lock_guard<std::mutex> lock(mu_);
  if (!journal_) return;
  // The retired set fully determines the state (the embedding is recomputed
  // from it, the bare router is canonical), so one node-fault record per
  // outstanding fault is an equivalent, minimal log.
  std::vector<JournalRecord> compact;
  compact.reserve(recon_.retired().size());
  for (const NodeId node : recon_.retired()) {
    compact.push_back({JournalOp::kFaultNode, node, 0});
  }
  journal_->rewrite(compact);
}

std::shared_ptr<const Epoch> ReconfigurationService::build_epoch(
    std::shared_ptr<const sim::CompressedRouter> bare) {
  auto epoch = std::make_shared<Epoch>();
  epoch->id = epoch_counter_++;
  epoch->phi = recon_.mapping();
  epoch->retired = recon_.retired();
  epoch->degraded = recon_.spares_remaining() == 0;
  epoch->bare = std::move(bare);
  return epoch;
}

void ReconfigurationService::publish(std::shared_ptr<const Epoch> next) {
  retired_epochs_.push_back(std::move(head_owner_));
  head_owner_ = std::move(next);
  head_.store(head_owner_.get());
  sweep_retired_epochs();
}

void ReconfigurationService::sweep_retired_epochs() const {
  std::erase_if(retired_epochs_, [this](const std::shared_ptr<const Epoch>& epoch) {
    const Epoch* raw = epoch.get();
    if (raw == head_.load()) return false;
    for (const auto& slot : pinned_) {
      if (slot.load() == raw) return false;  // still pinned by a reader
    }
    return true;
  });
}

ReconfigurationService::Reader ReconfigurationService::reader() {
  std::lock_guard<std::mutex> lock(mu_);
  for (std::size_t i = 0; i < kMaxReaders; ++i) {
    if (!slot_used_[i].load()) {
      slot_used_[i].store(true);
      pinned_[i].store(nullptr);
      return Reader(this, i);
    }
  }
  throw std::runtime_error("ReconfigurationService::reader: all reader slots in use");
}

std::shared_ptr<const Epoch> ReconfigurationService::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  sweep_retired_epochs();
  return head_owner_;
}

ReconfigurationService::ServiceStats ReconfigurationService::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  sweep_retired_epochs();
  ServiceStats s;
  s.epoch = head_owner_->id;
  s.epochs_live = 1 + retired_epochs_.size();
  s.faults_outstanding = recon_.faults_outstanding();
  s.spares_remaining = recon_.spares_remaining();
  s.spare_budget = recon_.spare_budget();
  s.degraded = head_owner_->degraded;
  s.journal_records = journal_ ? journal_->num_records() : 0;
  s.journal_bytes = journal_ ? journal_->size_bytes() : 0;
  s.replayed_events = replayed_;
  s.bare = head_owner_->bare->stats();
  return s;
}

std::uint64_t ReconfigurationService::state_hash() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::uint64_t h = kFnvOffset;
  fnv_mix(h, head_owner_->retired.size());
  for (const NodeId node : head_owner_->retired) fnv_mix(h, node);
  for (const NodeId p : head_owner_->phi) fnv_mix(h, p);
  fnv_mix(h, head_owner_->degraded ? 1 : 0);
  fnv_mix(h, head_owner_->bare->stats().state_hash);
  return h;
}

// ---- Reader ----

ReconfigurationService::Reader::Reader(Reader&& other) noexcept
    : service_(other.service_), slot_(other.slot_) {
  other.service_ = nullptr;
}

ReconfigurationService::Reader::~Reader() {
  if (service_ == nullptr) return;
  service_->pinned_[slot_].store(nullptr);
  service_->slot_used_[slot_].store(false);
}

const Epoch* ReconfigurationService::Reader::pin() const {
  auto& slot = service_->pinned_[slot_];
  const Epoch* epoch = service_->head_.load();
  for (;;) {
    // Publish the claim, then re-validate: if the head moved between the load
    // and the claim, the writer's sweep may not have seen the pin, so retry
    // with the new head. A validated pin is protected — every sweep checks
    // the slot before reclaiming. (The pointer is not dereferenced until
    // validated, so a stale claim is harmless.)
    slot.store(epoch);
    const Epoch* head_now = service_->head_.load();
    if (head_now == epoch) return epoch;
    epoch = head_now;
  }
}

void ReconfigurationService::Reader::unpin() const {
  service_->pinned_[slot_].store(nullptr);
}

std::uint64_t ReconfigurationService::Reader::epoch_id() const {
  const Epoch* e = pin();
  const std::uint64_t id = e->id;
  unpin();
  return id;
}

bool ReconfigurationService::Reader::degraded() const {
  const Epoch* e = pin();
  const bool d = e->degraded;
  unpin();
  return d;
}

NodeId ReconfigurationService::Reader::next_hop(NodeId dest, NodeId node) const {
  const std::size_t n = service_->target_.num_nodes();
  if (dest >= n || node >= n) {
    throw std::out_of_range("Reader::next_hop: logical id out of range");
  }
  const NodeId hop = service_->healthy_->next_hop(dest, node);
  const Epoch* e = pin();
  const NodeId physical = e->phi[hop];
  unpin();
  return physical;
}

void ReconfigurationService::Reader::next_hops(std::span<const NodeId> dests,
                                               std::span<const NodeId> nodes,
                                               std::span<NodeId> out) const {
  if (dests.size() != nodes.size() || dests.size() != out.size()) {
    throw std::invalid_argument("Reader::next_hops: span sizes differ");
  }
  const std::size_t n = service_->target_.num_nodes();
  for (std::size_t i = 0; i < dests.size(); ++i) {
    if (dests[i] >= n || nodes[i] >= n) {
      throw std::out_of_range("Reader::next_hops: logical id out of range");
    }
  }
  service_->healthy_->route_many(dests, nodes, out);
  const Epoch* e = pin();
  for (NodeId& hop : out) hop = e->phi[hop];
  unpin();
}

std::vector<NodeId> ReconfigurationService::Reader::route(NodeId from, NodeId dest) const {
  const std::size_t n = service_->target_.num_nodes();
  if (dest >= n || from >= n) {
    throw std::out_of_range("Reader::route: logical id out of range");
  }
  std::vector<NodeId> path = service_->healthy_->path(from, dest);
  const Epoch* e = pin();
  for (NodeId& node : path) node = e->phi[node];
  unpin();
  return path;
}

NodeId ReconfigurationService::Reader::bare_next_hop(NodeId dest, NodeId node) const {
  const std::size_t n = service_->target_.num_nodes();
  if (dest >= n || node >= n) {
    throw std::out_of_range("Reader::bare_next_hop: logical id out of range");
  }
  const Epoch* e = pin();
  const NodeId hop = e->bare->next_hop(dest, node);
  unpin();
  return hop;
}

std::vector<NodeId> ReconfigurationService::Reader::bare_route(NodeId from, NodeId dest) const {
  const std::size_t n = service_->target_.num_nodes();
  if (dest >= n || from >= n) {
    throw std::out_of_range("Reader::bare_route: logical id out of range");
  }
  const Epoch* e = pin();
  std::vector<NodeId> path = e->bare->path(from, dest);
  unpin();
  return path;
}

}  // namespace ftdb::serve
