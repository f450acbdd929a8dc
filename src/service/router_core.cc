#include "service/router_core.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"

namespace dpclustx::service {

uint64_t RouterHash(const std::string& key) {
  // FNV-1a 64-bit, then a splitmix64-style finalizer. Raw FNV-1a is stable
  // and endianness-free but avalanches poorly on near-identical inputs —
  // the ring's vnode keys differ only in a numeric suffix, and without the
  // mix their points cluster badly enough to starve shards.
  uint64_t h = 0xcbf29ce484222325ULL;
  for (unsigned char c : key) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  h ^= h >> 30;
  h *= 0xbf58476d1ce4e5b9ULL;
  h ^= h >> 27;
  h *= 0x94d049bb133111ebULL;
  h ^= h >> 31;
  return h;
}

HashRing::HashRing(std::vector<std::string> nodes, size_t vnodes)
    : nodes_(std::move(nodes)) {
  ring_.reserve(nodes_.size() * vnodes);
  for (size_t i = 0; i < nodes_.size(); ++i) {
    for (size_t v = 0; v < vnodes; ++v) {
      ring_.emplace_back(
          RouterHash(nodes_[i] + "#" + std::to_string(v)), i);
    }
  }
  std::sort(ring_.begin(), ring_.end());
}

const std::string& HashRing::Route(const std::string& key) const {
  DPX_CHECK(!ring_.empty()) << "Route on an empty ring";
  const uint64_t h = RouterHash(key);
  auto it = std::lower_bound(
      ring_.begin(), ring_.end(), std::make_pair(h, size_t{0}));
  if (it == ring_.end()) it = ring_.begin();  // wrap: the ring is circular
  return nodes_[it->second];
}

std::optional<std::string> SessionTable::Bind(const std::string& session,
                                              const std::string& dataset) {
  std::lock_guard<std::mutex> lock(mutex_);
  std::optional<std::string> replaced;
  auto it = bindings_.find(session);
  if (it != bindings_.end()) replaced = it->second;
  bindings_[session] = dataset;
  return replaced;
}

std::optional<std::string> SessionTable::Unbind(const std::string& session) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = bindings_.find(session);
  if (it == bindings_.end()) return std::nullopt;
  std::optional<std::string> replaced = std::move(it->second);
  bindings_.erase(it);
  return replaced;
}

StatusOr<std::string> SessionTable::Lookup(const std::string& session) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = bindings_.find(session);
  if (it == bindings_.end()) {
    return Status::NotFound(
        "session '" + session +
        "' is not bound through this router (create_session must go "
        "through the router so it can learn the session's shard)");
  }
  return it->second;
}

size_t SessionTable::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return bindings_.size();
}

int64_t Backoff::DelayMs(uint64_t attempt) const {
  if (attempt <= 1) return base_ms;
  // base * 2^(attempt-1) without overflow: stop doubling at the cap.
  int64_t delay = base_ms;
  for (uint64_t i = 1; i < attempt && delay < max_ms; ++i) delay *= 2;
  return std::min(delay, max_ms);
}

int64_t Backoff::JitteredDelayMs(uint64_t attempt, double unit_random) const {
  if (unit_random < 0.0) unit_random = 0.0;
  if (unit_random >= 1.0) unit_random = std::nextafter(1.0, 0.0);
  const double factor = 0.8 + 0.4 * unit_random;
  const auto jittered =
      static_cast<int64_t>(static_cast<double>(DelayMs(attempt)) * factor);
  return std::max<int64_t>(jittered, 1);
}

RouterCore::RouterCore(std::vector<std::string> shards, size_t vnodes)
    : ring_(std::move(shards), vnodes) {}

const std::string& RouterCore::ShardFor(const std::string& dataset) const {
  return ring_.Route(dataset);
}

StatusOr<RouteDecision> RouterCore::Classify(const JsonValue& request) {
  DPX_ASSIGN_OR_RETURN(const std::string op, request.GetString("op"));
  DPX_ASSIGN_OR_RETURN(const OpSpec* spec, ServiceEngine::FindOp(op));
  RouteDecision decision;
  decision.placement = spec->placement;
  switch (spec->key) {
    case OpKey::kNone:
      break;
    case OpKey::kName: {
      DPX_ASSIGN_OR_RETURN(decision.dataset, request.GetString("name"));
      break;
    }
    case OpKey::kDataset: {
      DPX_ASSIGN_OR_RETURN(decision.dataset, request.GetString("dataset"));
      break;
    }
    case OpKey::kDatasetBind: {
      DPX_ASSIGN_OR_RETURN(decision.dataset, request.GetString("dataset"));
      DPX_ASSIGN_OR_RETURN(decision.session, request.GetString("session"));
      decision.replaced = sessions_.Bind(decision.session, decision.dataset);
      decision.rebound = true;
      break;
    }
    case OpKey::kSession:
    case OpKey::kSessionUnbind: {
      DPX_ASSIGN_OR_RETURN(const std::string session,
                           request.GetString("session"));
      DPX_ASSIGN_OR_RETURN(decision.dataset, sessions_.Lookup(session));
      if (spec->key == OpKey::kSessionUnbind) {
        decision.session = session;
        decision.replaced = sessions_.Unbind(session);
        decision.rebound = true;
      }
      break;
    }
  }
  return decision;
}

void RouterCore::UndoBinding(const RouteDecision& decision) {
  if (!decision.rebound) return;
  if (decision.replaced.has_value()) {
    sessions_.Bind(decision.session, *decision.replaced);
  } else {
    sessions_.Unbind(decision.session);
  }
}

}  // namespace dpclustx::service
