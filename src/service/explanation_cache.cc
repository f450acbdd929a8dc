#include "service/explanation_cache.h"

#include "common/logging.h"
#include "service/json_relay.h"

namespace dpclustx::service {

StatusOr<std::shared_ptr<const CachedRelease>> CachedRelease::FromBody(
    const JsonValue& body) {
  if (body.type() != JsonValue::Type::kObject) {
    return Status::InvalidArgument("release body is not a JSON object");
  }
  if (!body.IsFinite()) {
    return Status::InvalidArgument("release body holds a non-finite number");
  }
  std::shared_ptr<CachedRelease> release(new CachedRelease());
  release->bytes_ = body.Dump();
  DPX_ASSIGN_OR_RETURN(const std::vector<JsonMember> members,
                       ScanTopLevelMembers(release->bytes_));
  // Dump writes the members in ObjectKeys order.
  const std::vector<std::string> keys = body.ObjectKeys();
  DPX_CHECK_EQ(keys.size(), members.size());
  release->members_.reserve(keys.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    release->members_.push_back(
        Member{keys[i], members[i].value_begin, members[i].value_end});
  }
  return std::shared_ptr<const CachedRelease>(std::move(release));
}

StatusOr<std::shared_ptr<const CachedRelease>> CachedRelease::FromBytes(
    const std::string& bytes) {
  DPX_ASSIGN_OR_RETURN(const JsonValue body, JsonValue::Parse(bytes));
  return FromBody(body);
}

JsonValue CachedRelease::Body() const {
  JsonValue body = JsonValue::Object();
  for (const Member& member : members_) {
    body.Set(member.key, JsonValue::Serialized(bytes_.substr(
                             member.begin, member.end - member.begin)));
  }
  return body;
}

ExplanationCache::ExplanationCache(size_t capacity) : capacity_(capacity) {
  DPX_CHECK_GT(capacity, 0u) << "cache capacity must be >= 1";
}

std::shared_ptr<const CachedRelease> ExplanationCache::Get(
    const std::string& key) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = index_.find(key);
  if (it == index_.end()) {
    ++misses_;
    return nullptr;
  }
  ++hits_;
  lru_.splice(lru_.begin(), lru_, it->second);
  return it->second->release;
}

void ExplanationCache::Put(const std::string& key,
                           std::shared_ptr<const CachedRelease> release) {
  DPX_CHECK(release != nullptr);
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = index_.find(key);
  if (it != index_.end()) {
    it->second->release = std::move(release);
    lru_.splice(lru_.begin(), lru_, it->second);
    return;
  }
  lru_.push_front(Node{key, std::move(release)});
  index_.emplace(key, lru_.begin());
  if (index_.size() > capacity_) {
    index_.erase(lru_.back().key);
    lru_.pop_back();
    ++evictions_;
  }
}

std::vector<std::pair<std::string, std::string>> ExplanationCache::Entries()
    const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::pair<std::string, std::string>> entries;
  entries.reserve(lru_.size());
  for (auto it = lru_.rbegin(); it != lru_.rend(); ++it) {
    entries.emplace_back(it->key, it->release->bytes());
  }
  return entries;
}

uint64_t ExplanationCache::hits() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return hits_;
}

uint64_t ExplanationCache::misses() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return misses_;
}

uint64_t ExplanationCache::evictions() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return evictions_;
}

size_t ExplanationCache::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return lru_.size();
}

}  // namespace dpclustx::service
