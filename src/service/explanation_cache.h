// Result cache for released explanations.
//
// A DP release is data the framework has already paid ε for; re-serving the
// *same* release bytes is post-processing and free (paper Prop. 2.4). The
// cache keys on everything that determines the release exactly — dataset
// uid and epoch, clustering fingerprint, ε split, mechanism options, and
// seed — so a hit returns byte-identical output and charges zero additional
// ε. Distinct seeds are distinct releases and never collide, so caching
// cannot be used to average away noise.
//
// An entry is a CachedRelease: the release body's bytes exactly as
// JsonValue::Dump wrote them, plus where each top-level member's value lies
// in those bytes (found once, by json_relay's member scanner). A hit
// answers with CachedRelease::Body(), whose members are JsonValue::Serialized
// nodes over those bytes: the response envelope is added as for any other
// reply, and the release itself is neither parsed nor dumped again. The
// only way to make a CachedRelease is CachedRelease::FromBody, which refuses
// a body that is not an object or holds a non-finite number — so a release
// that Dump would have written with `null` holes is never cached, and a
// restored snapshot payload passes the same check (FromBytes) before it is
// served.
//
// Bounded LRU; releases are shared as immutable objects so hits copy
// nothing under the lock.

#ifndef DPCLUSTX_SERVICE_EXPLANATION_CACHE_H_
#define DPCLUSTX_SERVICE_EXPLANATION_CACHE_H_

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/json.h"
#include "common/status.h"

namespace dpclustx::service {

/// One stored release body: its Dump bytes and its top-level members.
class CachedRelease {
 public:
  /// Dumps `body` once and records its members. InvalidArgument when `body`
  /// is not an object or holds a non-finite number.
  static StatusOr<std::shared_ptr<const CachedRelease>> FromBody(
      const JsonValue& body);
  /// Parses `bytes` (a snapshot's cache payload), then FromBody.
  static StatusOr<std::shared_ptr<const CachedRelease>> FromBytes(
      const std::string& bytes);

  /// The body exactly as Dump wrote it.
  const std::string& bytes() const { return bytes_; }
  /// The body as an object of JsonValue::Serialized members: setting more
  /// members and dumping it gives the bytes parse → Set → Dump would.
  JsonValue Body() const;

 private:
  struct Member {
    std::string key;
    size_t begin = 0;  // the value's bytes in bytes_
    size_t end = 0;
  };
  CachedRelease() = default;

  std::string bytes_;
  std::vector<Member> members_;
};

class ExplanationCache {
 public:
  explicit ExplanationCache(size_t capacity = 1024);

  /// Returns the cached release (promoting it to most-recent) or nullptr.
  std::shared_ptr<const CachedRelease> Get(const std::string& key);

  /// Inserts (or refreshes) `release`, evicting the least-recently-used
  /// entry when over capacity.
  void Put(const std::string& key,
           std::shared_ptr<const CachedRelease> release);

  /// Every cached (key, release bytes), least-recently-used first — so
  /// replaying the list through Put rebuilds the identical LRU order.
  /// Snapshot harvest; releases are already-paid-for DP outputs, safe to
  /// persist.
  std::vector<std::pair<std::string, std::string>> Entries() const;

  uint64_t hits() const;
  uint64_t misses() const;
  uint64_t evictions() const;
  size_t size() const;
  size_t capacity() const { return capacity_; }

 private:
  struct Node {
    std::string key;
    std::shared_ptr<const CachedRelease> release;
  };

  const size_t capacity_;
  mutable std::mutex mutex_;
  std::list<Node> lru_;  // front = most recently used; guarded by mutex_
  std::unordered_map<std::string, std::list<Node>::iterator>
      index_;  // guarded by mutex_
  uint64_t hits_ = 0;       // guarded by mutex_
  uint64_t misses_ = 0;     // guarded by mutex_
  uint64_t evictions_ = 0;  // guarded by mutex_
};

}  // namespace dpclustx::service

#endif  // DPCLUSTX_SERVICE_EXPLANATION_CACHE_H_
