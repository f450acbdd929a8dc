// ServiceEngine: the session-keyed ops (create_session, close_session,
// budget, explain, hist, size) and the release-once protocol behind the
// cached releases. The op table and dispatch live in service_engine.cc.
#include "service/service_engine.h"

#include <cinttypes>
#include <cstdio>
#include <mutex>
#include <random>

#include "common/logging.h"
#include "core/explainer.h"
#include "core/explanation.h"
#include "core/serialization.h"
#include "dp/dp_histogram.h"
#include "dp/mechanisms.h"
#include "obs/trace.h"

namespace dpclustx::service {

namespace {

/// Base of the server-drawn seeds under insecure_deterministic_noise.
constexpr uint64_t kDeterministicNoiseBase = 0x5eed5eedULL;

JsonValue HistogramToJson(const Histogram& histogram, const Attribute& attr) {
  JsonValue bins = JsonValue::Array();
  for (ValueCode code = 0; code < histogram.domain_size(); ++code) {
    JsonValue bin = JsonValue::Object();
    bin.Set("value", JsonValue::String(attr.label(code)));
    bin.Set("count", JsonValue::Number(histogram.bin(code)));
    bins.Append(std::move(bin));
  }
  return bins;
}

}  // namespace

uint64_t ServiceEngine::NextNoiseSeed() {
  const uint64_t n = noise_sequence_.fetch_add(1, std::memory_order_relaxed);
  uint64_t base;
  if (options_.insecure_deterministic_noise) {
    base = kDeterministicNoiseBase;
  } else {
    // Clients must not be able to predict (let alone choose) the seed:
    // mechanism noise is data-independent, so a predictable seed lets a
    // caller recompute the noise and subtract it from the response.
    static std::mutex device_mutex;
    static std::random_device device;
    std::lock_guard<std::mutex> lock(device_mutex);
    base = (static_cast<uint64_t>(device()) << 32) ^ device();
  }
  // splitmix64 finalizer over base + draw counter: decorrelates consecutive
  // draws even if the entropy source is weak on this platform.
  uint64_t z = base + 0x9e3779b97f4a7c15ULL * (n + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

StatusOr<uint64_t> ServiceEngine::RequestNoiseSeed(const JsonValue& request) {
  if (request.Has("seed")) {
    if (!options_.insecure_deterministic_noise) {
      return Status::InvalidArgument(
          "'seed' is not accepted on noisy ops: noise seeds are drawn "
          "server-side (a client-chosen seed would let the caller subtract "
          "the mechanism noise and recover exact counts)");
    }
    DPX_ASSIGN_OR_RETURN(const size_t pinned, OptCount(request, "seed", 0));
    return static_cast<uint64_t>(pinned);
  }
  return NextNoiseSeed();
}

std::shared_ptr<ServiceEngine::InflightSlot> ServiceEngine::AcquireInflight(
    const std::string& key) {
  std::lock_guard<std::mutex> lock(inflight_mutex_);
  std::shared_ptr<InflightSlot>& slot = inflight_[key];
  if (slot == nullptr) slot = std::make_shared<InflightSlot>();
  ++slot->refs;
  return slot;
}

void ServiceEngine::ReleaseInflight(const std::string& key) {
  std::lock_guard<std::mutex> lock(inflight_mutex_);
  auto it = inflight_.find(key);
  DPX_CHECK(it != inflight_.end()) << "release without acquire";
  if (--it->second->refs == 0) inflight_.erase(it);
}

StatusOr<std::shared_ptr<ServiceSession>> ServiceEngine::SessionOf(
    const JsonValue& request) {
  DPX_ASSIGN_OR_RETURN(const std::string id, request.GetString("session"));
  return sessions_.Get(id);
}

StatusOr<JsonValue> ServiceEngine::OpCreateSession(const JsonValue& request,
                                                   const Deadline&) {
  DPX_ASSIGN_OR_RETURN(const std::string session_id,
                       request.GetString("session"));
  DPX_ASSIGN_OR_RETURN(const std::string name, request.GetString("dataset"));
  DPX_ASSIGN_OR_RETURN(const double epsilon, request.GetNumber("epsilon"));
  DPX_ASSIGN_OR_RETURN(const std::shared_ptr<DatasetEntry> entry,
                       registry_.Get(name));
  DPX_ASSIGN_OR_RETURN(const std::shared_ptr<ServiceSession> session,
                       sessions_.Create(session_id, entry, epsilon));
  JsonValue body = JsonValue::Object();
  body.Set("session", JsonValue::String(session_id));
  body.Set("dataset", JsonValue::String(name));
  body.Set("epsilon", JsonValue::Number(session->budget().total_epsilon()));
  return body;
}

StatusOr<JsonValue> ServiceEngine::OpCloseSession(const JsonValue& request,
                                                  const Deadline&) {
  DPX_ASSIGN_OR_RETURN(const std::string session_id,
                       request.GetString("session"));
  DPX_RETURN_IF_ERROR(sessions_.Close(session_id));
  JsonValue body = JsonValue::Object();
  body.Set("session", JsonValue::String(session_id));
  body.Set("closed", JsonValue::Bool(true));
  return body;
}

StatusOr<JsonValue> ServiceEngine::OpBudget(const JsonValue& request,
                                            const Deadline&) {
  DPX_ASSIGN_OR_RETURN(const std::shared_ptr<ServiceSession> session,
                       SessionOf(request));
  const PrivacyBudget& budget = session->budget();
  // One row per charge label; the per-charge history is the audit op's.
  const PrivacyBudget::State state = budget.state();
  JsonValue ledger = JsonValue::Array();
  for (const PrivacyBudget::LabelTotal& total : state.totals) {
    JsonValue row = JsonValue::Object();
    row.Set("label", JsonValue::String(total.label));
    row.Set("count", JsonValue::Number(static_cast<double>(total.count)));
    row.Set("epsilon", JsonValue::Number(total.epsilon));
    ledger.Append(std::move(row));
  }
  JsonValue body = JsonValue::Object();
  body.Set("session", JsonValue::String(session->id()));
  body.Set("dataset", JsonValue::String(session->dataset()->name()));
  body.Set("total", JsonValue::Number(budget.total_epsilon()));
  body.Set("spent", JsonValue::Number(state.spent));
  body.Set("remaining", JsonValue::Number(budget.remaining_epsilon()));
  body.Set("ledger", std::move(ledger));
  if (const PrivacyBudget* cap = session->dataset()->cap()) {
    body.Set("dataset_cap_total", JsonValue::Number(cap->total_epsilon()));
    body.Set("dataset_cap_remaining",
             JsonValue::Number(cap->remaining_epsilon()));
  }
  return body;
}

StatusOr<JsonValue> ServiceEngine::OpExplain(const JsonValue& request,
                                             const Deadline& deadline) {
  DPX_ASSIGN_OR_RETURN(const std::shared_ptr<ServiceSession> session,
                       SessionOf(request));
  DPX_ASSIGN_OR_RETURN(const std::string clustering_id,
                       OptString(request, "clustering", "default"));
  // Epoch read BEFORE the view: if an append lands in between, we hold the
  // old epoch with (at worst) the new view and cache under a key no future
  // request uses — never a stale view under the new epoch's key.
  const uint64_t epoch = session->dataset()->epoch();
  DPX_ASSIGN_OR_RETURN(const std::shared_ptr<const ClusteringView> view,
                       session->dataset()->GetClustering(clustering_id));

  DPX_ASSIGN_OR_RETURN(const double epsilon,
                       OptNumber(request, "epsilon", 0.3));
  DpClustXOptions options;
  DPX_ASSIGN_OR_RETURN(options.epsilon_cand_set,
                       OptNumber(request, "epsilon_cand_set", epsilon / 3.0));
  DPX_ASSIGN_OR_RETURN(options.epsilon_top_comb,
                       OptNumber(request, "epsilon_top_comb", epsilon / 3.0));
  DPX_ASSIGN_OR_RETURN(options.epsilon_hist,
                       OptNumber(request, "epsilon_hist", epsilon / 3.0));
  DPX_ASSIGN_OR_RETURN(options.num_candidates,
                       OptCount(request, "num_candidates", 3));
  DPX_ASSIGN_OR_RETURN(options.num_threads, OptCount(request, "threads", 1));
  options.deadline = deadline;
  // Pinned seeds are test-only (rejected here in the secure configuration);
  // otherwise the seed is drawn server-side at compute time below.
  const bool pinned_seed = request.Has("seed");
  uint64_t seed = 0;
  if (pinned_seed) {
    DPX_ASSIGN_OR_RETURN(seed, RequestNoiseSeed(request));
  }
  if (options.num_threads == 0) options.num_threads = 1;
  if (options.epsilon_cand_set <= 0.0 || options.epsilon_top_comb <= 0.0 ||
      options.epsilon_hist <= 0.0) {
    return Status::InvalidArgument("all epsilon splits must be positive");
  }
  if (options.num_candidates == 0) {
    return Status::InvalidArgument("num_candidates must be >= 1");
  }
  const double total_epsilon = options.epsilon_cand_set +
                               options.epsilon_top_comb +
                               options.epsilon_hist;

  // Refusals that depend only on the schema, |D| and |C| happen here, before
  // ReleaseOnce can charge anything.
  DPX_RETURN_IF_ERROR(options.ValidateShape(view->stats->num_rows(),
                                            view->stats->num_attributes(),
                                            view->num_clusters));

  // The key covers everything that determines the release bytes (not
  // threads: the release is identical at any thread count). Server-seeded
  // requests key on "seed=auto": identical requests share the first
  // paid-for release.
  char key[320];
  std::snprintf(key, sizeof(key),
                "ds=%" PRIu64 " ep=%" PRIu64
                " cl=%s|%s ecs=%.17g etc=%.17g eh=%.17g k=%zu seed=%s",
                session->dataset()->uid(), epoch, clustering_id.c_str(),
                view->fingerprint.c_str(), options.epsilon_cand_set,
                options.epsilon_top_comb, options.epsilon_hist,
                options.num_candidates,
                pinned_seed ? std::to_string(seed).c_str() : "auto");

  return ReleaseOnce(
      request, key, *session, total_epsilon, "explain " + clustering_id,
      deadline, [&]() -> StatusOr<JsonValue> {
        // Fault point between the charge and the compute: a hook that
        // sleeps here (with the check that follows) exercises post-spend
        // cancellation; one that returns an error simulates a compute
        // failure after budget was committed.
        DPX_RETURN_IF_ERROR(InjectFault("explain:compute", request, nullptr));
        DPX_RETURN_IF_ERROR(deadline.Check("explain compute"));
        options.seed = pinned_seed ? seed : NextNoiseSeed();
        DPX_ASSIGN_OR_RETURN(const GlobalExplanation explanation, [&] {
          DPX_SPAN("explain_compute");
          return ExplainDpClustXWithStats(*view->stats, options, nullptr);
        }());
        const std::shared_ptr<const Dataset> dataset =
            session->dataset()->dataset();
        const Schema& schema = dataset->schema();
        JsonValue body = JsonValue::Object();
        body.Set("explanation", ExplanationToJsonValue(explanation, schema));
        body.Set("text", JsonValue::String(
                             RenderGlobalExplanation(explanation, schema)));
        return body;
      });
}

StatusOr<JsonValue> ServiceEngine::OpHist(const JsonValue& request,
                                          const Deadline&) {
  DPX_ASSIGN_OR_RETURN(const std::shared_ptr<ServiceSession> session,
                       SessionOf(request));
  DPX_ASSIGN_OR_RETURN(const std::string clustering_id,
                       OptString(request, "clustering", "default"));
  // Epoch before the view — see the ordering note in OpExplain.
  const uint64_t epoch = session->dataset()->epoch();
  DPX_ASSIGN_OR_RETURN(const std::shared_ptr<const ClusteringView> view,
                       session->dataset()->GetClustering(clustering_id));
  DPX_ASSIGN_OR_RETURN(const std::string attr_name,
                       request.GetString("attribute"));
  DPX_ASSIGN_OR_RETURN(const double epsilon,
                       OptNumber(request, "epsilon", 0.02));
  const std::shared_ptr<const Dataset> dataset = session->dataset()->dataset();
  const Schema& schema = dataset->schema();
  DPX_ASSIGN_OR_RETURN(const AttrIndex attr, schema.FindAttribute(attr_name));
  // Pinned seeds are test-only (RequestNoiseSeed rejects them in the secure
  // configuration); otherwise the seed is drawn at compute time below.
  const bool pinned_seed = request.Has("seed");
  uint64_t seed = 0;
  if (pinned_seed) {
    DPX_ASSIGN_OR_RETURN(seed, RequestNoiseSeed(request));
  }

  // Hist releases cache like explain releases: a repeat of an identical
  // request re-serves the paid-for bytes for zero ε (post-processing), and
  // server-seeded requests key on "seed=auto" so they share one release.
  char key[256];
  std::snprintf(key, sizeof(key),
                "hist ds=%" PRIu64 " ep=%" PRIu64
                " cl=%s|%s attr=%s eps=%.17g seed=%s",
                session->dataset()->uid(), epoch, clustering_id.c_str(),
                view->fingerprint.c_str(), attr_name.c_str(), epsilon,
                pinned_seed ? std::to_string(seed).c_str() : "auto");

  // One round of per-cluster histograms over disjoint clusters: parallel
  // composition, a single charge of `epsilon` covers all of them.
  return ReleaseOnce(
      request, key, *session, epsilon,
      "hist attr=" + attr_name + " [parallel x" +
          std::to_string(view->num_clusters) + "]",
      // Hist's only deadline checkpoint is the one at dispatch.
      Deadline(), [&]() -> StatusOr<JsonValue> {
        Rng rng(pinned_seed ? seed : NextNoiseSeed());
        JsonValue clusters = JsonValue::Array();
        for (size_t c = 0; c < view->num_clusters; ++c) {
          DPX_ASSIGN_OR_RETURN(
              const Histogram noisy,
              ReleaseDpHistogram(
                  view->stats->cluster_histogram(static_cast<ClusterId>(c),
                                                 attr),
                  epsilon, rng, DpHistogramOptions{}));
          JsonValue entry = JsonValue::Object();
          entry.Set("cluster", JsonValue::Number(static_cast<double>(c)));
          entry.Set("bins", HistogramToJson(noisy, schema.attribute(attr)));
          clusters.Append(std::move(entry));
        }
        JsonValue body = JsonValue::Object();
        body.Set("attribute", JsonValue::String(attr_name));
        body.Set("clusters", std::move(clusters));
        return body;
      });
}

StatusOr<JsonValue> ServiceEngine::ReleaseOnce(
    const JsonValue& request, const std::string& key, ServiceSession& session,
    double epsilon, const std::string& spend_label, const Deadline& deadline,
    const std::function<StatusOr<JsonValue>()>& compute) {
  // Dispatch resolved the op through the table, so the field is a string.
  const std::string& op = request.at("op").AsString();
  std::shared_ptr<const CachedRelease> release;
  {
    DPX_SPAN("cache_lookup");
    release = cache_.Get(key);
  }
  bool cache_hit = release != nullptr;
  if (!cache_hit) {
    // Miss: serialize concurrent identical requests on a per-key lock so
    // exactly one of them spends ε and computes; the others block here,
    // then find the release cached below (a dual charge would silently
    // burn double budget).
    const std::shared_ptr<InflightSlot> slot = AcquireInflight(key);
    struct SlotRelease {
      ServiceEngine* engine;
      const std::string& key;
      ~SlotRelease() { engine->ReleaseInflight(key); }
    } slot_release{this, key};
    std::unique_lock<std::mutex> in_flight(slot->mutex, std::defer_lock);
    {
      DPX_SPAN("inflight_wait");
      in_flight.lock();
      release = cache_.Get(key);
    }
    cache_hit = release != nullptr;
    if (!cache_hit) {
      // A replica serves hits above for free but must not charge ε; the
      // router retries the miss against the primary.
      DPX_RETURN_IF_ERROR(
          RefuseIfReadOnly((op + " (uncached)").c_str()));
      // The slot wait above can block behind another request's compute;
      // re-check the deadline so a request that expired waiting charges
      // nothing. Past the Spend below there are no refunds.
      DPX_RETURN_IF_ERROR(
          deadline.Check((op + " inflight wait").c_str()));
      {
        DPX_SPAN("budget_check");
        DPX_RETURN_IF_ERROR(session.Spend(epsilon, spend_label));
      }
      DPX_ASSIGN_OR_RETURN(JsonValue body, compute());
      // Fault point between the compute and the cache: a hook that poisons
      // the body here checks that a non-finite release is never cached.
      DPX_RETURN_IF_ERROR(InjectFault(op + ":release", request, &body));
      // The one serialization of the release: a non-finite body is refused
      // here (and so never cached), exactly as Dispatch would suppress it.
      StatusOr<std::shared_ptr<const CachedRelease>> stored =
          CachedRelease::FromBody(body);
      if (!stored.ok()) return NonFiniteRefusal(op);
      release = std::move(*stored);
      cache_.Put(key, release);
    }
  }
  // A hit is post-processing an already-paid-for release: identical bytes,
  // zero ε. Hit or miss, the body's members are the stored bytes.
  JsonValue body = release->Body();
  body.Set("cache_hit", JsonValue::Bool(cache_hit));
  body.Set("epsilon_charged", JsonValue::Number(cache_hit ? 0.0 : epsilon));
  body.Set("epsilon_remaining",
           JsonValue::Number(session.budget().remaining_epsilon()));
  return body;
}

StatusOr<JsonValue> ServiceEngine::OpSize(const JsonValue& request,
                                          const Deadline&) {
  DPX_ASSIGN_OR_RETURN(const std::shared_ptr<ServiceSession> session,
                       SessionOf(request));
  DPX_ASSIGN_OR_RETURN(const std::string clustering_id,
                       OptString(request, "clustering", "default"));
  DPX_ASSIGN_OR_RETURN(const std::shared_ptr<const ClusteringView> view,
                       session->dataset()->GetClustering(clustering_id));
  DPX_ASSIGN_OR_RETURN(const size_t cluster, OptCount(request, "cluster", 0));
  DPX_ASSIGN_OR_RETURN(const double epsilon,
                       OptNumber(request, "epsilon", 0.01));
  DPX_ASSIGN_OR_RETURN(const uint64_t seed, RequestNoiseSeed(request));
  if (cluster >= view->num_clusters) {
    return Status::InvalidArgument("cluster " + std::to_string(cluster) +
                                   " out of range");
  }
  DPX_RETURN_IF_ERROR(session->Spend(
      epsilon, "size c=" + std::to_string(cluster)));
  Rng rng(seed);
  DPX_ASSIGN_OR_RETURN(
      const int64_t noisy,
      GeometricMechanism(
          static_cast<int64_t>(
              view->stats->cluster_size(static_cast<ClusterId>(cluster))),
          /*sensitivity=*/1.0, epsilon, rng));
  JsonValue body = JsonValue::Object();
  body.Set("cluster", JsonValue::Number(static_cast<double>(cluster)));
  body.Set("noisy_size", JsonValue::Number(static_cast<double>(noisy)));
  body.Set("epsilon_charged", JsonValue::Number(epsilon));
  body.Set("epsilon_remaining",
           JsonValue::Number(session->budget().remaining_epsilon()));
  return body;
}
}  // namespace dpclustx::service
