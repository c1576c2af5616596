#include "serve/dispatcher.h"

#ifdef __linux__
#include <sys/resource.h>
#include <sys/syscall.h>
#include <unistd.h>
#endif

#include <algorithm>
#include <array>
#include <bit>
#include <functional>
#include <span>
#include <string_view>
#include <type_traits>
#include <utility>

#include "common/check.h"
#include "common/task_crew.h"
#include "prng/chacha20.h"

namespace cgs::serve {

namespace {

std::uint64_t elapsed_us(std::chrono::steady_clock::time_point since) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - since)
          .count());
}

// SplitMix64 finalizer: the shard router's mixing step. Fingerprints and
// IEEE-754 bit patterns are far from uniform in their low bits; lane index
// = mix(key) % lanes must not systematically collide tenants.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

std::uint64_t gauss_shard_key(double sigma, double center) {
  return mix64(std::bit_cast<std::uint64_t>(sigma)) ^
         mix64(~std::bit_cast<std::uint64_t>(center));
}

// The class properties the shared lane code reads: trace class (whose
// name prefixes every series), lane count, whether its batches linger for
// company (only where grouping fills sign_many / verify_many), and where
// the class's lanes and latency quantiles land in a MetricsSnapshot.
template <typename Req>
struct ClassTraits;
template <>
struct ClassTraits<SignRequest> {
  static constexpr auto kClass = obs::RequestClass::kSign;
  static constexpr bool kLingers = true;
  static int lane_count(const DispatcherOptions& o) { return o.sign_lanes; }
  static constexpr auto kSnapshot = &MetricsSnapshot::sign_lanes;
  static constexpr auto kLatency = &MetricsSnapshot::sign_latency;
};
template <>
struct ClassTraits<VerifyRequest> {
  static constexpr auto kClass = obs::RequestClass::kVerify;
  static constexpr bool kLingers = true;
  static int lane_count(const DispatcherOptions& o) { return o.verify_lanes; }
  static constexpr auto kSnapshot = &MetricsSnapshot::verify_lanes;
  static constexpr auto kLatency = &MetricsSnapshot::verify_latency;
};
template <>
struct ClassTraits<KeygenRequest> {
  static constexpr auto kClass = obs::RequestClass::kKeygen;
  // One job per group: a companion would only wait behind it.
  static constexpr bool kLingers = false;
  // Exactly one keygen lane, always (see DispatcherOptions).
  static int lane_count(const DispatcherOptions&) { return 1; }
  static constexpr auto kSnapshot = &MetricsSnapshot::keygen_lanes;
  static constexpr auto kLatency = &MetricsSnapshot::keygen_latency;
};
template <>
struct ClassTraits<GaussRequest> {
  static constexpr auto kClass = obs::RequestClass::kGauss;
  // One request is already n/256 engine batches.
  static constexpr bool kLingers = false;
  static int lane_count(const DispatcherOptions& o) { return o.gauss_lanes; }
  static constexpr auto kSnapshot = &MetricsSnapshot::gauss_lanes;
  static constexpr auto kLatency = &MetricsSnapshot::gauss_latency;
};

// How long a batch of class Req waits for company after its first item.
template <typename Req>
std::chrono::microseconds linger(const DispatcherOptions& o) {
  return std::chrono::microseconds(ClassTraits<Req>::kLingers ? o.max_linger_us
                                                              : 0);
}

// The traits of a class-table entry (Dispatcher::RequestLanes<Req>).
template <typename Entry>
using TraitsOf = ClassTraits<typename std::decay_t<Entry>::Request>;

template <typename Entry>
std::string class_name() {
  return obs::request_class_name(TraitsOf<Entry>::kClass);
}

// Group keys: the jobs of one lane batch that share a key run as one
// execute() call, groups in key order. Sign and verify group by tenant key
// (one sign_many / verify_many per key is what fills the engine's
// bit-sliced lanes), gauss by exact target bits (one bulk sample() per
// distinct (sigma, center)), and keygens — independent multi-hundred-
// millisecond solves, nothing to batch — one job per group in arrival
// order.
std::uint64_t group_key(const SignRequest& req, std::size_t) {
  return req.key_id;
}
std::uint64_t group_key(const VerifyRequest& req, std::size_t) {
  return req.key_id;
}
std::size_t group_key(const KeygenRequest&, std::size_t index) {
  return index;
}
std::pair<std::uint64_t, std::uint64_t> group_key(const GaussRequest& req,
                                                  std::size_t) {
  return {std::bit_cast<std::uint64_t>(req.sigma),
          std::bit_cast<std::uint64_t>(req.center)};
}

// Lowest scheduling priority for the keygen lane: when keygen and a
// sign/verify lane compete for a core, the solver always loses — the
// lane's isolation guarantee is its own queue + thread, this makes it hold
// under CPU contention too. (Best-effort: EPERM etc. just leaves the
// default priority.)
void lower_thread_priority() {
#ifdef __linux__
  ::setpriority(PRIO_PROCESS, static_cast<id_t>(::syscall(SYS_gettid)), 19);
#endif
}

}  // namespace

// The one push-or-reject admission sequence every submit() overload
// shares: wrap the envelope, attach the future, try the queue, account
// the outcome, detach the future again when the request was not admitted.
// (The enqueued stamp lands just before the push — a rejected job's trace
// simply dies with the job.)
template <typename Req>
Submission<typename Req::Result> Dispatcher::submit_impl(
    Req req, std::uint64_t tenant, std::uint64_t shard) {
  auto& lanes = lanes_of<Req>().lanes;
  Lane<Job<Req>>& lane = *lanes[shard % lanes.size()];
  Job<Req> job;
  job.req = std::move(req);
  job.submitted = std::chrono::steady_clock::now();
  job.deadline = job.req.deadline_us == 0
                     ? std::chrono::steady_clock::time_point::max()
                     : job.submitted +
                           std::chrono::microseconds(job.req.deadline_us);
  job.trace = tracer_->begin(job.req.trace_id);
  job.trace.request_id = job.req.request_id;
  job.trace.tenant = tenant;
  job.trace.req_class = ClassTraits<Req>::kClass;
  Submission<typename Req::Result> result;
  result.future = job.promise.get_future();
  job.trace.stamp(obs::Stage::kEnqueued);
  result.status = lane.queue.try_push(std::move(job), tenant);
  if (result.status == SubmitStatus::kOk) {
    lane.counters.submitted.add(1);
  } else {
    lane.counters.rejected.add(1);
    result.future = {};
    if (result.status != SubmitStatus::kShutdown) {
      // Backoff hint: how long this lane needs to drain its current depth
      // at one batch per the class's linger — never 0, a full queue always
      // means wait.
      const std::uint64_t batches_ahead =
          lane.queue.size() / options_.max_batch + 1;
      const auto linger_us =
          static_cast<std::uint64_t>(linger<Req>(options_).count());
      result.retry_after_ms = static_cast<std::uint32_t>(
          std::max<std::uint64_t>(1, batches_ahead * linger_us / 1000));
    }
  }
  return result;
}

Dispatcher::Dispatcher(engine::SamplerRegistry& registry,
                       DispatcherOptions options)
    : registry_(&registry), options_(options) {
  CGS_CHECK_MSG(options_.sign_lanes >= 1 && options_.verify_lanes >= 1 &&
                    options_.gauss_lanes >= 1,
                "dispatcher needs at least one lane of each kind");
  CGS_CHECK_MSG(options_.max_batch >= 1, "dispatcher needs max_batch >= 1");
  if (options_.obs_registry) {
    obs_ = options_.obs_registry;
  } else {
    owned_obs_ = std::make_unique<obs::Registry>();
    obs_ = owned_obs_.get();
  }
  tracer_ = std::make_unique<obs::Tracer>(*obs_, options_.trace);
  events_ = &obs_->events();
  // Key-state plumbing: one shared persistent store behind both per-tenant
  // caches, and a 60/40 byte-budget split (trees are the heavier artifact)
  // unless the caller budgeted a cache directly. When BOTH services already
  // have external stores wired, key_state.dir is moot: opening an owned
  // KvStore then would register cgs_kvstore_* series for a store no cache
  // touches, scraping as misleading zeros.
  if (!options_.key_state.dir.empty() &&
      (!options_.signing.key_state || !options_.verification.key_state)) {
    if (options_.key_state.events == nullptr)
      options_.key_state.events = events_;
    key_state_ = std::make_unique<store::KvStore>(options_.key_state);
    if (!options_.signing.key_state)
      options_.signing.key_state = key_state_.get();
    if (!options_.verification.key_state)
      options_.verification.key_state = key_state_.get();
  }
  signing_ = std::make_unique<falcon::SigningService>(*registry_,
                                                      options_.signing);
  verifier_ =
      std::make_unique<falcon::VerificationService>(options_.verification);
  gaussian_ = std::make_unique<engine::GaussianService>(*registry_,
                                                        options_.gaussian);
  QosQueueOptions qos;
  qos.capacity = options_.queue_capacity;
  qos.tenant_capacity = options_.tenant_capacity;
  for_each_class([&](auto& c) {
    using Req = typename std::decay_t<decltype(c)>::Request;
    using Traits = ClassTraits<Req>;
    const std::string name = obs::request_class_name(Traits::kClass);
    c.telemetry.requests =
        &obs_->counter_family("cgs_tenant_" + name + "_requests_total");
    c.telemetry.latency =
        &obs_->windowed_histogram("cgs_serve_" + name + "_latency_us");
    c.telemetry.slo_good = &obs_->counter("cgs_slo_" + name + "_good_total");
    c.telemetry.slo_bad = &obs_->counter("cgs_slo_" + name + "_bad_total");
    for (int i = 0; i < Traits::lane_count(options_); ++i)
      c.lanes.push_back(std::make_unique<Lane<Job<Req>>>(
          qos, *obs_, "cgs_serve_" + name + "_lane" + std::to_string(i)));
  });
  register_bridges();
  // Lanes start only after every queue exists — a lane thread never sees a
  // half-constructed dispatcher.
  for_each_class([this](auto& c) {
    for (auto& lane : c.lanes)
      lane->thread = std::thread([this, l = lane.get()] { run_lane(*l); });
  });
}

Dispatcher::~Dispatcher() { shutdown(); }

// Callback instruments that read dispatcher-owned state (queues, the
// services' cache stats). Registered once at construction, unregistered at
// shutdown so a scrape of an external registry after this dispatcher dies
// never chases dangling pointers — the owned lane counters stay behind,
// frozen at their final values.
void Dispatcher::register_bridges() {
  const auto gauge = [this](std::string name, std::function<double()> fn) {
    obs_->gauge_fn(name, std::move(fn));
    callback_metrics_.push_back(std::move(name));
  };
  const auto counter = [this](std::string name, std::function<double()> fn) {
    obs_->counter_fn(name, std::move(fn));
    callback_metrics_.push_back(std::move(name));
  };
  for_each_class([&](const auto& c) {
    const std::string name = class_name<decltype(c)>();
    for (std::size_t i = 0; i < c.lanes.size(); ++i) {
      auto* lane = c.lanes[i].get();
      const std::string prefix =
          "cgs_serve_" + name + "_lane" + std::to_string(i);
      gauge(prefix + "_queue_depth",
            [lane] { return static_cast<double>(lane->queue.size()); });
      // The QosQueue policy counters, scraped alongside the depth so an
      // operator sees WHY a lane sheds, not just that it is deep.
      counter(prefix + "_tenant_rejections_total", [lane] {
        return static_cast<double>(lane->queue.stats().tenant_rejections);
      });
      gauge(prefix + "_tenant_slots", [lane] {
        return static_cast<double>(lane->queue.stats().tenant_slots);
      });
    }
  });

  counter("cgs_executor_tasks_stolen_total",
          [] { return static_cast<double>(TaskCrew::shared().stolen()); });

  const auto cache = [&](const std::string& name, auto stats_fn) {
    counter("cgs_cache_" + name + "_hits_total",
            [stats_fn] { return static_cast<double>(stats_fn().hits); });
    counter("cgs_cache_" + name + "_misses_total",
            [stats_fn] { return static_cast<double>(stats_fn().misses); });
    // The eviction bridge doubles as the eviction event source: the cache
    // itself has no hook, so the delta between scrapes becomes one
    // kCacheEviction event (a/b = entries/bytes after). Event granularity
    // is scrape granularity; the lifetime counter stays exact.
    counter("cgs_cache_" + name + "_evictions_total",
            [stats_fn, name, events = events_,
             last = std::make_shared<std::atomic<std::uint64_t>>(0)] {
              const auto st = stats_fn();
              const std::uint64_t prev = last->exchange(st.evictions);
              if (st.evictions > prev)
                events->emit(obs::EventKind::kCacheEviction, st.entries,
                             st.bytes, name);
              return static_cast<double>(st.evictions);
            });
    counter(
        "cgs_cache_" + name + "_warm_starts_total",
        [stats_fn] { return static_cast<double>(stats_fn().warm_starts); });
    gauge("cgs_cache_" + name + "_entries",
          [stats_fn] { return static_cast<double>(stats_fn().entries); });
    gauge("cgs_cache_" + name + "_bytes",
          [stats_fn] { return static_cast<double>(stats_fn().bytes); });
  };
  cache("ffldl_tree",
        [svc = signing_.get()] { return svc->tree_cache_stats(); });
  cache("ntt_key", [svc = verifier_.get()] { return svc->key_cache_stats(); });
  cache("recipe", [reg = registry_] { return reg->recipe_cache_stats(); });
  cache("netlist", [reg = registry_] { return reg->netlist_cache_stats(); });
  cache("kernel", [reg = registry_] { return reg->kernel_cache_stats(); });

  if (key_state_) {
    store::KvStore* kv = key_state_.get();
    counter("cgs_kvstore_gets_total",
            [kv] { return static_cast<double>(kv->stats().gets); });
    counter("cgs_kvstore_puts_total",
            [kv] { return static_cast<double>(kv->stats().puts); });
    counter("cgs_kvstore_compactions_total",
            [kv] { return static_cast<double>(kv->stats().compactions); });
    gauge("cgs_kvstore_file_bytes",
          [kv] { return static_cast<double>(kv->stats().file_bytes); });
    gauge("cgs_kvstore_entries",
          [kv] { return static_cast<double>(kv->stats().entries); });
  }

  counter("cgs_signing_base_calls_total", [svc = signing_.get()] {
    return static_cast<double>(svc->base_calls());
  });
  counter("cgs_signing_base_rejections_total", [svc = signing_.get()] {
    return static_cast<double>(svc->rejections());
  });
  counter("cgs_gauss_samples_served_total", [svc = gaussian_.get()] {
    return static_cast<double>(svc->samples_served());
  });
  gauge("cgs_gauss_streams", [svc = gaussian_.get()] {
    return static_cast<double>(svc->num_streams());
  });
}

void Dispatcher::shutdown() {
  {
    std::lock_guard<std::mutex> lock(shutdown_mu_);
    if (shut_down_) return;
    shut_down_ = true;
  }
  for (const std::string& name : callback_metrics_) obs_->unregister(name);
  callback_metrics_.clear();
  for_each_class([](auto& c) {
    for (auto& lane : c.lanes) lane->queue.close();
  });
  for_each_class([](auto& c) {
    for (auto& lane : c.lanes)
      if (lane->thread.joinable()) lane->thread.join();
  });
}

std::uint64_t Dispatcher::add_key(falcon::KeyPair kp) {
  const std::uint64_t id = falcon::key_fingerprint(kp);
  std::lock_guard<std::mutex> lock(keys_mu_);
  auto it = keys_.find(id);
  if (it == keys_.end()) {
    keys_.emplace(id, std::move(kp));
  } else {
    // Same fingerprint must mean the same key material — a collision here
    // would route a tenant's messages to another tenant's tree.
    CGS_CHECK_MSG(it->second.f == kp.f && it->second.g == kp.g,
                  "key fingerprint collision between distinct tenant keys");
  }
  return id;
}

const falcon::KeyPair* Dispatcher::key(std::uint64_t key_id) const {
  std::lock_guard<std::mutex> lock(keys_mu_);
  auto it = keys_.find(key_id);
  return it == keys_.end() ? nullptr : &it->second;
}

// One answered request's class telemetry. The trace id rides along as
// the latency exemplar, so a scraped tail bucket can name a trace that
// actually landed in it.
void Dispatcher::record_class(const ClassTelemetry& t, const obs::Trace& trace,
                              std::optional<std::uint64_t> latency_us) {
  t.requests->add(obs::LabelSet{{"tenant", obs::tenant_label(trace.tenant)}});
  if (!latency_us) {
    t.slo_bad->add(1);
    return;
  }
  t.latency->record(*latency_us, trace.trace_id);
  (*latency_us <= options_.slo_latency_us ? *t.slo_good : *t.slo_bad).add(1);
}

Submission<falcon::Signature> Dispatcher::submit(SignRequest req) {
  CGS_CHECK_MSG(key(req.key_id) != nullptr,
                "submit(SignRequest): key_id not registered (add_key first)");
  const std::uint64_t tenant = req.key_id;
  return submit_impl(std::move(req), tenant, mix64(tenant));
}

Submission<bool> Dispatcher::submit(VerifyRequest req) {
  CGS_CHECK_MSG(
      key(req.key_id) != nullptr,
      "submit(VerifyRequest): key_id not registered (add_key first)");
  const std::uint64_t tenant = req.key_id;
  return submit_impl(std::move(req), tenant, mix64(tenant));
}

Submission<KeygenResult> Dispatcher::submit(KeygenRequest req) {
  // Tenant unknown until the solve finishes — execute() fills it in once
  // the fingerprint exists.
  return submit_impl(std::move(req), 0, 0);
}

Submission<std::vector<std::int32_t>> Dispatcher::submit(GaussRequest req) {
  CGS_CHECK_MSG(req.n >= 1, "submit(GaussRequest): empty request");
  const std::uint64_t tenant = gauss_shard_key(req.sigma, req.center);
  return submit_impl(std::move(req), tenant, tenant);
}

template <typename Req>
void Dispatcher::run_lane(Lane<Job<Req>>& lane) {
  using JobT = Job<Req>;
  const ClassTelemetry& telemetry = lanes_of<Req>().telemetry;
  if constexpr (std::is_same_v<Req, KeygenRequest>) lower_thread_priority();
  MicroBatcher<JobT> batcher(lane.queue, options_.max_batch,
                             linger<Req>(options_));
  // The one fail path: failed and expired requests count against the SLO
  // too (never the latency histogram, which records completions only).
  const auto fail = [&](JobT& job, obs::Counter& counter,
                        std::exception_ptr error) {
    counter.add(1);
    record_class(telemetry, job.trace, std::nullopt);
    job.promise.set_exception(std::move(error));
  };
  std::vector<JobT> batch;
  while (batcher.next_batch(batch)) {
    const std::uint64_t closed_us = obs::Trace::now_us();
    for (JobT& job : batch)
      job.trace.stamp_at(obs::Stage::kBatchClosed, closed_us);
    // Batch close is the one moment a lane inspects jobs anyway: fail
    // every job whose deadline already passed instead of running it late.
    const auto now = std::chrono::steady_clock::now();
    std::erase_if(batch, [&](JobT& job) {
      if (job.deadline > now) return false;
      fail(job, lane.counters.expired,
           std::make_exception_ptr(DeadlineExpired()));
      return true;
    });
    // Groups keep arrival order inside and run in key order.
    std::map<decltype(group_key(batch.front().req, 0)), std::vector<JobT*>>
        groups;
    for (std::size_t i = 0; i < batch.size(); ++i)
      groups[group_key(batch[i].req, i)].push_back(&batch[i]);
    for (auto& entry : groups) {
      std::vector<JobT*>& group = entry.second;
      lane.counters.batches.add(1);
      lane.counters.batched.add(group.size());
      for (JobT* job : group) job->trace.stamp(obs::Stage::kEngineStart);
      std::vector<typename Req::Result> results;
      try {
        results = execute(std::span<JobT* const>(group));
      } catch (...) {
        const auto error = std::current_exception();
        for (JobT* job : group) fail(*job, lane.counters.failed, error);
        continue;
      }
      for (JobT* job : group) job->trace.stamp(obs::Stage::kEngineEnd);
      for (std::size_t j = 0; j < group.size(); ++j) {
        JobT& job = *group[j];
        record_class(telemetry, job.trace, elapsed_us(job.submitted));
        lane.counters.completed.add(1);
        job.trace.stamp(obs::Stage::kFulfilled);
        job.promise.set_value(std::move(results[j]));
        tracer_->finish(job.trace);
      }
    }
  }
}

std::vector<falcon::Signature> Dispatcher::execute(
    std::span<Job<SignRequest>* const> group) {
  const falcon::KeyPair* kp = key(group.front()->req.key_id);
  CGS_CHECK_MSG(kp != nullptr, "signing lane lost a registered key");
  std::vector<std::string_view> messages;
  messages.reserve(group.size());
  for (const auto* job : group) messages.push_back(job->req.message);
  return signing_->sign_many(*kp, messages);
}

std::vector<bool> Dispatcher::execute(
    std::span<Job<VerifyRequest>* const> group) {
  const falcon::KeyPair* kp = key(group.front()->req.key_id);
  CGS_CHECK_MSG(kp != nullptr, "verify lane lost a registered key");
  std::vector<std::string_view> messages;
  std::vector<falcon::Signature> sigs;
  messages.reserve(group.size());
  sigs.reserve(group.size());
  for (auto* job : group) {
    messages.push_back(job->req.message);
    sigs.push_back(std::move(job->req.sig));
  }
  // verify_many slices the group on the shared executor by itself.
  const std::vector<std::uint8_t> verdicts =
      verifier_->verify_many(kp->h, kp->params, messages, sigs);
  return std::vector<bool>(verdicts.begin(), verdicts.end());
}

std::vector<KeygenResult> Dispatcher::execute(
    std::span<Job<KeygenRequest>* const> group) {
  auto& job = *group.front();  // one job per keygen group
  // A keygen start is a discrete, operationally loud happening (an NTRU
  // solve is about to eat a core for hundreds of ms) — exactly what the
  // event ring exists for.
  events_->emit(obs::EventKind::kKeygenStart, job.req.params.n, 0,
                "keygen lane");
  prng::ChaCha20Source rng(job.req.seed);
  falcon::KeyPair kp = falcon::keygen(job.req.params, rng);
  KeygenResult result;
  result.params = kp.params;
  result.public_h = kp.h;
  result.key_id = add_key(std::move(kp));
  // The tenant only exists once the solve finishes — backfill the trace so
  // the slow ring and the class telemetry can still name it.
  job.trace.tenant = result.key_id;
  return {std::move(result)};
}

std::vector<std::vector<std::int32_t>> Dispatcher::execute(
    std::span<Job<GaussRequest>* const> group) {
  // One bulk sample() for the group's shared target, split back across
  // the requests in order.
  std::size_t total = 0;
  for (const auto* job : group) total += job->req.n;
  const GaussRequest& head = group.front()->req;
  const std::vector<std::int32_t> bulk =
      gaussian_->sample(head.sigma, head.center, total);
  std::vector<std::vector<std::int32_t>> slices;
  slices.reserve(group.size());
  auto from = bulk.begin();
  for (const auto* job : group) {
    const auto to = from + static_cast<std::ptrdiff_t>(job->req.n);
    slices.emplace_back(from, to);
    from = to;
  }
  return slices;
}

MetricsSnapshot Dispatcher::metrics() const {
  MetricsSnapshot snap;
  for_each_class([&snap](const auto& c) {
    using Traits = TraitsOf<decltype(c)>;
    for (const auto& lane : c.lanes) {
      LaneSnapshot ls;
      ls.submitted = lane->counters.submitted.value();
      ls.rejected = lane->counters.rejected.value();
      ls.completed = lane->counters.completed.value();
      ls.failed = lane->counters.failed.value();
      ls.expired = lane->counters.expired.value();
      ls.batches = lane->counters.batches.value();
      ls.batched = lane->counters.batched.value();
      ls.queue_depth = lane->queue.size();
      const QosQueueStats qos = lane->queue.stats();
      ls.tenant_rejections = qos.tenant_rejections;
      ls.tenant_slots = qos.tenant_slots;
      (snap.*Traits::kSnapshot).push_back(ls);
    }
    // The class series records every completion once; one bucket copy
    // keeps p50/p95/p99 agreeing about the total.
    const obs::HistogramBuckets buckets =
        c.telemetry.latency->cumulative().snapshot();
    snap.*Traits::kLatency = {obs::bucket_quantile(buckets, 0.50),
                              obs::bucket_quantile(buckets, 0.95),
                              obs::bucket_quantile(buckets, 0.99)};
  });
  snap.ffldl_tree_cache = signing_->tree_cache_stats();
  snap.ntt_key_cache = verifier_->key_cache_stats();
  snap.recipe_cache = registry_->recipe_cache_stats();
  snap.netlist_cache = registry_->netlist_cache_stats();
  snap.kernel_cache = registry_->kernel_cache_stats();
  snap.base_calls = signing_->base_calls();
  snap.base_rejections = signing_->rejections();
  snap.gauss_samples_served = gaussian_->samples_served();
  return snap;
}

std::vector<HealthComponent> Dispatcher::health() const {
  std::vector<HealthComponent> out;
  for_each_class([&](const auto& c) {
    double worst = 0;
    for (const auto& lane : c.lanes)
      worst = std::max(worst,
                       static_cast<double>(lane->queue.size()) /
                           static_cast<double>(options_.queue_capacity));
    out.push_back({class_name<decltype(c)>() + "_queue", worst < 0.9, worst,
                   "worst lane depth / capacity"});
  });
  if (key_state_) {
    const store::KvStoreStats st = key_state_->stats();
    HealthComponent c;
    c.name = "kvstore_garbage";
    c.value = st.file_bytes == 0
                  ? 0.0
                  : 1.0 - static_cast<double>(st.live_bytes) /
                              static_cast<double>(st.file_bytes);
    // Compaction keeps the ratio near compact_garbage_ratio; a ratio
    // pinned far above it means compaction is failing (disk, rename).
    c.ok = c.value < 0.9;
    c.detail = "dead bytes / log bytes";
    out.push_back(std::move(c));
  }
  return out;
}

}  // namespace cgs::serve
