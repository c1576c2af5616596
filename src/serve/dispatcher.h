#pragma once
// Dispatcher: the asynchronous front end that turns many small concurrent
// requests into full bit-sliced batches. Clients submit and get a future;
// admission is a bounded QosQueue per lane (typed backpressure, never a
// block); per-lane threads run one shared lane loop around a MicroBatcher
// (close on max_batch or, on sign and verify lanes, max_linger, whichever
// first) and hand closed
// batches, grouped per class, to the blocking services:
//
//   submit(SignRequest) ──── shard by key fingerprint ──> sign lane ──┐
//   submit(VerifyRequest) ── shard by key fingerprint ──> verify lane ├─ MicroBatcher
//   submit(GaussRequest) ─── shard by (sigma, c) key ──> gauss lane ──┘   │
//   submit(KeygenRequest) ── dedicated low-priority ──> keygen lane ──┘   ▼
//        falcon::SigningService::sign_many /
//        falcon::VerificationService::verify_many /
//        GaussianService::sample / falcon::keygen
//
// Sign and verify lanes are sharded by falcon::key_fingerprint, so N
// tenant keys live concurrently, each signing under its own cached ffLDL
// tree and verifying against its own cached NTT-domain public key; a lane
// batch that spans several keys is grouped into one sign_many/verify_many
// per key (the engine batches per key — that is what fills its lanes).
// Raw-Gaussian requests shard by the canonical (sigma, center) recipe key
// and a lane batch collapses into one GaussianService::sample per distinct
// target. Because SigningService checks slots out per call instead of
// serializing callers, two lanes' batches on different keys overlap on
// disjoint slot subsets instead of convoying.
//
// Threads: one per lane, nothing else. Every fan-out below a lane (a
// sign_many's slices, a verify_many's slices, a SamplerEngine's per-slot
// slices) runs on the one process-wide executor, common/task_crew.h: the
// lane thread runs its own slices and the executor's hardware_concurrency()
// - 1 workers help. A dispatcher with every num_threads at 1 starts no
// thread besides its lanes.
//
// Keygen runs on its own dedicated lane (and, on Linux, at minimum thread
// scheduling priority): an NTRU solve is hundreds of milliseconds of
// number theory, so isolating it is what keeps a tenant onboarding from
// stalling every sign/verify request behind it — the keygen queue, its
// batcher and its thread share nothing with the latency-sensitive lanes.
//
// Admission is policy, not just a depth check. Every lane queue is a
// QosQueue: DRR fair-share across per-tenant sub-queues — a storming
// tenant hits its own depth cap (kTenantFull, with a retry-after hint)
// while every other tenant keeps admitting. A lane serves one request
// class, so its queue needs no priority order: signs are kept clear of
// bulk gauss and keygen work by running on lanes of their own. Requests
// may carry a relative deadline; work whose budget lapsed while queued is
// dropped at batch close with a typed DeadlineExpired instead of running
// late.
//
// Shutdown drains: queues stop admitting (kShutdown), lane threads finish
// everything already accepted, and every outstanding future is fulfilled —
// a submitted request is never silently dropped.

#include <chrono>
#include <cstdint>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "engine/registry.h"
#include "engine/service.h"
#include "falcon/signing_service.h"
#include "falcon/verification_service.h"
#include "obs/registry.h"
#include "obs/trace.h"
#include "serve/batcher.h"
#include "serve/metrics.h"
#include "serve/queue.h"

namespace cgs::serve {

/// A submission attempt: on ok() the future is valid and will be
/// fulfilled (value or exception) even across shutdown; otherwise
/// `status` says why the request was not admitted and `retry_after_ms`
/// is the dispatcher's backoff hint (how long the rejecting lane needs
/// to drain one batch's worth of depth — 0 when retrying is pointless,
/// i.e. shutdown).
template <typename T>
struct Submission {
  SubmitStatus status = SubmitStatus::kShutdown;
  std::future<T> future;
  std::uint32_t retry_after_ms = 0;
  bool ok() const { return status == SubmitStatus::kOk; }
};

/// What a deadline-carrying request's future yields when its budget
/// lapsed while it was still queued: the lane dropped it at batch close
/// instead of running it late. Wire frontends map this to a typed
/// kOverloaded shed ("deadline-expired") rather than a generic failure.
class DeadlineExpired : public Error {
 public:
  DeadlineExpired() : Error("deadline-expired") {}
};

struct DispatcherOptions {
  std::size_t queue_capacity = 1024;  // per lane
  std::size_t max_batch = 64;        // requests per closed batch
  /// How long a sign or verify batch waits for company after its first
  /// request. Gauss and keygen lanes never linger (one gauss request is
  /// already n/256 engine batches; keygen runs one job per group).
  std::uint64_t max_linger_us = 2000;
  int sign_lanes = 2;
  int verify_lanes = 1;
  int gauss_lanes = 1;
  // --- QoS admission policy (see serve/queue.h QosQueue) ---------------
  /// Per-tenant depth cap inside each lane queue: one storming tenant
  /// hits kTenantFull while every other tenant still admits. 0 = no
  /// per-tenant cap beyond queue_capacity (the pre-QoS behavior).
  std::size_t tenant_capacity = 0;
  /// No effect. Verify fan-out runs on the process-wide executor, sized
  /// by verification.num_threads. Kept only because servebench/ still
  /// assigns it; goes with the next change to the benchmark.
  int verify_steal_workers = 1;
  // Exactly one keygen lane, always: its whole point is isolation, and a
  // second one would only let two NTRU solves compete for cores.
  falcon::SigningOptions signing;        // inner SigningService configuration
  falcon::VerificationOptions verification;  // inner VerificationService
  engine::ServiceOptions gaussian;       // inner GaussianService configuration
  /// Persistent key-state store configuration; an empty dir disables
  /// persistence. When set, the dispatcher owns one store::KvStore shared
  /// by both key caches (wired into signing.key_state /
  /// verification.key_state unless the caller already supplied one), so
  /// evicted trees and NTT keys warm-start from disk — across requests
  /// AND across process restarts.
  store::KvStoreOptions key_state;
  /// Metrics registry to bind every lane counter / trace histogram /
  /// cache bridge into. nullptr -> the dispatcher owns a private registry
  /// (obs_registry() exposes it either way). An external registry must
  /// outlive the dispatcher; sharing one registry between two dispatchers
  /// makes them share lane counters name-for-name — usually not wanted.
  obs::Registry* obs_registry = nullptr;
  /// Per-request stage tracing (see obs/trace.h). sample_every = 0 turns
  /// the tracer off entirely (one predictable branch per request).
  obs::TraceOptions trace;
  /// Tenant-sliced, time-windowed telemetry: every request class
  /// registers a tenant-labeled request counter
  /// (`cgs_tenant_<class>_requests_total{tenant="<hex16>"}`, the top 32
  /// tenants + an `other` overflow cell — labeled cells always sum to the
  /// unlabeled global), a windowed end-to-end latency histogram
  /// (`cgs_serve_<class>_latency_us` + derived `_win_*` gauges), and SLO
  /// verdict counters (`cgs_slo_<class>_{good,bad}_total`: good =
  /// fulfilled within `slo_latency_us`; bad = fulfilled late, failed, or
  /// deadline-expired, so good + bad counts every answered request).
  std::uint64_t slo_latency_us = 50'000;
};

/// One subsystem's readiness as reported by Dispatcher::health(). `value`
/// is the load measure (lane queue saturation or kvstore garbage ratio,
/// both in [0,1]); `ok` is the component's verdict against its threshold.
/// The wire health frame (serve/wire.h) is built from these, plus the
/// transport components the server layer appends.
struct HealthComponent {
  std::string name;
  bool ok = true;
  double value = 0;
  std::string detail;
};

/// What a fulfilled keygen submission yields: the key is registered with
/// the dispatcher under `key_id` (usable in sign / verify submissions
/// immediately); only public material leaves the serving layer.
struct KeygenResult {
  std::uint64_t key_id = 0;
  falcon::FalconParams params;
  std::vector<std::uint32_t> public_h;
};

// ----------------------------------------------------------------------
// The typed request envelopes. One struct per operation, each naming its
// Result type, so the dispatcher exposes a single submit() overload set
// and a wire frontend's frame -> lane plumbing is one switch that builds
// an envelope — not four parallel call paths. Every envelope rides the
// same Job<Req> internally (promise + submit stamp + trace), and every
// submission shares one admission sequence.

/// Sign `message` under a registered key (add_key / a fulfilled keygen).
/// Every envelope also carries its wire identity: the caller's request id
/// and an optional propagated trace id (non-zero forces the request's
/// trace to be sampled under that id — see obs::Tracer::begin). Both are
/// threaded into the job's Trace so the slow ring and exemplars can name
/// the request, its tenant and its class.
struct SignRequest {
  using Result = falcon::Signature;
  std::uint64_t key_id = 0;
  std::string message;
  std::uint64_t request_id = 0;
  std::uint64_t trace_id = 0;
  /// Relative latency budget in microseconds from admission; 0 = none.
  /// Still queued when it lapses -> the future fails DeadlineExpired.
  std::uint64_t deadline_us = 0;
};

/// Verify `sig` over `message` against a registered key; yields the
/// verdict (true = accepted).
struct VerifyRequest {
  using Result = bool;
  std::uint64_t key_id = 0;
  std::string message;
  falcon::Signature sig;
  std::uint64_t request_id = 0;
  std::uint64_t trace_id = 0;
  std::uint64_t deadline_us = 0;  // relative budget; 0 = none
};

/// Generate a key at `params` from `seed` (deterministic per seed). Runs
/// on the dedicated keygen lane, at nice 19.
struct KeygenRequest {
  using Result = KeygenResult;
  falcon::FalconParams params;
  std::uint64_t seed = 0;
  std::uint64_t request_id = 0;
  std::uint64_t trace_id = 0;
  std::uint64_t deadline_us = 0;  // relative budget; 0 = none
};

/// `n` raw Gaussian samples at (sigma, center).
struct GaussRequest {
  using Result = std::vector<std::int32_t>;
  double sigma = 0;
  double center = 0;
  std::size_t n = 0;
  std::uint64_t request_id = 0;
  std::uint64_t trace_id = 0;
  std::uint64_t deadline_us = 0;  // relative budget; 0 = none
};

class Dispatcher {
 public:
  /// `registry` (not owned) must outlive the dispatcher; both inner
  /// services plan/synthesize through it.
  explicit Dispatcher(engine::SamplerRegistry& registry,
                      DispatcherOptions options = {});
  ~Dispatcher();

  Dispatcher(const Dispatcher&) = delete;
  Dispatcher& operator=(const Dispatcher&) = delete;

  /// Register a tenant key; returns its id (the key fingerprint) used in
  /// sign/verify envelopes and on the wire. Idempotent for the same key
  /// material.
  std::uint64_t add_key(falcon::KeyPair kp);
  /// The registered key for an id; nullptr when unknown.
  const falcon::KeyPair* key(std::uint64_t key_id) const;

  /// The one entry point: queue a typed request envelope on its lane.
  /// Fails fast with kQueueFull (backpressure) or kShutdown; throws
  /// cgs::Error only on an unregistered key_id in a sign/verify envelope
  /// (caller bug, not load — wire frontends check key() first).
  Submission<falcon::Signature> submit(SignRequest req);
  Submission<bool> submit(VerifyRequest req);
  Submission<KeygenResult> submit(KeygenRequest req);
  Submission<std::vector<std::int32_t>> submit(GaussRequest req);

  /// Point-in-time metrics across every lane (plus the cache stats of
  /// the three per-key caches underneath).
  MetricsSnapshot metrics() const;

  /// Per-subsystem readiness: the worst lane queue saturation of each
  /// request class (depth / capacity, not-ok at >= 0.9) and, when the
  /// dispatcher owns a key-state store, its log garbage ratio. Reads only
  /// atomics and the store's stats mutex — safe to call while every lane
  /// is saturated, which is exactly when it matters.
  std::vector<HealthComponent> health() const;

  /// The registry every serve-layer instrument lives in — scrape with
  /// obs::prometheus_text / obs::json_text. Valid for the dispatcher's
  /// lifetime (longer, when an external registry was supplied).
  obs::Registry& obs_registry() { return *obs_; }
  const obs::Registry& obs_registry() const { return *obs_; }

  /// The request tracer (slowest() for the retained worst traces).
  obs::Tracer& tracer() { return *tracer_; }

  /// Stop admitting, drain every queued request, join the lane threads.
  /// Idempotent; the destructor calls it.
  void shutdown();

  falcon::SigningService& signing_service() { return *signing_; }
  falcon::VerificationService& verification_service() { return *verifier_; }
  engine::GaussianService& gaussian_service() { return *gaussian_; }
  /// The dispatcher-owned persistent key-state store; nullptr when
  /// key_state.dir was empty (or the caller supplied external stores).
  store::KvStore* key_state() { return key_state_.get(); }
  const DispatcherOptions& options() const { return options_; }

 private:
  /// Every envelope travels its lane in the same wrapper: the request,
  /// the promise its Submission future hangs off, the admission stamp
  /// for the latency histogram, and the per-request trace.
  template <typename Req>
  struct Job {
    Req req;
    std::promise<typename Req::Result> promise;
    std::chrono::steady_clock::time_point submitted;
    /// Absolute expiry (submitted + deadline_us); time_point::max() when
    /// the request carries no budget.
    std::chrono::steady_clock::time_point deadline;
    obs::Trace trace;
  };
  template <typename Job>
  struct Lane {
    Lane(const QosQueueOptions& qos, obs::Registry& registry,
         const std::string& prefix)
        : queue(qos), counters(registry, prefix) {}
    QosQueue<Job> queue;
    LaneCounters counters;
    std::thread thread;
  };

  /// Per-class telemetry bundle (see DispatcherOptions::slo_latency_us),
  /// bound at construction.
  struct ClassTelemetry {
    obs::CounterFamily* requests = nullptr;
    obs::WindowedHistogram* latency = nullptr;
    obs::Counter* slo_good = nullptr;
    obs::Counter* slo_bad = nullptr;
  };

  /// One request class's entry in the class table: its lanes and its
  /// class telemetry.
  template <typename Req>
  struct RequestLanes {
    using Request = Req;
    std::vector<std::unique_ptr<Lane<Job<Req>>>> lanes;
    ClassTelemetry telemetry;
  };

  template <typename Req>
  RequestLanes<Req>& lanes_of() {
    return std::get<RequestLanes<Req>>(classes_);
  }
  /// Visit every class's table entry, in sign, verify, keygen, gauss order.
  template <typename F>
  void for_each_class(F&& f) {
    std::apply([&f](auto&... c) { (f(c), ...); }, classes_);
  }
  template <typename F>
  void for_each_class(F&& f) const {
    std::apply([&f](const auto&... c) { (f(c), ...); }, classes_);
  }

  /// The one admission sequence behind every submit() overload: stamp,
  /// trace (identity included), try the lane `shard` picks, account the
  /// outcome.
  template <typename Req>
  Submission<typename Req::Result> submit_impl(Req req, std::uint64_t tenant,
                                               std::uint64_t shard);

  /// One answered request's class telemetry: tenant-labeled count and SLO
  /// verdict, plus the windowed latency (exemplar = the trace id) for a
  /// fulfilled one. `latency_us` is empty for a failed or expired request,
  /// which always counts as an SLO miss.
  void record_class(const ClassTelemetry& t, const obs::Trace& trace,
                    std::optional<std::uint64_t> latency_us);

  /// The one lane loop every class runs: form a batch, stamp it, drop
  /// expired jobs, group by the class's group key, run each group through
  /// the class's execute() overload, then fulfil or fail every job.
  template <typename Req>
  void run_lane(Lane<Job<Req>>& lane);

  /// The per-class batch functions: one result per job of `group`, in
  /// order, or an exception that fails the whole group.
  std::vector<falcon::Signature> execute(
      std::span<Job<SignRequest>* const> group);
  std::vector<bool> execute(std::span<Job<VerifyRequest>* const> group);
  std::vector<KeygenResult> execute(std::span<Job<KeygenRequest>* const> group);
  std::vector<std::vector<std::int32_t>> execute(
      std::span<Job<GaussRequest>* const> group);

  void register_bridges();

  engine::SamplerRegistry* registry_;
  DispatcherOptions options_;
  std::unique_ptr<store::KvStore> key_state_;  // shared by both key caches
  std::unique_ptr<obs::Registry> owned_obs_;  // when no external registry
  obs::Registry* obs_ = nullptr;
  std::unique_ptr<obs::Tracer> tracer_;
  obs::EventLog* events_ = nullptr;  // the registry's event log
  std::vector<std::string> callback_metrics_;  // unregistered at shutdown
  std::unique_ptr<falcon::SigningService> signing_;
  std::unique_ptr<falcon::VerificationService> verifier_;
  std::unique_ptr<engine::GaussianService> gaussian_;

  mutable std::mutex keys_mu_;
  std::map<std::uint64_t, falcon::KeyPair> keys_;

  std::tuple<RequestLanes<SignRequest>, RequestLanes<VerifyRequest>,
             RequestLanes<KeygenRequest>, RequestLanes<GaussRequest>>
      classes_;

  std::mutex shutdown_mu_;
  bool shut_down_ = false;
};

}  // namespace cgs::serve
