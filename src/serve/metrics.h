#pragma once
// serve metrics, now thin bindings over the unified obs layer: the
// instrument types (obs::Counter / obs::Histogram, relaxed atomics, log2
// latency buckets) live in obs/metric.h, and every lane's counters are
// *named registry instruments* — the same storage the Prometheus/JSON
// exporters walk at scrape time. The serve layer keeps its plain-value
// MetricsSnapshot view (tests and benches want numbers, not exposition
// text), which now also carries the per-key cache stats of the three
// caches underneath the dispatcher.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/metric.h"
#include "obs/registry.h"

namespace cgs::serve {

/// One lane's counters, bound by name into an obs::Registry under
/// `<prefix>_*`. The registry owns the storage, so these references stay
/// valid for the registry's lifetime and the same counters show up in the
/// exposition endpoints with no second accounting path. Submissions are
/// counted by the submitting client thread (lock-free); batch/completion
/// counters by the lane thread.
struct LaneCounters {
  LaneCounters(obs::Registry& registry, const std::string& prefix)
      : submitted(registry.counter(prefix + "_submitted_total")),
        rejected(registry.counter(prefix + "_rejected_total")),
        completed(registry.counter(prefix + "_completed_total")),
        failed(registry.counter(prefix + "_failed_total")),
        expired(registry.counter(prefix + "_expired_total")),
        batches(registry.counter(prefix + "_batches_total")),
        batched(registry.counter(prefix + "_batched_total")) {}

  obs::Counter& submitted;  // accepted into the queue
  obs::Counter& rejected;   // not admitted (kQueueFull / kTenantFull
                            // backpressure or kShutdown)
  obs::Counter& completed;  // promises fulfilled
  obs::Counter& failed;     // promises failed (exception)
  obs::Counter& expired;    // dropped at batch close: deadline already past
  obs::Counter& batches;    // engine calls dispatched
  obs::Counter& batched;    // requests across those calls
};

/// Plain-value copy of one lane at a point in time.
struct LaneSnapshot {
  std::uint64_t submitted = 0;
  std::uint64_t rejected = 0;
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;
  std::uint64_t expired = 0;
  std::uint64_t batches = 0;
  std::uint64_t batched = 0;
  std::size_t queue_depth = 0;
  // The lane's QosQueue policy counters (see QosQueueStats).
  std::uint64_t tenant_rejections = 0;
  std::size_t tenant_slots = 0;

  /// Mean requests per dispatched engine batch — the "are the bit-sliced
  /// lanes actually full" number.
  double occupancy() const {
    return batches ? static_cast<double>(batched) /
                         static_cast<double>(batches)
                   : 0.0;
  }
};

/// Submit -> fulfil latency quantiles of one request class, read from
/// its `cgs_serve_<class>_latency_us` series (every lane, lifetime).
struct LatencyQuantiles {
  double p50_us = 0, p95_us = 0, p99_us = 0;
};

/// Snapshot of the whole serving layer (see Dispatcher::metrics()).
struct MetricsSnapshot {
  std::vector<LaneSnapshot> sign_lanes;
  std::vector<LaneSnapshot> verify_lanes;
  std::vector<LaneSnapshot> keygen_lanes;
  std::vector<LaneSnapshot> gauss_lanes;
  LatencyQuantiles sign_latency;
  LatencyQuantiles verify_latency;
  LatencyQuantiles keygen_latency;
  LatencyQuantiles gauss_latency;

  // Per-key caches underneath the dispatcher (prerequisite numbers for
  // bounding them — ROADMAP eviction work).
  obs::CacheStats ffldl_tree_cache;  // SigningService
  obs::CacheStats ntt_key_cache;     // VerificationService
  obs::CacheStats recipe_cache;      // SamplerRegistry recipes
  obs::CacheStats netlist_cache;     // SamplerRegistry netlists
  obs::CacheStats kernel_cache;      // SamplerRegistry compiled kernels
  std::uint64_t base_calls = 0;      // engine base-sampler invocations
  std::uint64_t base_rejections = 0;
  std::uint64_t gauss_samples_served = 0;

  std::uint64_t sign_submitted() const { return sum(sign_lanes, &LaneSnapshot::submitted); }
  std::uint64_t sign_rejected() const { return sum(sign_lanes, &LaneSnapshot::rejected); }
  std::uint64_t sign_completed() const { return sum(sign_lanes, &LaneSnapshot::completed); }
  std::uint64_t sign_batches() const { return sum(sign_lanes, &LaneSnapshot::batches); }
  std::uint64_t sign_batched() const { return sum(sign_lanes, &LaneSnapshot::batched); }
  double sign_occupancy() const { return occupancy(sign_lanes); }

  std::uint64_t verify_completed() const { return sum(verify_lanes, &LaneSnapshot::completed); }
  std::uint64_t verify_failed() const { return sum(verify_lanes, &LaneSnapshot::failed); }
  std::uint64_t verify_batches() const { return sum(verify_lanes, &LaneSnapshot::batches); }
  double verify_occupancy() const { return occupancy(verify_lanes); }

  std::uint64_t keygen_completed() const { return sum(keygen_lanes, &LaneSnapshot::completed); }
  std::uint64_t keygen_failed() const { return sum(keygen_lanes, &LaneSnapshot::failed); }

  std::uint64_t sign_expired() const { return sum(sign_lanes, &LaneSnapshot::expired); }
  std::uint64_t verify_expired() const { return sum(verify_lanes, &LaneSnapshot::expired); }

  std::uint64_t tenant_rejections() const {
    return sum_all(&LaneSnapshot::tenant_rejections);
  }

 private:
  std::uint64_t sum_all(std::uint64_t LaneSnapshot::* field) const {
    return sum(sign_lanes, field) + sum(verify_lanes, field) +
           sum(keygen_lanes, field) + sum(gauss_lanes, field);
  }
  static std::uint64_t sum(const std::vector<LaneSnapshot>& lanes,
                           std::uint64_t LaneSnapshot::* field) {
    std::uint64_t total = 0;
    for (const auto& lane : lanes) total += lane.*field;
    return total;
  }
  static double occupancy(const std::vector<LaneSnapshot>& lanes) {
    const std::uint64_t b = sum(lanes, &LaneSnapshot::batches);
    return b ? static_cast<double>(sum(lanes, &LaneSnapshot::batched)) /
                   static_cast<double>(b)
             : 0.0;
  }
};

}  // namespace cgs::serve
