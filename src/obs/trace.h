#pragma once
// Sampled per-request stage tracing. A request's life through the serving
// stack is a fixed sequence of instants:
//
//   received -> enqueued -> batch_closed -> engine_start -> engine_end
//            -> fulfilled -> flushed
//
// Tracer::begin() decides (1-in-sample_every) whether this request gets a
// Trace; an unsampled Trace is inert and every stamp() on it is a single
// predictable branch, so the off path costs nothing measurable. finish()
// folds the sampled stamps into per-stage histograms in the registry —
// queue-wait (enqueued->batch_closed), linger (batch_closed->engine_start),
// compute (engine_start->engine_end), fulfil (engine_end->fulfilled),
// write-stall (fulfilled->flushed) and end-to-end total — and keeps the K
// slowest complete traces in a ring of obs::SeqlockSlot so "what did the
// worst request actually do" survives until scrape time.
//
// Stamps are steady-clock microseconds; 0 means "stage never happened"
// (e.g. flushed is only stamped when the transport reports the write).

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "obs/registry.h"
#include "obs/seqlock.h"

namespace cgs::obs {

enum class Stage : std::uint8_t {
  kReceived = 0,
  kEnqueued,
  kBatchClosed,
  kEngineStart,
  kEngineEnd,
  kFulfilled,
  kFlushed,
};
inline constexpr std::size_t kNumStages = 7;

/// What kind of work a traced request was — kept with the trace so the
/// slow ring can say "the worst request was a keygen", not just "slow".
enum class RequestClass : std::uint8_t {
  kOther = 0,
  kSign,
  kVerify,
  kKeygen,
  kGauss,
};

inline const char* request_class_name(RequestClass c) {
  switch (c) {
    case RequestClass::kOther:
      return "other";
    case RequestClass::kSign:
      return "sign";
    case RequestClass::kVerify:
      return "verify";
    case RequestClass::kKeygen:
      return "keygen";
    case RequestClass::kGauss:
      return "gauss";
  }
  return "other";
}

/// One request's stage stamps plus its identity (trace id, wire request
/// id, request class, tenant fingerprint). Cheap to carry by value inside
/// a job; all stamping methods no-op unless the trace was sampled.
struct Trace {
  bool active = false;
  std::uint64_t trace_id = 0;    // non-zero iff active; may come off the wire
  std::uint64_t request_id = 0;  // caller-assigned wire request id
  std::uint64_t tenant = 0;      // key fingerprint / shard key; 0 = none
  RequestClass req_class = RequestClass::kOther;
  std::array<std::uint64_t, kNumStages> stamps{};  // us; 0 = not stamped

  static std::uint64_t now_us() {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
  }

  void stamp(Stage s) {
    if (active) stamps[static_cast<std::size_t>(s)] = now_us();
  }
  /// Backdate a stage to an instant captured earlier (e.g. the transport
  /// read time, taken before sampling was decided).
  void stamp_at(Stage s, std::uint64_t us) {
    if (active) stamps[static_cast<std::size_t>(s)] = us;
  }
  std::uint64_t at(Stage s) const {
    return stamps[static_cast<std::size_t>(s)];
  }
};

struct TraceOptions {
  /// Sample one request in this many; 0 disables tracing entirely (the
  /// begin() fast path is then a single branch, no atomic).
  std::uint32_t sample_every = 64;
  /// How many slowest traces to retain for the scrape endpoint.
  std::size_t slow_ring = 16;
};

/// A finished trace as read back from the slow ring, identity included —
/// enough for cgs_stats to name the worst request, not just time it.
struct SlowTrace {
  std::uint64_t total_us = 0;
  std::uint64_t trace_id = 0;
  std::uint64_t request_id = 0;
  std::uint64_t tenant = 0;
  RequestClass req_class = RequestClass::kOther;
  std::array<std::uint64_t, kNumStages> stamps{};
};

class Tracer {
 public:
  /// Registers `<prefix>_{queue_wait,linger,compute,fulfil,write_stall,
  /// total}_us` histograms and `<prefix>_sampled_total` in `registry`
  /// (owned instruments — nothing to unregister). The registry must
  /// outlive the tracer.
  Tracer(Registry& registry, TraceOptions options,
         const std::string& prefix = "cgs_trace");

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return options_.sample_every != 0; }

  /// Hand out a Trace, sampled 1-in-sample_every. A non-zero
  /// `wire_trace_id` (the client propagated trace context) forces the
  /// sample and reuses the wire id, so a distributed trace is never cut
  /// short server-side; otherwise a sampled trace gets a fresh id.
  /// Thread-safe. sample_every == 0 disables everything, wire ids
  /// included (the off path stays one branch).
  Trace begin(std::uint64_t wire_trace_id = 0) {
    Trace t;
    if (options_.sample_every == 0) return t;  // one branch when off
    const std::uint64_t seq = seq_.fetch_add(1, std::memory_order_relaxed);
    if (wire_trace_id != 0) {
      t.active = true;
      t.trace_id = wire_trace_id;
    } else if (seq % options_.sample_every == 0) {
      t.active = true;
      t.trace_id = make_trace_id(seq);
    }
    if (t.active) t.stamps[0] = Trace::now_us();  // received
    return t;
  }

  /// Deterministic non-zero id from the sampling sequence (SplitMix64
  /// finalizer — the same mixer the dispatcher shards with).
  static std::uint64_t make_trace_id(std::uint64_t seq) {
    std::uint64_t x = seq + 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    x ^= x >> 31;
    return x == 0 ? 1 : x;
  }

  /// Fold a finished trace into the stage histograms and, if it is among
  /// the slowest seen, the slow ring. No-op for unsampled traces.
  void finish(const Trace& t);

  /// Copies of the retained slowest traces, slowest first. Lock-free
  /// readers: a slot being overwritten concurrently is skipped.
  std::vector<SlowTrace> slowest() const;

 private:
  void offer_slow(const Trace& t, std::uint64_t total_us);

  TraceOptions options_;
  std::atomic<std::uint64_t> seq_{0};
  Histogram& queue_wait_;
  Histogram& linger_;
  Histogram& compute_;
  Histogram& fulfil_;
  Histogram& write_stall_;
  Histogram& total_;
  Counter& sampled_;
  std::unique_ptr<SeqlockSlot<SlowTrace>[]> ring_;
  std::size_t ring_size_;
};

}  // namespace cgs::obs
