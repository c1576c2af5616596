#pragma once
// Lock-free observability primitives shared by every layer: Counter,
// Gauge, and a log2-bucketed latency Histogram. These are the instrument
// types obs::Registry hands out by name; subsystems keep references and
// hit them on their hot paths (each event is one relaxed fetch_add —
// cross-instrument consistency is not needed for monitoring), while the
// registry walks the same storage at scrape time for the Prometheus/JSON
// exporters (obs/export.h).
//
// The histogram covers 1us..2^63us in 64 power-of-two buckets plus a
// zero bucket: bucket index = bit_width(us), recording is a single
// lock-free increment plus a sum accumulation, and p50/p95/p99 come back
// from a bucket walk with ~2x worst-case resolution — plenty to tell
// "one linger" from "queue melt-down". Instruments are cache-line
// aligned so two adjacent instruments never false-share.

#include <array>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>

#include "common/check.h"

namespace cgs::obs {

/// Monotonic event count. add() is wait-free; value() is a relaxed read.
class alignas(64) Counter {
 public:
  void add(std::uint64_t n = 1) { v_.fetch_add(n, std::memory_order_relaxed); }
  std::uint64_t value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> v_{0};
};

/// Instantaneous signed level (queue depth, bytes buffered, high-water).
class alignas(64) Gauge {
 public:
  void set(std::int64_t v) { v_.store(v, std::memory_order_relaxed); }
  void add(std::int64_t d) { v_.fetch_add(d, std::memory_order_relaxed); }
  /// Monotonic high-water update: the gauge only ever moves up.
  void max_of(std::int64_t v) {
    std::int64_t cur = v_.load(std::memory_order_relaxed);
    while (v > cur &&
           !v_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }
  std::int64_t value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> v_{0};
};

/// 65 log2 buckets over microseconds: [0] holds 0us, [k] holds
/// [2^(k-1), 2^k) us. The bucket layout lives here alone: every
/// histogram (cumulative, windowed, labeled) indexes through
/// bucket_index().
inline constexpr std::size_t kHistogramBuckets = 65;
using HistogramBuckets = std::array<std::uint64_t, kHistogramBuckets>;

/// The bucket an observation of `us` microseconds lands in.
inline std::size_t bucket_index(std::uint64_t us) {
  // bit_width(us) is in [0, 64] for any u64, but clamp explicitly so a
  // future widening of the input type (or a narrower bucket array) can
  // never index past the overflow bucket — us >= 2^63 lands in [64].
  const int bucket = std::bit_width(us);
  return bucket > 64 ? 64 : static_cast<std::size_t>(bucket);
}

/// Upper bound (us) of the bucket holding the q-quantile observation of a
/// bucket array (q in [0, 1]); 0 when empty. Resolution is the bucket
/// width (~2x).
inline double bucket_quantile(const HistogramBuckets& buckets, double q) {
  CGS_CHECK(q >= 0.0 && q <= 1.0);
  std::uint64_t total = 0;
  for (std::uint64_t b : buckets) total += b;
  if (total == 0) return 0.0;
  // rank in [1, total]: the +1 makes q=0 the min and q=1 the max.
  const auto rank = static_cast<std::uint64_t>(q * (total - 1)) + 1;
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    seen += buckets[i];
    if (seen >= rank)
      return i == 0 ? 0.0 : std::ldexp(1.0, static_cast<int>(i));
  }
  return std::ldexp(1.0, 64);
}

/// Lock-free log2 latency histogram (microseconds) with a running sum.
/// Each bucket additionally keeps the most recent non-zero exemplar id
/// recorded into it (a trace id), so a scrape can link a tail bucket to
/// an actual slow request.
class alignas(64) Histogram {
 public:
  void record(std::uint64_t us, std::uint64_t exemplar_id = 0) {
    const std::size_t bucket = bucket_index(us);
    buckets_[bucket].fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(us, std::memory_order_relaxed);
    if (exemplar_id != 0)
      exemplars_[bucket].store(exemplar_id, std::memory_order_relaxed);
  }

  std::uint64_t count() const {
    std::uint64_t n = 0;
    for (const auto& b : buckets_) n += b.load(std::memory_order_relaxed);
    return n;
  }

  std::uint64_t sum() const { return sum_.load(std::memory_order_relaxed); }

  /// One coherent-enough copy of the buckets (relaxed reads — monitoring
  /// data). Callers wanting several quantiles take one snapshot and walk
  /// it, not one merge per quantile.
  HistogramBuckets snapshot() const {
    HistogramBuckets snap{};
    merge_into(snap);
    return snap;
  }

  double quantile(double q) const { return bucket_quantile(snapshot(), q); }

  void merge_into(HistogramBuckets& acc) const {
    for (std::size_t i = 0; i < acc.size(); ++i)
      acc[i] += buckets_[i].load(std::memory_order_relaxed);
  }

  /// Per-bucket latest exemplar ids (0 = none recorded). Same indexing as
  /// snapshot(); reuses HistogramBuckets as a plain u64 array.
  HistogramBuckets exemplar_snapshot() const {
    HistogramBuckets snap{};
    for (std::size_t i = 0; i < snap.size(); ++i)
      snap[i] = exemplars_[i].load(std::memory_order_relaxed);
    return snap;
  }

 private:
  std::array<std::atomic<std::uint64_t>, kHistogramBuckets> buckets_{};
  std::array<std::atomic<std::uint64_t>, kHistogramBuckets> exemplars_{};
  std::atomic<std::uint64_t> sum_{0};
};

/// Point-in-time view of a bounded keyed cache — the shape every per-key
/// cache (ffLDL trees, NTT keys, recipes, netlists) reports. A `hit` is a
/// lookup served from memory; a `miss` ran the builder, and `warm_starts`
/// counts the misses the builder satisfied by decoding the persistent
/// store (store::KvStore / a registry disk frame) instead of recomputing.
/// `evictions` counts entries dropped under capacity pressure and `bytes`
/// is the cache's approximate resident cost under its byte budget.
struct CacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::size_t entries = 0;
  std::uint64_t evictions = 0;
  std::uint64_t warm_starts = 0;
  std::size_t bytes = 0;
};

}  // namespace cgs::obs
