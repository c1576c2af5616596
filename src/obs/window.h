#pragma once
// obs::WindowedHistogram: the sliding-window companion to a cumulative
// histogram. The cumulative series answers "what was p99 ever";
// operations needs "what is p99 over the last two minutes". It wraps its
// cumulative global (every record lands in both) and adds a ring of fixed
// epochs (default 12 x 10s): recording CASes the target slot's epoch id
// forward when a new epoch begins — the winner zeroes the slot, losers
// spin the handful of nanoseconds until the new epoch is published, then
// add. All state is atomic (TSan-clean); the one approximation is a
// thread preempted across an epoch boundary attributing a single
// observation to the wrong 10s slot, which is noise at monitoring
// granularity and never desynchronizes the cumulative global (that was
// already bumped).
//
// Reads merge every slot whose epoch id is still inside the window, so an
// idle instrument decays to zero as its slots age out rather than
// reporting stale traffic forever.

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>

#include "obs/metric.h"

namespace cgs::obs {

struct WindowOptions {
  std::uint64_t epoch_us = 10'000'000;  // 10 s per slot
  std::size_t epochs = 12;              // 12 slots -> 2-minute window
};

/// Sliding-window latency histogram wrapping a cumulative obs::Histogram
/// (same bucket layout, obs::bucket_index). record() lands in both;
/// window reads answer "last-window p50/p95/p99" next to the cumulative
/// series.
class WindowedHistogram {
 public:
  WindowedHistogram(Histogram& global, WindowOptions options)
      : global_(global),
        options_(options),
        slots_(std::make_unique<Slot[]>(options.epochs)) {
    CGS_CHECK(options_.epochs > 0 && options_.epoch_us > 0);
  }

  WindowedHistogram(const WindowedHistogram&) = delete;
  WindowedHistogram& operator=(const WindowedHistogram&) = delete;

  static std::uint64_t now_us() {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
  }

  void record(std::uint64_t us, std::uint64_t exemplar_trace_id = 0) {
    global_.record(us, exemplar_trace_id);
    const std::uint64_t epoch = now_us() / options_.epoch_us;
    Slot& s = slots_[epoch % options_.epochs];
    rotate(s, epoch);
    s.buckets[bucket_index(us)].fetch_add(1, std::memory_order_relaxed);
  }

  /// The wrapped cumulative histogram.
  const Histogram& cumulative() const { return global_; }

  /// Merged buckets of every slot still inside the window.
  HistogramBuckets window_buckets(std::uint64_t now = 0) const {
    if (now == 0) now = now_us();
    const std::uint64_t epoch = now / options_.epoch_us;
    const std::uint64_t oldest =
        epoch >= options_.epochs ? epoch - options_.epochs + 1 : 0;
    HistogramBuckets acc{};
    for (std::size_t i = 0; i < options_.epochs; ++i) {
      const std::uint64_t e = slots_[i].epoch.load(std::memory_order_acquire);
      if (e == kRotating || e < oldest || e > epoch) continue;
      for (std::size_t b = 0; b < acc.size(); ++b)
        acc[b] += slots_[i].buckets[b].load(std::memory_order_relaxed);
    }
    return acc;
  }

  std::uint64_t window_count(std::uint64_t now = 0) const {
    const HistogramBuckets acc = window_buckets(now);
    std::uint64_t n = 0;
    for (std::uint64_t b : acc) n += b;
    return n;
  }

  double window_quantile(double q, std::uint64_t now = 0) const {
    return bucket_quantile(window_buckets(now), q);
  }

  const WindowOptions& options() const { return options_; }

 private:
  // epoch 0 = "never used": the slot carries zero counts, so window reads
  // that include it are unchanged.
  struct alignas(64) Slot {
    std::atomic<std::uint64_t> epoch{0};
    std::array<std::atomic<std::uint64_t>, kHistogramBuckets> buckets{};
  };
  static constexpr std::uint64_t kRotating = ~std::uint64_t{0};

  /// CAS the slot's epoch id up to `epoch`, zeroing the buckets when this
  /// thread wins the rotation. Returns once the slot is publishing
  /// `epoch` or a later one (a straggler then adds to the newer epoch —
  /// see the header comment).
  static void rotate(Slot& s, std::uint64_t epoch) {
    std::uint64_t cur = s.epoch.load(std::memory_order_acquire);
    while (cur < epoch) {
      // The winner zeroes and THEN publishes the epoch (release), and
      // losers wait below, so no thread adds between claim and zeroing.
      if (s.epoch.compare_exchange_weak(cur, kRotating,
                                        std::memory_order_acq_rel)) {
        for (auto& b : s.buckets) b.store(0, std::memory_order_relaxed);
        s.epoch.store(epoch, std::memory_order_release);
        return;
      }
    }
    // Another thread is rotating or already published: wait for a real
    // epoch id >= ours.
    while (s.epoch.load(std::memory_order_acquire) == kRotating) {
    }
  }

  Histogram& global_;
  WindowOptions options_;
  std::unique_ptr<Slot[]> slots_;
};

}  // namespace cgs::obs
