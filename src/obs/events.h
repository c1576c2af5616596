#pragma once
// obs::EventLog: a fixed-size lock-free ring of structured, timestamped
// events — the discrete happenings a time-series scrape cannot show
// (an overload shed, a cache eviction, a KvStore compaction or torn-tail
// recovery, a keygen starting). Emitters are hot paths (reactor loops,
// cache eviction under a lock), so emit() is wait-free: one fetch_add to
// claim a slot plus an obs::SeqlockSlot write; a reader that catches a
// slot mid-write skips it. The ring keeps the most recent `capacity` events;
// per-kind counters are kept separately and never wrap, so "how many
// sheds ever" survives even when the shed events themselves have been
// overwritten.
//
// Events are drained via the scrape path: obs::json_text emits the ring
// as an "events" array and obs::prometheus_text emits the per-kind
// counters as labeled cgs_events_total series.

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <string_view>
#include <vector>

#include "obs/seqlock.h"

namespace cgs::obs {

enum class EventKind : std::uint8_t {
  kOverloadShed = 0,   // a: reactor index, b: retry_after_ms
  kCacheEviction,      // a: entries after eviction, b: bytes after eviction
  kKvCompaction,       // a: file bytes after, b: live entries
  kTornTailRecovery,   // a: bytes truncated, b: bytes kept
  kKeygenStart,        // a: degree, b: 0
  kSeriesFold,         // a: folded value/count, b: series cap
};
inline constexpr std::size_t kNumEventKinds = 6;

inline const char* event_kind_name(EventKind k) {
  switch (k) {
    case EventKind::kOverloadShed:
      return "overload_shed";
    case EventKind::kCacheEviction:
      return "cache_eviction";
    case EventKind::kKvCompaction:
      return "kv_compaction";
    case EventKind::kTornTailRecovery:
      return "torn_tail_recovery";
    case EventKind::kKeygenStart:
      return "keygen_start";
    case EventKind::kSeriesFold:
      return "series_fold";
  }
  return "unknown";
}

/// One structured event. `a`/`b` are kind-specific numeric arguments
/// (documented per kind above); `detail` is a short source tag ("ffldl",
/// "sign lane 2") truncated to the inline buffer — events never allocate.
struct Event {
  std::uint64_t seq = 0;  // 1-based global emit order; 0 = empty slot
  std::uint64_t ts_us = 0;
  EventKind kind = EventKind::kOverloadShed;
  std::uint64_t a = 0;
  std::uint64_t b = 0;
  char detail[48] = {};
};

class EventLog {
 public:
  explicit EventLog(std::size_t capacity = 256)
      : capacity_(capacity == 0 ? 1 : capacity),
        ring_(std::make_unique<SeqlockSlot<Event>[]>(capacity_)) {}

  EventLog(const EventLog&) = delete;
  EventLog& operator=(const EventLog&) = delete;

  /// Record one event. Wait-free; safe from any thread, including under
  /// subsystem locks (it takes none of its own). An emit that collides
  /// with a writer still inside the same slot (a full ring wrap during
  /// one write) drops the ring entry but still counts.
  void emit(EventKind kind, std::uint64_t a = 0, std::uint64_t b = 0,
            std::string_view detail = {}) {
    counts_[static_cast<std::size_t>(kind)].fetch_add(
        1, std::memory_order_relaxed);
    Event e;
    e.seq = head_.fetch_add(1, std::memory_order_relaxed) + 1;
    e.ts_us = now_us();
    e.kind = kind;
    e.a = a;
    e.b = b;
    detail.copy(e.detail, sizeof e.detail - 1);  // stays NUL-terminated
    ring_[(e.seq - 1) % capacity_].try_store(e);
  }

  /// Copies of the retained events, oldest first. Lock-free: a slot being
  /// overwritten concurrently is skipped.
  std::vector<Event> snapshot() const {
    std::vector<Event> out;
    out.reserve(capacity_);
    for (std::size_t i = 0; i < capacity_; ++i)
      if (const std::optional<Event> e = ring_[i].load()) out.push_back(*e);
    std::sort(out.begin(), out.end(),
              [](const Event& x, const Event& y) { return x.seq < y.seq; });
    return out;
  }

  /// Lifetime count of `kind` events (unaffected by ring overwrites).
  std::uint64_t count(EventKind kind) const {
    return counts_[static_cast<std::size_t>(kind)].load(
        std::memory_order_relaxed);
  }

  std::uint64_t total() const {
    return head_.load(std::memory_order_relaxed);
  }

  std::size_t capacity() const { return capacity_; }

  static std::uint64_t now_us() {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
  }

 private:
  std::size_t capacity_;
  std::unique_ptr<SeqlockSlot<Event>[]> ring_;
  std::atomic<std::uint64_t> head_{0};
  std::array<std::atomic<std::uint64_t>, kNumEventKinds> counts_{};
};

}  // namespace cgs::obs
