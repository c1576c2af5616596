#pragma once
// QosQueue: the serving layer's admission point — a bounded MPMC queue
// with explicit backpressure and scheduling policy. Producers never block:
// try_push either accepts the item or returns a typed rejection
// (kQueueFull when the caller should shed load or retry, kTenantFull when
// only the caller's tenant should back off, kShutdown once close() has
// been called), so a slow signing backend surfaces as rejected
// submissions instead of an unbounded memory ramp or a convoy of blocked
// client threads. Consumers (the MicroBatcher) block with a deadline,
// which is what turns "wait a little for more requests" into full
// bit-sliced batches.
//
// The policy: three strict-priority bands with aging (bulk can never
// starve, but never convoys interactive work either) and, inside each
// band, deficit-round-robin across per-tenant sub-queues with a
// per-tenant depth cap, so one tenant's storm sheds *that tenant*
// (kTenantFull) while everyone else still admits and batches.
//
// Plain mutex + one condition variable: the queue hand-off is thousands
// of times cheaper than the Falcon signing work behind it, so lock-free
// machinery would buy nothing here (the *metrics* counters on the hot
// submit path are lock-free — see serve/metrics.h).

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <mutex>
#include <unordered_map>
#include <utility>

#include "common/check.h"

namespace cgs::serve {

/// Why a submission was not accepted (or, kOk, that it was).
enum class SubmitStatus {
  kOk,
  kQueueFull,   // backpressure: global capacity reached, caller sheds or
                // retries
  kTenantFull,  // per-tenant depth cap reached: THIS tenant backs off,
                // everyone else still admits
  kShutdown,    // close() was called; no further work is accepted
};

inline const char* to_string(SubmitStatus s) {
  switch (s) {
    case SubmitStatus::kOk: return "ok";
    case SubmitStatus::kQueueFull: return "queue-full";
    case SubmitStatus::kTenantFull: return "tenant-full";
    case SubmitStatus::kShutdown: return "shutdown";
  }
  return "?";
}

/// Request priority class. Lower value = served first. The dispatcher's
/// defaults: sign/verify are interactive (a client is blocked on the
/// answer), raw Gaussian bulk (pipeline fodder), keygen background (an
/// NTRU solve nobody waits on with a stopwatch).
enum class Priority : std::uint8_t {
  kInteractive = 0,
  kBulk = 1,
  kBackground = 2,
};

inline constexpr std::size_t kPriorityBands = 3;

inline const char* to_string(Priority p) {
  switch (p) {
    case Priority::kInteractive: return "interactive";
    case Priority::kBulk: return "bulk";
    case Priority::kBackground: return "background";
  }
  return "?";
}

struct QosQueueOptions {
  /// Global bound across every band and tenant (kQueueFull beyond).
  std::size_t capacity = 1024;
  /// Per-tenant depth cap (kTenantFull beyond). 0 = capacity, i.e. no
  /// tenant-level cap — the legacy single-FIFO admission behavior.
  std::size_t tenant_capacity = 0;
  /// Live per-tenant sub-queue slots. Tenants beyond this share one
  /// overflow sub-queue per band (the 2Q-style bounded label admission
  /// from obs/labels.h, applied to scheduling state): fairness degrades
  /// gracefully to "the long tail is one tenant", memory stays bounded.
  /// A slot is reclaimed the moment its sub-queue drains.
  std::size_t max_tenants = 32;
  /// A lower band whose oldest item has waited this long is served ahead
  /// of higher bands — the anti-starvation valve. 0 disables aging
  /// (strict priority only).
  std::uint64_t age_promote_us = 10'000;
  /// Items a tenant may pop in a row before the round-robin rotates on —
  /// the deficit-round-robin quantum.
  std::uint32_t drr_quantum = 4;
};

/// Counters a QosQueue keeps about its own policy decisions; read them
/// through the accessors below (each is exact under the queue mutex).
struct QosQueueStats {
  std::uint64_t aged_promotions = 0;   // lower-band pops via the age valve
  std::uint64_t priority_inversions = 0;  // self-check, must stay 0
  std::uint64_t tenant_rejections = 0;    // kTenantFull answers
  std::size_t tenant_slots = 0;           // live per-tenant sub-queues
};

/// The QoS admission point: strict priority with aging across three
/// bands, deficit-round-robin across per-tenant sub-queues within a band,
/// a per-tenant depth cap, and a bounded tenant-slot table. pop blocks
/// and close drains: items accepted before close() are always delivered.
template <typename T>
class QosQueue {
 public:
  explicit QosQueue(QosQueueOptions options) : options_(options) {
    CGS_CHECK_MSG(options_.capacity >= 1, "qos queue needs capacity >= 1");
    CGS_CHECK_MSG(options_.drr_quantum >= 1, "qos queue needs quantum >= 1");
    if (options_.tenant_capacity == 0 ||
        options_.tenant_capacity > options_.capacity)
      options_.tenant_capacity = options_.capacity;
    if (options_.max_tenants == 0) options_.max_tenants = 1;
  }

  /// Non-blocking admission into (band, tenant). kQueueFull when the
  /// global bound is hit, kTenantFull when only this tenant's cap is —
  /// the caller sheds exactly the storming tenant.
  SubmitStatus try_push(T&& item, Priority priority, std::uint64_t tenant) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (closed_) return SubmitStatus::kShutdown;
      if (total_ >= options_.capacity) return SubmitStatus::kQueueFull;
      Band& band = bands_[static_cast<std::size_t>(priority)];
      Sub& sub = resolve(band, tenant);
      if (sub.items.size() >= options_.tenant_capacity) {
        ++stats_.tenant_rejections;
        return SubmitStatus::kTenantFull;
      }
      sub.items.push_back(
          Entry{std::move(item), std::chrono::steady_clock::now()});
      if (!sub.in_rotation) {
        sub.deficit = 0;
        band.rotation.push_back(&sub);
        sub.in_rotation = true;
      }
      ++band.size;
      ++total_;
    }
    ready_cv_.notify_one();
    return SubmitStatus::kOk;
  }

  /// Blocks until an item arrives or the queue is closed *and* drained.
  /// Returns false only in the latter case — shutdown drains, it does not
  /// drop.
  bool pop(T& out) {
    std::unique_lock<std::mutex> lock(mu_);
    ready_cv_.wait(lock, [this] { return total_ > 0 || closed_; });
    if (total_ == 0) return false;
    out = take_locked();
    return true;
  }

  /// Like pop() but gives up at `deadline`; false on timeout or on
  /// closed-and-drained.
  template <typename Clock, typename Duration>
  bool pop_until(T& out,
                 const std::chrono::time_point<Clock, Duration>& deadline) {
    std::unique_lock<std::mutex> lock(mu_);
    ready_cv_.wait_until(lock, deadline,
                         [this] { return total_ > 0 || closed_; });
    if (total_ == 0) return false;
    out = take_locked();
    return true;
  }

  /// Stop accepting; wake every waiter. Idempotent.
  void close() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      closed_ = true;
    }
    ready_cv_.notify_all();
  }

  bool closed() const {
    std::lock_guard<std::mutex> lock(mu_);
    return closed_;
  }

  /// Instantaneous total depth across every band and tenant.
  std::size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return total_;
  }

  /// Instantaneous depth of one band.
  std::size_t band_size(Priority priority) const {
    std::lock_guard<std::mutex> lock(mu_);
    return bands_[static_cast<std::size_t>(priority)].size;
  }

  std::size_t capacity() const { return options_.capacity; }

  QosQueueStats stats() const {
    std::lock_guard<std::mutex> lock(mu_);
    QosQueueStats s = stats_;
    s.tenant_slots = tenant_slots_;
    return s;
  }

 private:
  struct Entry {
    T item;
    std::chrono::steady_clock::time_point enqueued;
  };
  /// One tenant's FIFO within a band (or the band's shared overflow).
  struct Sub {
    std::uint64_t tenant = 0;
    bool is_overflow = false;
    bool in_rotation = false;
    std::uint32_t deficit = 0;
    std::deque<Entry> items;
  };
  struct Band {
    std::unordered_map<std::uint64_t, Sub> tenants;
    Sub overflow;
    /// DRR rotation over non-empty sub-queues. Pointers stay valid:
    /// unordered_map never moves nodes, and a sub leaves the rotation
    /// before its map node is erased.
    std::deque<Sub*> rotation;
    std::size_t size = 0;
  };

  Sub& resolve(Band& band, std::uint64_t tenant) {
    auto it = band.tenants.find(tenant);
    if (it != band.tenants.end()) return it->second;
    if (tenant_slots_ >= options_.max_tenants) {
      band.overflow.is_overflow = true;
      return band.overflow;
    }
    ++tenant_slots_;
    Sub& sub = band.tenants[tenant];
    sub.tenant = tenant;
    return sub;
  }

  /// The scheduling decision, mu_ held and total_ > 0: pick the band
  /// (strict priority, unless a lower band's oldest head has aged past
  /// the promote threshold), then DRR within it.
  T take_locked() {
    const auto now = std::chrono::steady_clock::now();
    std::size_t highest = 0;
    while (bands_[highest].size == 0) ++highest;
    std::size_t chosen = highest;
    bool aged = false;
    if (options_.age_promote_us != 0) {
      const auto promote = std::chrono::microseconds(options_.age_promote_us);
      for (std::size_t b = highest + 1; b < kPriorityBands && !aged; ++b) {
        if (bands_[b].size == 0) continue;
        // The band's oldest head: every sub is FIFO, so scan rotation
        // heads (bounded by max_tenants — trivial next to a signing op).
        for (const Sub* sub : bands_[b].rotation) {
          if (!sub->items.empty() &&
              now - sub->items.front().enqueued >= promote) {
            chosen = b;
            aged = true;
            ++stats_.aged_promotions;
            break;
          }
        }
      }
    }
    // Self-check: serving a lower band while a higher one holds work is
    // legal ONLY through the aging valve above. Anything else is a
    // priority inversion — counted, never silently shipped; the QoS
    // replay bench gates this at exactly zero.
    if (chosen != highest && !aged) ++stats_.priority_inversions;

    Band& band = bands_[chosen];
    Sub* sub = band.rotation.front();
    if (sub->deficit == 0) sub->deficit = options_.drr_quantum;
    Entry entry = std::move(sub->items.front());
    sub->items.pop_front();
    --sub->deficit;
    --band.size;
    --total_;
    if (sub->items.empty()) {
      band.rotation.pop_front();
      sub->in_rotation = false;
      sub->deficit = 0;
      if (!sub->is_overflow) {
        band.tenants.erase(sub->tenant);
        --tenant_slots_;
      }
    } else if (sub->deficit == 0) {
      // Quantum spent: rotate to the back so the next tenant gets its turn.
      band.rotation.pop_front();
      band.rotation.push_back(sub);
    }
    return std::move(entry.item);
  }

  QosQueueOptions options_;
  mutable std::mutex mu_;
  std::condition_variable ready_cv_;
  Band bands_[kPriorityBands];
  std::size_t total_ = 0;
  std::size_t tenant_slots_ = 0;
  QosQueueStats stats_;
  bool closed_ = false;
};

}  // namespace cgs::serve
