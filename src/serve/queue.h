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
// The policy: deficit-round-robin across per-tenant sub-queues with a
// per-tenant depth cap, so one tenant's storm sheds *that tenant*
// (kTenantFull) while everyone else still admits and batches. There is
// one queue per dispatcher lane and every lane serves one request class,
// so the queue holds no priority order: keeping keygen and bulk gauss
// work away from signs is the lanes' job (own thread each; the keygen
// lane runs at nice 19).
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

/// Items a tenant may pop in a row before the round-robin rotates on —
/// the deficit-round-robin quantum.
inline constexpr std::uint32_t kDrrQuantum = 4;
/// Live per-tenant sub-queue slots. Tenants beyond this share one
/// overflow sub-queue (the 2Q-style bounded label admission from
/// obs/labels.h, applied to scheduling state): fairness degrades
/// gracefully to "the long tail is one tenant", memory stays bounded. A
/// slot is reclaimed the moment its sub-queue drains.
inline constexpr std::size_t kMaxTenants = 32;

struct QosQueueOptions {
  /// Global bound across every tenant (kQueueFull beyond).
  std::size_t capacity = 1024;
  /// Per-tenant depth cap (kTenantFull beyond). 0 = capacity, i.e. no
  /// tenant-level cap — the legacy single-FIFO admission behavior.
  std::size_t tenant_capacity = 0;
};

/// Counters a QosQueue keeps about its own policy decisions; read them
/// through stats() (exact under the queue mutex).
struct QosQueueStats {
  std::uint64_t tenant_rejections = 0;  // kTenantFull answers
  std::size_t tenant_slots = 0;         // live per-tenant sub-queues
};

/// The QoS admission point: deficit-round-robin across per-tenant
/// sub-queues, a per-tenant depth cap, and a bounded tenant-slot table.
/// pop blocks and close drains: items accepted before close() are always
/// delivered.
template <typename T>
class QosQueue {
 public:
  explicit QosQueue(QosQueueOptions options) : options_(options) {
    CGS_CHECK_MSG(options_.capacity >= 1, "qos queue needs capacity >= 1");
    if (options_.tenant_capacity == 0 ||
        options_.tenant_capacity > options_.capacity)
      options_.tenant_capacity = options_.capacity;
  }

  /// Non-blocking admission into `tenant`'s sub-queue. kQueueFull when
  /// the global bound is hit, kTenantFull when only this tenant's cap is —
  /// the caller sheds exactly the storming tenant.
  SubmitStatus try_push(T&& item, std::uint64_t tenant) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (closed_) return SubmitStatus::kShutdown;
      if (total_ >= options_.capacity) return SubmitStatus::kQueueFull;
      Sub& sub = resolve(tenant);
      if (sub.items.size() >= options_.tenant_capacity) {
        ++stats_.tenant_rejections;
        return SubmitStatus::kTenantFull;
      }
      sub.items.push_back(std::move(item));
      if (!sub.in_rotation) {
        sub.deficit = 0;
        rotation_.push_back(&sub);
        sub.in_rotation = true;
      }
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

  /// Instantaneous total depth across every tenant.
  std::size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return total_;
  }

  std::size_t capacity() const { return options_.capacity; }

  QosQueueStats stats() const {
    std::lock_guard<std::mutex> lock(mu_);
    QosQueueStats s = stats_;
    s.tenant_slots = tenants_.size();
    return s;
  }

 private:
  /// One tenant's FIFO (or the shared overflow).
  struct Sub {
    std::uint64_t tenant = 0;
    bool in_rotation = false;
    std::uint32_t deficit = 0;
    std::deque<T> items;
  };

  Sub& resolve(std::uint64_t tenant) {
    auto it = tenants_.find(tenant);
    if (it != tenants_.end()) return it->second;
    if (tenants_.size() >= kMaxTenants) return overflow_;
    Sub& sub = tenants_[tenant];
    sub.tenant = tenant;
    return sub;
  }

  /// The scheduling decision, mu_ held and total_ > 0: DRR over the
  /// non-empty sub-queues.
  T take_locked() {
    Sub* sub = rotation_.front();
    if (sub->deficit == 0) sub->deficit = kDrrQuantum;
    T item = std::move(sub->items.front());
    sub->items.pop_front();
    --sub->deficit;
    --total_;
    if (sub->items.empty()) {
      rotation_.pop_front();
      sub->in_rotation = false;
      sub->deficit = 0;
      if (sub != &overflow_) tenants_.erase(sub->tenant);
    } else if (sub->deficit == 0) {
      // Quantum spent: rotate to the back so the next tenant gets its turn.
      rotation_.pop_front();
      rotation_.push_back(sub);
    }
    return item;
  }

  QosQueueOptions options_;
  mutable std::mutex mu_;
  std::condition_variable ready_cv_;
  std::unordered_map<std::uint64_t, Sub> tenants_;
  Sub overflow_;
  /// DRR rotation over non-empty sub-queues. Pointers stay valid:
  /// unordered_map never moves nodes, and a sub leaves the rotation
  /// before its map node is erased.
  std::deque<Sub*> rotation_;
  std::size_t total_ = 0;
  QosQueueStats stats_;
  bool closed_ = false;
};

}  // namespace cgs::serve
