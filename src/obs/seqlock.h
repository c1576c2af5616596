#pragma once
// obs::SeqlockSlot<T>: one seqlock-guarded copy of a trivially copyable
// record, the slot both lock-free rings (EventLog, Tracer's slow ring)
// are built from. Writers never wait: try_store() claims the slot by
// moving its version from even to odd and gives up if another writer is
// inside. Readers never block writers: load() copies the record and
// returns nothing when the slot is empty, mid-write or was rewritten
// while it read.
//
// The payload lives in atomic words, stored release and loaded acquire,
// so the seqlock needs no atomic_thread_fence (Boehm, "Can Seqlocks Get
// Along with Programming Language Memory Models?", MSPC 2012): a reader
// that loads any word of a newer write synchronizes with that writer's
// claim, so its closing version load sees the claim and the copy is
// rejected. Every access is an atomic one, which ThreadSanitizer models
// exactly.

#include <array>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <optional>
#include <type_traits>

namespace cgs::obs {

template <typename T>
class alignas(64) SeqlockSlot {
  static_assert(std::is_trivially_copyable_v<T>,
                "SeqlockSlot copies its record word by word");
  static constexpr std::size_t kWords =
      (sizeof(T) + sizeof(std::uint64_t) - 1) / sizeof(std::uint64_t);
  using Words = std::array<std::uint64_t, kWords>;

 public:
  /// Publish `value`. Returns false, leaving the slot as it was, when
  /// another writer is inside. Wait-free. The claim is acquire so this
  /// write's words land after the previous writer's in every word's
  /// modification order.
  bool try_store(const T& value) {
    std::uint64_t v = version_.load(std::memory_order_relaxed);
    if ((v & 1u) != 0 ||
        !version_.compare_exchange_strong(v, v + 1,
                                          std::memory_order_acquire,
                                          std::memory_order_relaxed))
      return false;
    Words words{};
    std::memcpy(words.data(), &value, sizeof(T));
    for (std::size_t i = 0; i < kWords; ++i)
      words_[i].store(words[i], std::memory_order_release);
    version_.store(v + 2, std::memory_order_release);
    return true;
  }

  /// A consistent copy of the last published record; nullopt when the
  /// slot was never written, a writer is inside, or one got in while
  /// this read copied.
  std::optional<T> load() const {
    const std::uint64_t v = version_.load(std::memory_order_acquire);
    if (v == 0 || (v & 1u) != 0) return std::nullopt;
    Words words;
    for (std::size_t i = 0; i < kWords; ++i)
      words[i] = words_[i].load(std::memory_order_acquire);
    if (version_.load(std::memory_order_relaxed) != v) return std::nullopt;
    T out;
    std::memcpy(static_cast<void*>(&out), words.data(), sizeof(T));
    return out;
  }

 private:
  std::atomic<std::uint64_t> version_{0};  // even = stable, odd = writing
  std::array<std::atomic<std::uint64_t>, kWords> words_{};
};

}  // namespace cgs::obs
