#include "falcon/verification_service.h"

#include <algorithm>
#include <functional>
#include <thread>

#include "common/check.h"
#include "common/task_crew.h"
#include "falcon/state_codec.h"
#include "serial/serial.h"

namespace cgs::falcon {

namespace {

// Items per verify_many slice, at least: a handful of sub-millisecond
// checks is cheaper on the calling thread than as an executor task.
constexpr std::size_t kMinBatchPerSlice = 8;

}  // namespace

std::uint64_t public_key_fingerprint(std::span<const std::uint32_t> h,
                                     const FalconParams& params) {
  std::vector<std::uint8_t> bytes;
  bytes.reserve(16 + 4 * h.size());
  const auto append = [&bytes](const void* p, std::size_t len) {
    const auto* b = static_cast<const std::uint8_t*>(p);
    bytes.insert(bytes.end(), b, b + len);
  };
  const std::uint64_t n = params.n;
  append(&n, sizeof n);
  // The acceptance bound is part of the key's verification identity: the
  // same h under a tighter bound is a different verifier.
  const std::int64_t bound = params.bound_sq();
  append(&bound, sizeof bound);
  append(h.data(), h.size() * sizeof(std::uint32_t));
  return serial::fnv1a64(bytes);
}

VerificationService::VerificationService(VerificationOptions options)
    : options_(options), keys_(options.key_cache) {
  int threads = options_.num_threads;
  if (threads <= 0)
    threads =
        static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  options_.num_threads = threads;
}

VerificationService::KeyCache::Pinned VerificationService::entry_for(
    const std::vector<std::uint32_t>& h, const FalconParams& params) {
  CGS_CHECK_MSG(h.size() == params.n,
                "public key length does not match the degree");
  const std::uint64_t fp = public_key_fingerprint(h, params);
  store::KvStore* kv = options_.key_state;
  auto pinned = keys_.get_or_build(fp, [&]() -> KeyCache::Built {
    const std::size_t cost = ntt_key_footprint_bytes(params.n);
    const std::string state_key = ntt_state_key(fp);
    if (kv) {
      if (const auto bytes = kv->get(state_key)) {
        try {
          NttKeyRecord rec = decode_ntt_key(*bytes);
          // The stored public material must match the key in hand — a
          // stale or colliding record falls through to a transform, which
          // then overwrites it.
          if (rec.h == h && rec.params.n == params.n &&
              rec.params.bound_sq() == params.bound_sq() &&
              rec.h_ntt.size() == params.n &&
              rec.h_ntt_shoup.size() == params.n) {
            auto entry = std::make_shared<KeyEntry>();
            entry->h = std::move(rec.h);
            entry->h_ntt = std::move(rec.h_ntt);
            entry->h_ntt_shoup = std::move(rec.h_ntt_shoup);
            entry->params = params;
            entry->ntt = shared_ntt_context(params.n);
            return {std::move(entry), cost, /*warm_start=*/true};
          }
        } catch (const serial::SerialError&) {
          // Corrupt record: re-transform (and overwrite it below).
        }
      }
    }
    auto entry = std::make_shared<KeyEntry>();
    entry->h = h;
    entry->params = params;
    entry->ntt = shared_ntt_context(params.n);
    entry->h_ntt = h;
    entry->ntt->forward_br(entry->h_ntt);  // cached in the bit-reversed domain
    entry->h_ntt_shoup.reserve(entry->h_ntt.size());
    for (const std::uint32_t w : entry->h_ntt)
      entry->h_ntt_shoup.push_back(NttContext::shoup_factor(w));
    if (kv) {
      NttKeyRecord rec{entry->h, entry->h_ntt, entry->h_ntt_shoup, params};
      kv->put(state_key, encode_ntt_key(rec));  // best-effort
    }
    return {std::move(entry), cost, /*warm_start=*/false};
  });
  CGS_CHECK_MSG(pinned->h == h && pinned->params.bound_sq() == params.bound_sq(),
                "public key fingerprint collision in the verify cache");
  return pinned;
}

bool VerificationService::verify_one(const KeyEntry& key,
                                     std::string_view message,
                                     const Signature& sig,
                                     std::vector<std::uint32_t>& scratch) {
  if (sig.s1.size() != key.params.n) return false;
  return verify_with_c(key, hash_to_point(sig.nonce, message, key.params.n),
                       sig, scratch);
}

bool VerificationService::verify_with_c(const KeyEntry& key,
                                        const std::vector<std::uint32_t>& c,
                                        const Signature& sig,
                                        std::vector<std::uint32_t>& scratch) {
  const std::size_t n = key.params.n;
  if (sig.s1.size() != n) return false;

  // s1 h with the key already in the (bit-reversed) NTT domain: one
  // Shoup-twiddle forward + one inverse instead of the scalar path's
  // two-forward-one-inverse with division-based modmuls; the pointwise
  // stage rides the key's precomputed Shoup companions.
  scratch.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::int32_t x = sig.s1[i];
    scratch[i] = -static_cast<std::int32_t>(kQ) < x &&
                         x < static_cast<std::int32_t>(kQ)
                     ? static_cast<std::uint32_t>(
                           x < 0 ? x + static_cast<std::int32_t>(kQ) : x)
                     : to_mod_q(x);
  }
  key.ntt->forward_br(scratch);
  key.ntt->pointwise_shoup(scratch, key.h_ntt, key.h_ntt_shoup);
  key.ntt->inverse_br(scratch);

  // Fused pass: center s0 = c - s1 h and accumulate both halves of the
  // norm without materializing s0. Both operands live in [0, q), so the
  // difference folds and centers with two conditional subtracts — no
  // division. Exact in int64 at Falcon scale.
  std::int64_t norm = 0;
  for (std::size_t i = 0; i < n; ++i) {
    std::uint32_t d = c[i] + kQ - scratch[i];  // (0, 2q)
    if (d >= kQ) d -= kQ;
    const std::int64_t s0 =
        static_cast<std::int32_t>(d) -
        (d > kQ / 2 ? static_cast<std::int32_t>(kQ) : 0);
    const std::int64_t s1 = sig.s1[i];
    norm += s0 * s0 + s1 * s1;
  }
  return norm <= key.params.bound_sq();
}

bool VerificationService::verify(const std::vector<std::uint32_t>& h,
                                 const FalconParams& params,
                                 std::string_view message,
                                 const Signature& sig) {
  const auto key = entry_for(h, params);
  std::vector<std::uint32_t> scratch;
  const bool ok = verify_one(*key, message, sig, scratch);
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.checked;
    ++(ok ? stats_.accepted : stats_.rejected);
  }
  return ok;
}

std::vector<std::uint8_t> VerificationService::verify_many(
    const std::vector<std::uint32_t>& h, const FalconParams& params,
    std::span<const std::string_view> messages,
    std::span<const Signature> sigs) {
  CGS_CHECK_MSG(messages.size() == sigs.size(),
                "verify_many: messages and signatures must pair up");
  const auto key = entry_for(h, params);
  std::vector<std::uint8_t> out(messages.size(), 0);
  if (messages.empty()) return out;

  // Fan out contiguous slices; each slice owns one scratch buffer. Items
  // are independent and the key entry is immutable, so there is no
  // cross-thread state beyond the disjoint result slots.
  const std::size_t want =
      std::max<std::size_t>(1, messages.size() / kMinBatchPerSlice);
  const std::size_t k = std::min<std::size_t>(
      {want, static_cast<std::size_t>(options_.num_threads), messages.size()});
  const std::size_t n = params.n;
  const auto run_slice = [&](std::size_t begin, std::size_t end) {
    std::vector<std::uint32_t> scratch;
    std::array<std::vector<std::uint32_t>, 4> cs;  // reused across groups
    std::size_t i = begin;
    // Groups of four ride the vectorized Keccak: one 4-lane permutation
    // pass squeezes all four hash-to-points (bit-identical to scalar).
    for (; i + 4 <= end; i += 4) {
      bool lanes_ok = true;
      for (std::size_t k = 0; k < 4; ++k)
        lanes_ok &= sigs[i + k].s1.size() == n;
      if (!lanes_ok) {
        // A malformed-degree item opts its group of four out of the
        // vectorized hash (degree-mismatch is an instant reject, no
        // hash needed); later groups keep the amortization.
        for (std::size_t k = 0; k < 4; ++k)
          out[i + k] =
              verify_one(*key, messages[i + k], sigs[i + k], scratch) ? 1 : 0;
        continue;
      }
      std::array<std::span<const std::uint8_t>, 4> nonces;
      std::array<std::string_view, 4> msgs;
      for (std::size_t k = 0; k < 4; ++k) {
        nonces[k] = std::span(sigs[i + k].nonce);
        msgs[k] = messages[i + k];
      }
      hash_to_point_x4(nonces, msgs, n, cs);
      for (std::size_t k = 0; k < 4; ++k)
        out[i + k] = verify_with_c(*key, cs[k], sigs[i + k], scratch) ? 1 : 0;
    }
    for (; i < end; ++i)
      out[i] = verify_one(*key, messages[i], sigs[i], scratch) ? 1 : 0;
  };
  const std::size_t chunk = (messages.size() + k - 1) / k;
  std::vector<std::function<void()>> slices;
  slices.reserve(k);
  for (std::size_t begin = 0; begin < messages.size(); begin += chunk)
    slices.push_back([&run_slice, begin, end = std::min(messages.size(),
                                                        begin + chunk)] {
      run_slice(begin, end);
    });
  TaskCrew::shared().run(std::move(slices));

  std::uint64_t accepted = 0;
  for (std::uint8_t v : out) accepted += v;
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.batches;
    stats_.checked += out.size();
    stats_.accepted += accepted;
    stats_.rejected += out.size() - accepted;
  }
  return out;
}

std::size_t VerificationService::num_cached_keys() const {
  return keys_.size();
}

obs::CacheStats VerificationService::key_cache_stats() const {
  return keys_.stats();
}

VerifyStats VerificationService::stats() const {
  std::lock_guard<std::mutex> lock(stats_mu_);
  return stats_;
}

}  // namespace cgs::falcon
