#include "falcon/signing_service.h"

#include <cstring>
#include <functional>
#include <thread>

#include "common/check.h"
#include "common/task_crew.h"
#include "falcon/state_codec.h"
#include "gauss/params.h"
#include "prng/splitmix.h"
#include "serial/serial.h"

namespace cgs::falcon {

namespace {

// The registry netlist is the sigma=2 Falcon base; every tree leaf width
// keygen admits sits below it (params.sigma_max < 2).
constexpr double kSigmaBase = 2.0;

}  // namespace

// Fingerprint of the tree's actual inputs: the secret basis (f, g, F, G)
// plus the degree. Collisions are checked against a stored (f, g) copy, so
// a (astronomically unlikely) 64-bit clash degrades to a CGS_CHECK, never
// to signing under the wrong tree.
std::uint64_t key_fingerprint(const KeyPair& kp) {
  std::vector<std::uint8_t> bytes;
  bytes.reserve(8 + 16 * kp.params.n);
  const auto append = [&bytes](const void* p, std::size_t len) {
    const auto* b = static_cast<const std::uint8_t*>(p);
    bytes.insert(bytes.end(), b, b + len);
  };
  const std::uint64_t n = kp.params.n;
  append(&n, sizeof n);
  for (const IPoly* poly : {&kp.f, &kp.g, &kp.f_cap, &kp.g_cap})
    append(poly->data(), poly->size() * sizeof(std::int32_t));
  return serial::fnv1a64(bytes);
}

SigningService::SigningService(engine::SamplerRegistry& registry,
                               SigningOptions options)
    : options_(options), trees_(options.tree_cache) {
  CGS_CHECK_MSG(options_.precision >= 1 && options_.block >= 1,
                "signing service needs positive precision and block size");
  int threads = options_.num_threads;
  if (threads <= 0)
    threads = static_cast<int>(
        std::max(1u, std::thread::hardware_concurrency()));
  options_.num_threads = threads;

  const auto synth =
      registry.get(gauss::GaussianParams::sigma_2(options_.precision));

  // SplitMix64 over the root seed: independent (engine, word) seed pairs
  // per slot, so streams never overlap and adding slots only extends the
  // derivation sequence.
  prng::SplitMix64Source seeder(options_.root_seed);
  for (int t = 0; t < threads; ++t) {
    const std::uint64_t engine_seed = seeder.next_word();
    const std::uint64_t word_seed = seeder.next_word();
    auto slot = std::make_unique<Slot>();
    engine::EngineOptions eng;
    eng.backend = options_.backend;
    eng.num_threads = 1;  // the service owns the fan-out, not the engine
    eng.root_seed = engine_seed;
    eng.registry = &registry;  // one kernel per machine, shared by slots
    slot->engine = std::make_unique<engine::SamplerEngine>(synth, eng);
    slot->source = std::make_unique<engine::EngineBlockSource>(
        *slot->engine, word_seed, options_.block);
    slot->samplerz = std::make_unique<SamplerZ>(*slot->source, kSigmaBase);
    slots_.push_back(std::move(slot));
  }
}

engine::Backend SigningService::backend() const {
  return slots_.front()->engine->backend();
}

SigningService::TreeCache::Pinned SigningService::tree_for(const KeyPair& kp) {
  const std::uint64_t fp = key_fingerprint(kp);
  store::KvStore* kv = options_.key_state;
  auto pinned = trees_.get_or_build(fp, [&]() -> TreeCache::Built {
    const std::string state_key = tree_state_key(fp);
    if (kv) {
      if (const auto bytes = kv->get(state_key)) {
        try {
          TreeRecord rec = decode_tree(*bytes, kp.params);
          // The stored (f, g) must match the key in hand — a stale record
          // (re-keyed tenant) or a fingerprint collision falls through to
          // a rebuild, which then overwrites the record.
          if (rec.f == kp.f && rec.g == kp.g) {
            auto entry = std::make_shared<TreeEntry>(
                TreeEntry{kp.f, kp.g, std::move(rec.tree)});
            const std::size_t cost =
                tree_footprint_bytes(*entry->tree) + sizeof(TreeEntry) +
                2 * kp.params.n * sizeof(std::int32_t);
            return {std::move(entry), cost, /*warm_start=*/true};
          }
        } catch (const serial::SerialError&) {
          // Corrupt record: rebuild (and overwrite it below).
        }
      }
    }
    auto tree = std::make_shared<const FalconTree>(kp);
    if (kv) kv->put(state_key, encode_tree(kp, *tree));  // best-effort
    auto entry =
        std::make_shared<TreeEntry>(TreeEntry{kp.f, kp.g, std::move(tree)});
    const std::size_t cost = tree_footprint_bytes(*entry->tree) +
                             sizeof(TreeEntry) +
                             2 * kp.params.n * sizeof(std::int32_t);
    return {std::move(entry), cost, /*warm_start=*/false};
  });
  CGS_CHECK_MSG(pinned->f == kp.f && pinned->g == kp.g,
                "key fingerprint collision in the tree cache");
  return pinned;
}

std::vector<SigningService::Slot*> SigningService::checkout(std::size_t want) {
  std::unique_lock<std::mutex> lock(pool_mu_);
  pool_cv_.wait(lock, [this] {
    for (const auto& slot : slots_)
      if (!slot->busy) return true;
    return false;
  });
  std::vector<Slot*> taken;
  for (const auto& slot : slots_) {
    if (taken.size() == want) break;
    if (!slot->busy) {
      slot->busy = true;
      taken.push_back(slot.get());
    }
  }
  return taken;
}

void SigningService::checkin(std::span<Slot* const> taken,
                             std::span<const SignStats> call_stats) {
  {
    std::lock_guard<std::mutex> lock(pool_mu_);
    for (std::size_t t = 0; t < taken.size(); ++t) {
      // Publish the live counters now that no call drives them.
      Slot& slot = *taken[t];
      slot.base_calls = slot.samplerz->base_calls();
      slot.rejections = slot.samplerz->rejections();
      slot.totals.attempts += call_stats[t].attempts;
      slot.totals.samplerz_calls += call_stats[t].samplerz_calls;
      slot.totals.base_samples += call_stats[t].base_samples;
      slot.busy = false;
    }
  }
  pool_cv_.notify_all();
}

std::vector<Signature> SigningService::sign_many(
    const KeyPair& kp, std::span<const std::string_view> messages,
    SignStats* stats) {
  // The pin keeps this key's tree in the cache for the whole batch —
  // eviction pressure from other tenants defers around in-flight work.
  const TreeCache::Pinned entry = tree_for(kp);
  const FalconTree& tree = *entry->tree;
  std::vector<Signature> out(messages.size());
  if (messages.empty()) return out;

  // Take whatever is free, at most one slot per message — the slot lock
  // is never held across the signing itself, so a batch on another key
  // only ever waits for one slot to come back, not for a whole batch.
  // An uncontended caller gets slots 0..k-1 in index order and message
  // i pinned to slot i % k — the deterministic single-caller contract.
  const std::vector<Slot*> taken =
      checkout(std::min(slots_.size(), messages.size()));
  const std::size_t k = taken.size();
  std::vector<SignStats> call_stats(k);
  struct CheckinGuard {
    SigningService* svc;
    std::span<Slot* const> taken;
    std::span<const SignStats> call_stats;
    ~CheckinGuard() { svc->checkin(taken, call_stats); }
  } guard{this, taken, call_stats};

  // Slice t runs on slot t's state, whichever executor thread picks it up.
  std::vector<std::function<void()>> slices;
  slices.reserve(k);
  for (std::size_t t = 0; t < k; ++t)
    slices.push_back([&, t] {
      Slot& slot = *taken[t];
      for (std::size_t i = t; i < messages.size(); i += k)
        out[i] = sign_with(kp, tree, messages[i], *slot.samplerz, slot.scratch,
                           &call_stats[t]);
    });
  TaskCrew::shared().run(std::move(slices));

  if (stats)
    for (const SignStats& cs : call_stats) {
      stats->attempts += cs.attempts;
      stats->samplerz_calls += cs.samplerz_calls;
      stats->base_samples += cs.base_samples;
    }
  return out;
}

Signature SigningService::sign(const KeyPair& kp, std::string_view message,
                               SignStats* stats) {
  const std::string_view one[] = {message};
  return std::move(sign_many(kp, one, stats).front());
}

SignStats SigningService::stats() const {
  std::lock_guard<std::mutex> lock(pool_mu_);
  SignStats total;
  for (const auto& slot : slots_) {
    total.attempts += slot->totals.attempts;
    total.samplerz_calls += slot->totals.samplerz_calls;
    total.base_samples += slot->totals.base_samples;
  }
  return total;
}

std::uint64_t SigningService::base_calls() const {
  std::lock_guard<std::mutex> lock(pool_mu_);
  std::uint64_t total = 0;
  // Idle slots read the live counter (equal to the snapshot); a busy
  // slot's in-flight delta lands at its check-in.
  for (const auto& slot : slots_)
    total += slot->busy ? slot->base_calls : slot->samplerz->base_calls();
  return total;
}

std::uint64_t SigningService::rejections() const {
  std::lock_guard<std::mutex> lock(pool_mu_);
  std::uint64_t total = 0;
  for (const auto& slot : slots_)
    total += slot->busy ? slot->rejections : slot->samplerz->rejections();
  return total;
}

std::size_t SigningService::num_cached_trees() const { return trees_.size(); }

obs::CacheStats SigningService::tree_cache_stats() const {
  return trees_.stats();
}

}  // namespace cgs::falcon
