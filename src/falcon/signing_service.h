#pragma once
// SigningService: the batch-first Falcon signing front end, mirroring
// engine::GaussianService one layer up. The offline artifacts (synthesized
// sigma=2 netlist and its compiled kernel via the registry, per-key ffLDL
// trees) are materialized once and cached; the online path is a set of
// stateful slots, each owning a private engine-backed BlockSource,
// SamplerZ and ffSampling scratch. sign_many() splits a batch into one
// slice per slot it holds and runs the slices as one batch on the
// process-wide executor (common/task_crew.h), with zero shared mutable
// sampling state.
//
// Concurrency: sign_many() holds the slot lock only to check slots out
// and back in, never across the signing work itself, so two concurrent
// batches (e.g. the serve::Dispatcher's per-key lanes) overlap: each call
// takes whatever slots are free — at least one, up to one per message —
// and runs its batch on those while other calls run on the rest.
//
// Determinism: slot seeds are derived from (root_seed, slot index) via
// SplitMix64 and message i is pinned to checked-out slot i % k, whichever
// OS thread runs that slice. A NON-OVERLAPPING caller always finds every
// slot free, so it checks out slots 0..min(T, batch)-1 in index order and,
// for a fixed (root_seed, num_threads), the same sequence of sign_many()
// calls produces bit-identical signatures regardless of scheduling — the
// original single-caller contract. Overlapping callers split the slots by
// arrival order, which is inherently scheduling-dependent; every signature
// is still a valid draw from the signing distribution, just not a
// replayable one. Two slots never share PRNG state; each slot's streams
// simply continue across calls and keys.
//
// Stats: every slot accumulates into its own counters (its SamplerZ is
// single-consumer by contract) and publishes them into service-level
// totals at check-in, so stats()/base_calls()/rejections() read under the
// slot lock without racing in-flight work — they reflect completed
// sign_many() calls.

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string_view>
#include <vector>

#include "engine/block_source.h"
#include "engine/engine.h"
#include "engine/registry.h"
#include "falcon/sign.h"
#include "obs/metric.h"
#include "store/bounded_cache.h"
#include "store/kvstore.h"

namespace cgs::falcon {

/// Stable 64-bit fingerprint of a key pair's secret basis (f, g, F, G) and
/// degree — the identity the tree cache and the serving layer's shard
/// router key on. Collision handling is the cache's job (it stores the
/// actual (f, g) and checks), not the fingerprint's.
std::uint64_t key_fingerprint(const KeyPair& kp);

struct SigningOptions {
  engine::Backend backend = engine::Backend::kAuto;
  int num_threads = 0;          // slots; 0 -> hardware concurrency (min 1)
  std::uint64_t root_seed = 0;  // per-slot streams derived from this
  int precision = 128;          // base sampler probability precision
  std::size_t block = 1024;     // base samples prefetched per ring refill
  /// Budget for the per-key ffLDL tree cache. Default unbounded — the
  /// legacy every-key-resident behavior.
  store::CacheBudget tree_cache;
  /// Optional persistent key-state store (not owned; must outlive the
  /// service). When set, built trees are written through and an evicted
  /// key warm-starts from a decode instead of an O(n log n) rebuild.
  store::KvStore* key_state = nullptr;
};

class SigningService {
 public:
  /// `registry` (not owned) supplies the synthesized sigma=2 base sampler
  /// and its compiled kernel; it must outlive the service.
  explicit SigningService(engine::SamplerRegistry& registry,
                          SigningOptions options = {});

  /// Sign every message in `messages` with `kp`, the batch split across
  /// the slots. Returns signatures in message order. Thread-safe;
  /// concurrent calls overlap on disjoint slot subsets (each call checks
  /// out at least one free slot, so a call on one key never waits for a
  /// whole batch on another key to finish — only for one slot to free
  /// up). `stats`, when non-null, accumulates this call's totals.
  std::vector<Signature> sign_many(const KeyPair& kp,
                                   std::span<const std::string_view> messages,
                                   SignStats* stats = nullptr);

  /// Single-message convenience (still batch-fed under the hood).
  Signature sign(const KeyPair& kp, std::string_view message,
                 SignStats* stats = nullptr);

  /// Lifetime totals aggregated across all slots.
  SignStats stats() const;
  std::uint64_t base_calls() const;
  std::uint64_t rejections() const;

  /// Number of distinct keys whose ffLDL tree is cached.
  std::size_t num_cached_trees() const;

  /// ffLDL tree cache hit/miss/size totals (a miss is a tree build —
  /// the expensive per-key setup the cache exists to amortize).
  obs::CacheStats tree_cache_stats() const;

  int num_threads() const { return static_cast<int>(slots_.size()); }
  engine::Backend backend() const;
  const SigningOptions& options() const { return options_; }

 private:
  struct Slot {
    std::unique_ptr<engine::SamplerEngine> engine;
    std::unique_ptr<engine::EngineBlockSource> source;
    std::unique_ptr<SamplerZ> samplerz;
    FfScratch scratch;
    bool busy = false;  // guarded by pool_mu_
    // Published-at-check-in lifetime counters, read under pool_mu_. The
    // live SamplerZ counters belong to the checked-out call and are only
    // snapshotted here once the slot is returned.
    SignStats totals;
    std::uint64_t base_calls = 0;
    std::uint64_t rejections = 0;
  };
  struct TreeEntry {
    IPoly f, g;  // fingerprint collision guard (the tree's actual inputs)
    std::shared_ptr<const FalconTree> tree;
  };
  using TreeCache = store::BoundedCache<std::uint64_t, TreeEntry>;

  /// The (pinned) tree entry for kp: memory hit, KvStore warm start, or
  /// build — in that order. sign_many holds the pin for its whole batch,
  /// so a hot tree is never evicted mid-batch.
  TreeCache::Pinned tree_for(const KeyPair& kp);

  /// Blocks until at least one slot is free, then takes up to `want` of
  /// them in index order. Never holds pool_mu_ while signing runs.
  std::vector<Slot*> checkout(std::size_t want);
  /// Publishes each taken slot's counters (`call_stats[t]` for taken[t])
  /// and frees it.
  void checkin(std::span<Slot* const> taken,
               std::span<const SignStats> call_stats);

  SigningOptions options_;
  std::vector<std::unique_ptr<Slot>> slots_;
  mutable std::mutex pool_mu_;  // guards Slot::busy + published counters
  std::condition_variable pool_cv_;
  TreeCache trees_;
};

}  // namespace cgs::falcon
