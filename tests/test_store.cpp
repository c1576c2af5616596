// Key-state store subsystem: the shared bounded 2Q cache (admission and
// eviction order, scan resistance, byte budgets, pin exemption,
// single-flight coalescing, failed-build retry), the append-log KvStore
// (round trips, crash-safe torn-tail truncation, checksum rejection,
// compaction), the tree / NTT-key codecs' bit-exact round trips, and the
// services' eviction -> disk -> warm-start path staying bit-identical to
// the unbounded legacy behavior.

#include <gtest/gtest.h>

#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <bit>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "engine/registry.h"
#include "falcon/ffsampling.h"
#include "falcon/keygen.h"
#include "falcon/signing_service.h"
#include "falcon/state_codec.h"
#include "falcon/verification_service.h"
#include "falcon/verify.h"
#include "prng/chacha20.h"
#include "serial/serial.h"
#include "store/bounded_cache.h"
#include "store/kvstore.h"

namespace cgs::store {
namespace {

std::string fresh_dir(const char* name) {
  const std::string dir = ::testing::TempDir() + "cgs-store-" + name + "-" +
                          std::to_string(::getpid());
  std::filesystem::remove_all(dir);
  return dir;
}

using IntCache = BoundedCache<int, int>;

IntCache::Built make_int(int v, std::size_t bytes = 0, bool warm = false) {
  return {std::make_shared<int>(v), bytes, warm};
}

int get(IntCache& cache, int key, std::size_t bytes = 0) {
  return *cache.get_or_build(key, [&] { return make_int(key * 10, bytes); });
}

// ---------------------------------------------------------------- 2Q core

TEST(BoundedCache, UnboundedByDefault) {
  IntCache cache;
  for (int k = 0; k < 100; ++k) get(cache, k);
  EXPECT_EQ(cache.size(), 100u);
  EXPECT_EQ(cache.stats().evictions, 0u);
}

TEST(BoundedCache, HitReturnsCachedValueWithoutRebuilding) {
  IntCache cache;
  int builds = 0;
  const auto build = [&] {
    ++builds;
    return make_int(7);
  };
  EXPECT_EQ(*cache.get_or_build(1, build), 7);
  EXPECT_EQ(*cache.get_or_build(1, build), 7);
  EXPECT_EQ(builds, 1);
  const auto stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
}

TEST(BoundedCache, ProbationEvictsInFifoOrderBeforeProtected) {
  IntCache cache({.max_entries = 3});
  get(cache, 1);
  get(cache, 2);
  get(cache, 3);
  // Second touch promotes 1 to the protected LRU; 2 and 3 stay probation.
  get(cache, 1);

  get(cache, 4);  // over budget: probation FIFO front (2) goes first
  EXPECT_EQ(cache.peek(2), nullptr);
  EXPECT_NE(cache.peek(1), nullptr);
  EXPECT_NE(cache.peek(3), nullptr);
  EXPECT_NE(cache.peek(4), nullptr);

  get(cache, 5);  // then 3
  EXPECT_EQ(cache.peek(3), nullptr);
  EXPECT_NE(cache.peek(1), nullptr);
  EXPECT_EQ(cache.stats().evictions, 2u);
}

TEST(BoundedCache, OneShotScanDoesNotFlushProtectedWorkingSet) {
  IntCache cache({.max_entries = 4});
  // Hot set: 1 and 2, both promoted.
  get(cache, 1);
  get(cache, 2);
  get(cache, 1);
  get(cache, 2);
  // Cold one-shot sweep of 20 tenants churns through probation only.
  for (int k = 100; k < 120; ++k) get(cache, k);
  EXPECT_NE(cache.peek(1), nullptr);
  EXPECT_NE(cache.peek(2), nullptr);
  EXPECT_EQ(cache.size(), 4u);
}

TEST(BoundedCache, ProtectedEvictsLeastRecentlyUsedWhenProbationEmpty) {
  IntCache cache({.max_entries = 2});
  get(cache, 1);
  get(cache, 2);
  get(cache, 1);  // promote 1
  get(cache, 2);  // promote 2 (probation now empty); LRU order: 1, 2
  get(cache, 3);  // 3 in probation, over budget: protected LRU front = 1
  EXPECT_EQ(cache.peek(1), nullptr);
  EXPECT_NE(cache.peek(2), nullptr);
  EXPECT_NE(cache.peek(3), nullptr);
}

TEST(BoundedCache, ByteBudgetEvictsByCost) {
  IntCache cache({.max_bytes = 100});
  get(cache, 1, 60);
  EXPECT_EQ(cache.bytes(), 60u);
  get(cache, 2, 60);  // 120 > 100: evict 1 (probation FIFO)
  EXPECT_EQ(cache.peek(1), nullptr);
  EXPECT_NE(cache.peek(2), nullptr);
  EXPECT_EQ(cache.bytes(), 60u);
  EXPECT_EQ(cache.stats().bytes, 60u);
}

TEST(BoundedCache, PinBlocksEvictionUntilReleased) {
  IntCache cache({.max_entries = 1});
  auto pin_a = cache.get_or_build(1, [] { return make_int(10); });
  auto pin_b = cache.get_or_build(2, [] { return make_int(20); });
  // Both pinned: the cache tolerates the transient overshoot.
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.stats().evictions, 0u);

  pin_a = IntCache::Pinned();  // release 1 -> eviction resumes, 1 goes
  EXPECT_EQ(cache.peek(1), nullptr);
  EXPECT_NE(cache.peek(2), nullptr);
  EXPECT_EQ(cache.size(), 1u);

  // The surviving pin still reads its value.
  EXPECT_EQ(*pin_b, 20);
}

TEST(BoundedCache, StalePinReleaseIsHarmlessAfterReinsert) {
  IntCache cache({.max_entries = 4});
  auto pin_old = cache.get_or_build(1, [] { return make_int(10); });
  EXPECT_TRUE(cache.erase(1));
  // Same key, new generation.
  auto pin_new = cache.get_or_build(1, [] { return make_int(11); });
  pin_old = IntCache::Pinned();  // stale unpin: must not touch the new entry
  EXPECT_EQ(*pin_new, 11);
  pin_new = IntCache::Pinned();
  EXPECT_TRUE(cache.erase(1));  // pin count balanced: entry fully released
}

TEST(BoundedCache, WarmStartOutcomeAndCounter) {
  IntCache cache;
  auto pinned =
      cache.get_or_build(1, [] { return make_int(5, 0, /*warm=*/true); });
  EXPECT_EQ(pinned.outcome(), IntCache::Outcome::kWarmStart);
  auto again = cache.get_or_build(1, [] { return make_int(5); });
  EXPECT_EQ(again.outcome(), IntCache::Outcome::kHit);
  const auto stats = cache.stats();
  EXPECT_EQ(stats.warm_starts, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 1u);
}

TEST(BoundedCache, ClearEmptiesEverything) {
  IntCache cache;
  get(cache, 1, 10);
  get(cache, 2, 10);
  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.bytes(), 0u);
  EXPECT_EQ(cache.peek(1), nullptr);
}

TEST(BoundedCache, SingleFlightCoalescesConcurrentMisses) {
  IntCache cache;
  std::atomic<int> builds{0};
  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  std::vector<int> results(kThreads, -1);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      results[t] = *cache.get_or_build(42, [&] {
        builds.fetch_add(1);
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        return make_int(420);
      });
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(builds.load(), 1);
  for (int r : results) EXPECT_EQ(r, 420);
  const auto stats = cache.stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, static_cast<std::uint64_t>(kThreads - 1));
}

TEST(BoundedCache, FailedBuildIsRetriedNotCached) {
  IntCache cache;
  int calls = 0;
  const auto flaky = [&] {
    if (++calls == 1) throw Error("transient failure");
    return make_int(9);
  };
  EXPECT_THROW(cache.get_or_build(1, flaky), Error);
  // The failure was evicted, not memoized: the next request retries.
  EXPECT_EQ(*cache.get_or_build(1, flaky), 9);
  EXPECT_EQ(calls, 2);
  EXPECT_EQ(cache.stats().misses, 1u);  // only the successful build counts
}

TEST(BoundedCache, ConcurrentDistinctKeysBuildInParallel) {
  IntCache cache({.max_entries = 16});
  std::vector<std::thread> threads;
  std::atomic<int> total{0};
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 50; ++i)
        total.fetch_add(get(cache, (t * 50 + i) % 24));
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_LE(cache.size(), 16u);
  EXPECT_GT(total.load(), 0);
}

// ---------------------------------------------------------------- KvStore

std::vector<std::uint8_t> blob(std::initializer_list<int> vals) {
  std::vector<std::uint8_t> v;
  for (int x : vals) v.push_back(static_cast<std::uint8_t>(x));
  return v;
}

TEST(KvStore, PutGetEraseRoundTrip) {
  KvStore kv({.dir = fresh_dir("roundtrip")});
  EXPECT_EQ(kv.get("a"), std::nullopt);
  EXPECT_TRUE(kv.put("a", blob({1, 2, 3})));
  EXPECT_TRUE(kv.put("b", blob({4})));
  EXPECT_EQ(kv.get("a"), blob({1, 2, 3}));
  EXPECT_EQ(kv.get("b"), blob({4}));
  EXPECT_TRUE(kv.contains("a"));
  EXPECT_EQ(kv.size(), 2u);

  EXPECT_TRUE(kv.put("a", blob({9, 9})));  // last write wins
  EXPECT_EQ(kv.get("a"), blob({9, 9}));
  EXPECT_EQ(kv.size(), 2u);

  EXPECT_TRUE(kv.erase("a"));
  EXPECT_EQ(kv.get("a"), std::nullopt);
  EXPECT_FALSE(kv.contains("a"));
  EXPECT_EQ(kv.size(), 1u);
}

TEST(KvStore, LogIsOwnerOnlyIncludingAfterCompaction) {
  // The log persists secret signing state (encoded trees carry f and g),
  // so it must never be readable by other local users — including the
  // compaction temp file that gets renamed over it, and a pre-existing
  // log created lax by an older build.
  const std::string dir = fresh_dir("perms");
  struct ::stat st {};
  {
    KvStore kv({.dir = dir});
    kv.put("k", blob({1, 2, 3}));
    ASSERT_EQ(::stat(kv.log_path().c_str(), &st), 0);
    EXPECT_EQ(st.st_mode & 0777u, 0600u);
    kv.compact();
    ASSERT_EQ(::stat(kv.log_path().c_str(), &st), 0);
    EXPECT_EQ(st.st_mode & 0777u, 0600u);
    ASSERT_EQ(::chmod(kv.log_path().c_str(), 0644), 0);
  }
  KvStore reopened({.dir = dir});
  ASSERT_EQ(::stat(reopened.log_path().c_str(), &st), 0);
  EXPECT_EQ(st.st_mode & 0777u, 0600u);
  EXPECT_EQ(reopened.get("k"), blob({1, 2, 3}));
}

TEST(KvStore, PersistsAcrossReopen) {
  const std::string dir = fresh_dir("reopen");
  {
    KvStore kv({.dir = dir});
    kv.put("tree", blob({1, 2, 3, 4}));
    kv.put("gone", blob({5}));
    kv.erase("gone");
  }
  KvStore kv({.dir = dir});
  EXPECT_EQ(kv.get("tree"), blob({1, 2, 3, 4}));
  EXPECT_EQ(kv.get("gone"), std::nullopt);  // the tombstone replayed too
  EXPECT_EQ(kv.size(), 1u);
  EXPECT_EQ(kv.stats().truncated_bytes, 0u);
}

TEST(KvStore, TornTailIsTruncatedOnOpen) {
  const std::string dir = fresh_dir("torn");
  std::string path;
  {
    KvStore kv({.dir = dir});
    kv.put("ok1", blob({1}));
    kv.put("ok2", blob({2}));
    path = kv.log_path();
  }
  // Simulate a crash mid-append: garbage where the next record started.
  {
    std::ofstream f(path, std::ios::binary | std::ios::app);
    const char junk[] = "\xff\xff\xff\xff\xff\xff\xff";
    f.write(junk, sizeof junk - 1);
  }
  KvStore kv({.dir = dir});
  EXPECT_EQ(kv.get("ok1"), blob({1}));
  EXPECT_EQ(kv.get("ok2"), blob({2}));
  EXPECT_EQ(kv.stats().truncated_bytes, 7u);
  // The tail was cut, so appends resume on a clean frame boundary.
  EXPECT_TRUE(kv.put("ok3", blob({3})));
  KvStore kv2({.dir = dir});
  EXPECT_EQ(kv2.get("ok3"), blob({3}));
  EXPECT_EQ(kv2.stats().truncated_bytes, 0u);
}

TEST(KvStore, PartialFinalRecordIsDropped) {
  const std::string dir = fresh_dir("partial");
  std::string path;
  std::uintmax_t full = 0;
  {
    KvStore kv({.dir = dir});
    kv.put("keep", blob({1, 2}));
    kv.put("lost", blob({3, 4, 5, 6, 7, 8}));
    path = kv.log_path();
    full = std::filesystem::file_size(path);
  }
  std::filesystem::resize_file(path, full - 5);  // crash mid-write
  KvStore kv({.dir = dir});
  EXPECT_EQ(kv.get("keep"), blob({1, 2}));
  EXPECT_EQ(kv.get("lost"), std::nullopt);
  EXPECT_GT(kv.stats().truncated_bytes, 0u);
}

TEST(KvStore, CorruptedChecksumRejectsTheRecord) {
  const std::string dir = fresh_dir("bitrot");
  std::string path;
  {
    KvStore kv({.dir = dir});
    kv.put("keep", blob({1, 2}));
    kv.put("rot", blob({3, 4, 5}));
    path = kv.log_path();
  }
  // Flip the last payload byte of the final record.
  {
    std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(-1, std::ios::end);
    f.put('\x5a');
  }
  KvStore kv({.dir = dir});
  EXPECT_EQ(kv.get("keep"), blob({1, 2}));
  EXPECT_EQ(kv.get("rot"), std::nullopt);
  EXPECT_GT(kv.stats().truncated_bytes, 0u);
}

TEST(KvStore, ExplicitCompactionKeepsExactlyTheLiveSet) {
  const std::string dir = fresh_dir("compact");
  KvStoreOptions opts{.dir = dir};
  opts.compact_garbage_ratio = 0.0;  // manual only
  KvStore kv(opts);
  kv.put("a", blob({1}));
  kv.put("b", blob({2}));
  kv.put("c", blob({3}));
  kv.put("b", blob({22, 22}));  // garbage: old b
  kv.erase("c");                // garbage: c + tombstone
  const auto before = kv.stats();
  EXPECT_GT(before.file_bytes, before.live_bytes);

  kv.compact();
  const auto after = kv.stats();
  EXPECT_EQ(after.compactions, 1u);
  EXPECT_EQ(after.file_bytes, after.live_bytes);
  EXPECT_LT(after.file_bytes, before.file_bytes);
  EXPECT_EQ(kv.get("a"), blob({1}));
  EXPECT_EQ(kv.get("b"), blob({22, 22}));
  EXPECT_EQ(kv.get("c"), std::nullopt);

  // Writes after compaction land in the new log and persist.
  kv.put("d", blob({4}));
  KvStore reopened({.dir = dir});
  EXPECT_EQ(reopened.get("a"), blob({1}));
  EXPECT_EQ(reopened.get("b"), blob({22, 22}));
  EXPECT_EQ(reopened.get("d"), blob({4}));
  EXPECT_EQ(reopened.size(), 3u);
}

TEST(KvStore, AutoCompactionTriggersOnGarbageRatio) {
  KvStoreOptions opts{.dir = fresh_dir("autocompact")};
  opts.compact_garbage_ratio = 0.5;
  opts.compact_min_bytes = 1;
  KvStore kv(opts);
  for (int i = 0; i < 16; ++i) kv.put("hot", blob({i}));
  EXPECT_GE(kv.stats().compactions, 1u);
  EXPECT_EQ(kv.get("hot"), blob({15}));
  EXPECT_EQ(kv.size(), 1u);
}

// ----------------------------------------------------- state codecs

const falcon::KeyPair& codec_key() {
  static const falcon::KeyPair kp = [] {
    prng::ChaCha20Source rng(777);
    return falcon::keygen(falcon::FalconParams::for_degree(64), rng);
  }();
  return kp;
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

void expect_cvec_bits_equal(const falcon::CVec& a, const falcon::CVec& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(bits(a[i].real()), bits(b[i].real()));
    EXPECT_EQ(bits(a[i].imag()), bits(b[i].imag()));
  }
}

void expect_nodes_bits_equal(std::span<const double> a,
                             std::span<const double> b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i)
    EXPECT_EQ(bits(a[i]), bits(b[i])) << i;
}

TEST(StateCodec, TreeRoundTripIsBitExact) {
  const falcon::KeyPair& kp = codec_key();
  const falcon::FalconTree built(kp);
  const auto frame = falcon::encode_tree(kp, built);

  const falcon::TreeRecord rec = falcon::decode_tree(frame, kp.params);
  EXPECT_EQ(rec.f, kp.f);
  EXPECT_EQ(rec.g, kp.g);
  ASSERT_NE(rec.tree, nullptr);
  expect_cvec_bits_equal(rec.tree->b00(), built.b00());
  expect_cvec_bits_equal(rec.tree->b01(), built.b01());
  expect_cvec_bits_equal(rec.tree->b10(), built.b10());
  expect_cvec_bits_equal(rec.tree->b11(), built.b11());
  EXPECT_EQ(bits(rec.tree->min_leaf_sigma()), bits(built.min_leaf_sigma()));
  EXPECT_EQ(bits(rec.tree->max_leaf_sigma()), bits(built.max_leaf_sigma()));
  expect_nodes_bits_equal(rec.tree->nodes(), built.nodes());
}

TEST(StateCodec, TreeFrameRejectsCorruption) {
  const falcon::KeyPair& kp = codec_key();
  const falcon::FalconTree built(kp);
  auto frame = falcon::encode_tree(kp, built);
  frame[frame.size() / 2] ^= 0x40;
  EXPECT_THROW(falcon::decode_tree(frame, kp.params), serial::SerialError);
  EXPECT_THROW(falcon::decode_tree(std::span(frame.data(), 10), kp.params),
               serial::SerialError);
}

// The payload of a kFalconTree frame with the last 8-byte-aligned word
// equal to `from` replaced by `to`, re-wrapped so the checksum is valid:
// tampering that only a field-level check can catch.
std::vector<std::uint8_t> rewrap_with_last_word_replaced(
    std::span<const std::uint8_t> frame, double from, double to) {
  const auto view = serial::unwrap(frame, serial::TypeTag::kFalconTree);
  std::vector<std::uint8_t> payload(view.begin(), view.end());
  const std::uint64_t needle = bits(from), repl = bits(to);
  std::size_t at = payload.size();
  for (std::size_t i = 0; i + 8 <= payload.size(); i += 8) {
    std::uint64_t w;
    std::memcpy(&w, payload.data() + i, 8);
    if (w == needle) at = i;
  }
  EXPECT_LT(at, payload.size()) << "value not found in the payload";
  if (at < payload.size()) std::memcpy(payload.data() + at, &repl, 8);
  return serial::wrap(serial::TypeTag::kFalconTree, std::move(payload));
}

TEST(StateCodec, TamperedLeafWidthIsRejected) {
  // A checksum-valid record whose leaf sigma' sits above the sigma = 2
  // base sampler: every sign for that tenant would throw in SamplerZ (or,
  // under the record's max, sample the wrong width) and the record would
  // never be rebuilt. The max leaf width occurs in the header and in a
  // leaf; the last occurrence is the leaf.
  const falcon::KeyPair& kp = codec_key();
  const falcon::FalconTree built(kp);
  const auto frame = falcon::encode_tree(kp, built);
  const auto above_base =
      rewrap_with_last_word_replaced(frame, built.max_leaf_sigma(), 2.5);
  EXPECT_THROW(falcon::decode_tree(above_base, kp.params),
               serial::SerialError);
  const auto below_min = rewrap_with_last_word_replaced(
      frame, built.max_leaf_sigma(), built.min_leaf_sigma() * 0.99);
  EXPECT_THROW(falcon::decode_tree(below_min, kp.params),
               serial::SerialError);
  // The untampered record fails too against a tighter params envelope.
  falcon::FalconParams tight = kp.params;
  tight.sigma_max = built.max_leaf_sigma() * 0.999;
  EXPECT_THROW(falcon::decode_tree(frame, tight), serial::SerialError);
  // And against another degree.
  EXPECT_THROW(
      falcon::decode_tree(frame, falcon::FalconParams::for_degree(128)),
      serial::SerialError);
}

TEST(StateCodec, DecodeRecomputesLeafInverseWidths) {
  // A record whose 1/(2 sigma'^2) disagrees with its sigma' decodes to the
  // tree that was built: the inverse width is derived, not trusted.
  const falcon::KeyPair& kp = codec_key();
  const falcon::FalconTree built(kp);
  const double sigma = built.max_leaf_sigma();
  const auto frame = rewrap_with_last_word_replaced(
      falcon::encode_tree(kp, built), 1.0 / (2.0 * sigma * sigma), 0.25);
  const falcon::TreeRecord rec = falcon::decode_tree(frame, kp.params);
  expect_nodes_bits_equal(rec.tree->nodes(), built.nodes());
}

TEST(StateCodec, NttKeyRoundTripIsExact) {
  falcon::NttKeyRecord rec;
  rec.params = falcon::FalconParams::for_degree(64);
  const std::size_t n = rec.params.n;
  for (std::size_t i = 0; i < n; ++i) {
    rec.h.push_back(static_cast<std::uint32_t>((i * 2654435761u) % 12289));
    rec.h_ntt.push_back(static_cast<std::uint32_t>((i * 97 + 5) % 12289));
    rec.h_ntt_shoup.push_back(static_cast<std::uint32_t>(i * 1234567u));
  }
  const auto frame = falcon::encode_ntt_key(rec);
  const falcon::NttKeyRecord out = falcon::decode_ntt_key(frame);
  EXPECT_EQ(out.h, rec.h);
  EXPECT_EQ(out.h_ntt, rec.h_ntt);
  EXPECT_EQ(out.h_ntt_shoup, rec.h_ntt_shoup);
  EXPECT_EQ(out.params.n, rec.params.n);
  EXPECT_EQ(out.params.bound_sq(), rec.params.bound_sq());

  auto bad = frame;
  bad[bad.size() - 3] ^= 0x01;
  EXPECT_THROW(falcon::decode_ntt_key(bad), serial::SerialError);
}

TEST(StateCodec, FootprintsAreSane) {
  const falcon::KeyPair& kp = codec_key();
  const falcon::FalconTree tree(kp);
  // A degree-64 tree carries >= 4 * 64 basis coefficients alone.
  EXPECT_GT(falcon::tree_footprint_bytes(tree), 4 * 64 * sizeof(falcon::cplx));
  EXPECT_GT(falcon::ntt_key_footprint_bytes(64), 3 * 64 * 4u);
}

// ------------------------------------------- service warm-start paths

engine::SamplerRegistry& shared_registry() {
  static engine::SamplerRegistry reg({.cache_dir = "", .use_disk = false});
  return reg;
}

falcon::KeyPair keygen_for_seed(std::uint64_t seed) {
  prng::ChaCha20Source rng(seed);
  return falcon::keygen(falcon::FalconParams::for_degree(64), rng);
}

bool sigs_equal(const falcon::Signature& a, const falcon::Signature& b) {
  return a.nonce == b.nonce && a.s1 == b.s1;
}

TEST(ServiceWarmStart, SigningIsBitIdenticalUnderEvictionChurn) {
  const falcon::KeyPair kp_a = keygen_for_seed(101);
  const falcon::KeyPair kp_b = keygen_for_seed(202);
  KvStore kv({.dir = fresh_dir("sign-kv")});

  falcon::SigningOptions bounded_opts;
  bounded_opts.num_threads = 1;
  bounded_opts.root_seed = 99;
  bounded_opts.tree_cache.max_entries = 1;
  bounded_opts.key_state = &kv;
  falcon::SigningService bounded(shared_registry(), bounded_opts);

  falcon::SigningOptions legacy_opts;
  legacy_opts.num_threads = 1;
  legacy_opts.root_seed = 99;
  falcon::SigningService legacy(shared_registry(), legacy_opts);

  // A / B / A: the bounded service evicts A's tree for B's, then
  // warm-starts A's from the KvStore. Same worker streams, same messages
  // => the signatures must be bit-identical to the never-evicting service.
  const falcon::Signature a1 = bounded.sign(kp_a, "message-1");
  const falcon::Signature b1 = bounded.sign(kp_b, "message-2");
  const falcon::Signature a2 = bounded.sign(kp_a, "message-3");

  EXPECT_TRUE(sigs_equal(a1, legacy.sign(kp_a, "message-1")));
  EXPECT_TRUE(sigs_equal(b1, legacy.sign(kp_b, "message-2")));
  EXPECT_TRUE(sigs_equal(a2, legacy.sign(kp_a, "message-3")));

  const auto stats = bounded.tree_cache_stats();
  EXPECT_EQ(stats.misses, 3u);       // A built, B built, A re-entered
  EXPECT_EQ(stats.warm_starts, 1u);  // ... via the store, not a rebuild
  EXPECT_GE(stats.evictions, 2u);
  EXPECT_EQ(bounded.num_cached_trees(), 1u);

  // And they all verify.
  falcon::Verifier va(kp_a.h, kp_a.params);
  EXPECT_TRUE(va.verify("message-1", a1));
  EXPECT_TRUE(va.verify("message-3", a2));
  falcon::Verifier vb(kp_b.h, kp_b.params);
  EXPECT_TRUE(vb.verify("message-2", b1));
}

TEST(ServiceWarmStart, SigningWarmStartsAcrossProcessRestart) {
  const falcon::KeyPair kp = keygen_for_seed(303);
  const std::string dir = fresh_dir("sign-restart");
  falcon::Signature first;
  {
    KvStore kv({.dir = dir});
    falcon::SigningOptions opts;
    opts.num_threads = 1;
    opts.root_seed = 7;
    opts.key_state = &kv;
    falcon::SigningService svc(shared_registry(), opts);
    first = svc.sign(kp, "persisted");
    EXPECT_EQ(svc.tree_cache_stats().warm_starts, 0u);
  }
  {
    // "Restart": a fresh store over the same directory decodes the tree
    // instead of rebuilding it, and signs identically.
    KvStore kv({.dir = dir});
    falcon::SigningOptions opts;
    opts.num_threads = 1;
    opts.root_seed = 7;
    opts.key_state = &kv;
    falcon::SigningService svc(shared_registry(), opts);
    const falcon::Signature again = svc.sign(kp, "persisted");
    EXPECT_TRUE(sigs_equal(first, again));
    const auto stats = svc.tree_cache_stats();
    EXPECT_EQ(stats.misses, 1u);
    EXPECT_EQ(stats.warm_starts, 1u);
  }
}

// A structurally valid kFalconTree frame in the first tree layout: the
// degree as first word, full (not packed) basis spectra and a pointer-tree
// node walk of l10 spectra and four leaf doubles per ring-size-1 node.
std::vector<std::uint8_t> first_layout_tree_frame(const falcon::KeyPair& kp) {
  serial::Writer w;
  const std::size_t n = kp.params.n;
  w.u64(n);
  for (const falcon::IPoly* p : {&kp.f, &kp.g})
    w.u32s(std::span<const std::uint32_t>(
        reinterpret_cast<const std::uint32_t*>(p->data()), n));
  const std::vector<double> zeros(2 * n, 0.0);
  for (int row = 0; row < 4; ++row) w.f64_bits(zeros);
  w.u64(bits(1.5));  // min leaf sigma
  w.u64(bits(1.5));  // max leaf sigma
  const auto put_node = [&](auto&& self, std::size_t m) -> void {
    w.f64_bits(std::span<const double>(zeros.data(), 2 * m));
    if (m == 1) {
      for (const double v : {1.5, 1.5, 0.2, 0.2}) w.u64(bits(v));
      return;
    }
    self(self, m / 2);
    self(self, m / 2);
  };
  put_node(put_node, n);
  return serial::wrap(serial::TypeTag::kFalconTree, w.take());
}

TEST(ServiceWarmStart, FirstLayoutTreeRecordIsRebuiltAndOverwritten) {
  const falcon::KeyPair kp = keygen_for_seed(606);
  KvStore kv({.dir = fresh_dir("sign-old-layout")});
  const std::string key = falcon::tree_state_key(falcon::key_fingerprint(kp));
  kv.put(key, first_layout_tree_frame(kp));

  falcon::SigningOptions opts;
  opts.num_threads = 1;
  opts.root_seed = 11;
  opts.key_state = &kv;
  falcon::SigningService svc(shared_registry(), opts);
  const falcon::Signature sig = svc.sign(kp, "after an upgrade");
  EXPECT_EQ(svc.tree_cache_stats().warm_starts, 0u);  // rebuilt, not decoded
  falcon::Verifier verifier(kp.h, kp.params);
  EXPECT_TRUE(verifier.verify("after an upgrade", sig));

  // The record was overwritten in the current layout and now decodes.
  const auto bytes = kv.get(key);
  ASSERT_TRUE(bytes.has_value());
  const falcon::TreeRecord rec = falcon::decode_tree(*bytes, kp.params);
  expect_nodes_bits_equal(rec.tree->nodes(), falcon::FalconTree(kp).nodes());
}

TEST(ServiceWarmStart, VerificationIsIdenticalUnderEvictionChurn) {
  const falcon::KeyPair kp_a = keygen_for_seed(404);
  const falcon::KeyPair kp_b = keygen_for_seed(505);
  falcon::SigningOptions sopts;
  sopts.num_threads = 1;
  falcon::SigningService signer(shared_registry(), sopts);
  const falcon::Signature sig_a = signer.sign(kp_a, "msg-a");
  const falcon::Signature sig_b = signer.sign(kp_b, "msg-b");

  KvStore kv({.dir = fresh_dir("verify-kv")});
  falcon::VerificationOptions vopts;
  vopts.num_threads = 1;
  vopts.key_cache.max_entries = 1;
  vopts.key_state = &kv;
  falcon::VerificationService svc(vopts);

  EXPECT_TRUE(svc.verify(kp_a.h, kp_a.params, "msg-a", sig_a));
  EXPECT_TRUE(svc.verify(kp_b.h, kp_b.params, "msg-b", sig_b));  // evicts A
  // A warm-starts from the store; accept/reject decisions unchanged.
  EXPECT_TRUE(svc.verify(kp_a.h, kp_a.params, "msg-a", sig_a));
  EXPECT_FALSE(svc.verify(kp_a.h, kp_a.params, "tampered", sig_a));

  const auto stats = svc.key_cache_stats();
  EXPECT_EQ(stats.warm_starts, 1u);
  EXPECT_GE(stats.evictions, 2u);
  EXPECT_EQ(svc.num_cached_keys(), 1u);
}

TEST(ServiceWarmStart, RegistryNetlistEvictsThenWarmStartsFromDiskFrame) {
  engine::SamplerRegistry reg({.cache_dir = fresh_dir("reg-netlist"),
                               .use_disk = true,
                               .netlist_cache = {.max_entries = 1}});
  engine::SamplerRegistry::Source src;
  const auto p48 = gauss::GaussianParams::sigma_2(48);
  const auto p64 = gauss::GaussianParams::sigma_2(64);

  reg.get(p48, {}, &src);
  EXPECT_EQ(src, engine::SamplerRegistry::Source::kSynthesized);
  reg.get(p64, {}, &src);  // evicts the p48 netlist
  EXPECT_EQ(src, engine::SamplerRegistry::Source::kSynthesized);
  reg.get(p48, {}, &src);  // back from its per-key disk frame
  EXPECT_EQ(src, engine::SamplerRegistry::Source::kDisk);

  const auto stats = reg.netlist_cache_stats();
  EXPECT_EQ(stats.misses, 3u);
  EXPECT_EQ(stats.warm_starts, 1u);
  EXPECT_GE(stats.evictions, 2u);
  EXPECT_EQ(stats.entries, 1u);
}

TEST(ServiceWarmStart, RegistryRecipeEvictsThenWarmStartsFromDiskFrame) {
  engine::SamplerRegistry reg({.cache_dir = fresh_dir("reg-recipe"),
                               .use_disk = true,
                               .recipe_cache = {.max_entries = 1}});
  engine::SamplerRegistry::Source src;
  const auto first = reg.get_recipe(2.5, 0.0, gauss::kDefaultSmoothingEps,
                                    64, &src);
  EXPECT_EQ(src, engine::SamplerRegistry::Source::kSynthesized);
  reg.get_recipe(3.25, 0.5, gauss::kDefaultSmoothingEps, 64, &src);
  EXPECT_EQ(src, engine::SamplerRegistry::Source::kSynthesized);
  const auto again = reg.get_recipe(2.5, 0.0, gauss::kDefaultSmoothingEps,
                                    64, &src);
  EXPECT_EQ(src, engine::SamplerRegistry::Source::kDisk);
  EXPECT_EQ(again.k, first.k);
  EXPECT_EQ(bits(again.target_sigma), bits(first.target_sigma));
  EXPECT_EQ(bits(again.achieved_sigma), bits(first.achieved_sigma));
  EXPECT_EQ(again.shift_int, first.shift_int);
  EXPECT_EQ(reg.recipe_cache_stats().warm_starts, 1u);
}

}  // namespace
}  // namespace cgs::store
