// Multi-tenant key-state churn (ISSUE 8 acceptance): a Zipfian tenant
// population far larger than RAM wants, served through the bounded 2Q key
// caches with the KvStore as the warm-start layer underneath.
//
// Phases and self-check gates:
//
//   churn    — 10^5 verify requests, Zipfian(s = 1.0) over 10^5 synthetic
//              tenant keys, NTT-key cache budgeted to 10^3 entries backed
//              by a KvStore (fsync off). Gates: the cache never exceeds
//              its entry budget and evictions + disk warm starts actually
//              happened                               (always gated);
//              peak RSS stays within 2x the budget-sized steady state
//              measured after warm-up                 (resource gate).
//   all-hot  — the same request count against only the 10^3 hottest keys,
//              unbounded cache (everything resident). Gate: the bounded
//              churn run keeps >= 0.5x this throughput (timing gate).
//   warmcold — ffLDL-tree / NTT-key / netlist warm start (one decode)
//              vs cold rebuild, min-of-reps. Gate: warm < cold for all
//              three artifact kinds                   (timing gate).
//   bitexact — a tree-cache budget of ONE plus the store, alternating two
//              keys so every sign_many re-enters its tree through a disk
//              round trip. Gate: signatures bit-identical to a
//              never-evicting service                 (always gated).
//
// Timing/resource gates are skipped when CGS_BENCH_SKIP_TIMING_GATE is
// set (shared CI runners jitter both clocks and RSS); the boundedness and
// bit-exactness gates always enforce.
//
// Usage: bench_key_churn [accesses] [--json FILE]

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <string_view>
#include <vector>

#include "bench_util.h"
#include "engine/registry.h"
#include "falcon/ffsampling.h"
#include "falcon/keygen.h"
#include "falcon/ntt.h"
#include "falcon/signing_service.h"
#include "falcon/state_codec.h"
#include "falcon/verification_service.h"
#include "prng/chacha20.h"
#include "prng/splitmix.h"
#include "store/kvstore.h"

namespace {

using namespace cgs;
using benchutil::Clock;
using benchutil::ms_since;

constexpr std::size_t kNumKeys = 100000;   // tenant population
constexpr std::size_t kBudgetEntries = 1000;  // resident key budget
constexpr std::size_t kDegree = 64;        // churn-phase ring dimension

/// Current resident set size in KiB (VmRSS from /proc/self/status).
std::size_t rss_kb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmRSS:", 0) == 0)
      return std::strtoull(line.c_str() + 6, nullptr, 10);
  }
  return 0;
}

std::string fresh_dir(const char* name) {
  const std::string dir = std::filesystem::temp_directory_path().string() +
                          "/cgs-bench-churn-" + name + "-" +
                          std::to_string(::getpid());
  std::filesystem::remove_all(dir);
  return dir;
}

/// Zipf(s = 1.0) over ranks [0, n): precomputed CDF + binary search.
class Zipf {
 public:
  explicit Zipf(std::size_t n) : cdf_(n) {
    double total = 0;
    for (std::size_t r = 0; r < n; ++r) {
      total += 1.0 / static_cast<double>(r + 1);
      cdf_[r] = total;
    }
    total_ = total;
  }
  std::size_t sample(prng::SplitMix64Source& rng) const {
    const double u =
        total_ * static_cast<double>(rng.next_word() >> 11) * 0x1.0p-53;
    return static_cast<std::size_t>(
        std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
  }

 private:
  std::vector<double> cdf_;
  double total_ = 0;
};

/// Deterministic synthetic public key for tenant `id` (values mod q).
std::vector<std::uint32_t> make_h(std::size_t id, std::size_t n) {
  prng::SplitMix64Source rng(0xC0FFEE ^ (id * 0x9E3779B97F4A7C15ull));
  std::vector<std::uint32_t> h(n);
  for (auto& v : h)
    v = static_cast<std::uint32_t>(rng.next_word() % falcon::kQ);
  return h;
}

struct ChurnResult {
  double accesses_per_sec = 0;
  std::size_t steady_rss_kb = 0;
  std::size_t peak_rss_kb = 0;
  obs::CacheStats cache;
  store::KvStoreStats kv;
};

ChurnResult run_churn(std::size_t accesses, const Zipf& zipf,
                      const std::string& kv_dir) {
  ChurnResult r;
  store::KvStoreOptions kv_opts{.dir = kv_dir};
  kv_opts.fsync_writes = false;
  store::KvStore kv(kv_opts);

  falcon::VerificationOptions opts;
  opts.num_threads = 1;
  opts.key_cache.max_entries = kBudgetEntries;
  opts.key_state = &kv;
  falcon::VerificationService svc(opts);

  const falcon::FalconParams params =
      falcon::FalconParams::for_degree(kDegree);
  falcon::Signature dummy;
  dummy.s1.assign(kDegree, 0);  // always rejects; the key-state path is
                                // identical for accept and reject

  // Warm the budget-sized working set, then call that RSS "steady state".
  for (std::size_t rank = 0; rank < kBudgetEntries; ++rank)
    (void)svc.verify(make_h(rank, kDegree), params, "churn", dummy);
  r.steady_rss_kb = rss_kb();

  prng::SplitMix64Source rng(42);
  const auto t0 = Clock::now();
  for (std::size_t i = 0; i < accesses; ++i) {
    const std::size_t rank = zipf.sample(rng);
    (void)svc.verify(make_h(rank, kDegree), params, "churn", dummy);
  }
  const double elapsed_ms = ms_since(t0);
  r.peak_rss_kb = rss_kb();
  r.accesses_per_sec = 1000.0 * static_cast<double>(accesses) / elapsed_ms;
  r.cache = svc.key_cache_stats();
  r.kv = kv.stats();

  std::printf(
      "churn    %zu accesses over %zu keys, budget %zu: %.0f req/s, "
      "entries %zu, evictions %llu, warm starts %llu, "
      "RSS steady %zu KiB -> peak %zu KiB\n",
      accesses, kNumKeys, kBudgetEntries, r.accesses_per_sec,
      r.cache.entries, static_cast<unsigned long long>(r.cache.evictions),
      static_cast<unsigned long long>(r.cache.warm_starts), r.steady_rss_kb,
      r.peak_rss_kb);
  return r;
}

double run_all_hot(std::size_t accesses) {
  falcon::VerificationOptions opts;
  opts.num_threads = 1;  // unbounded, no store: the legacy resident path
  falcon::VerificationService svc(opts);
  const falcon::FalconParams params =
      falcon::FalconParams::for_degree(kDegree);
  falcon::Signature dummy;
  dummy.s1.assign(kDegree, 0);

  for (std::size_t rank = 0; rank < kBudgetEntries; ++rank)
    (void)svc.verify(make_h(rank, kDegree), params, "churn", dummy);
  const auto t0 = Clock::now();
  for (std::size_t i = 0; i < accesses; ++i)
    (void)svc.verify(make_h(i % kBudgetEntries, kDegree), params, "churn",
                     dummy);
  const double elapsed_ms = ms_since(t0);
  const double per_sec = 1000.0 * static_cast<double>(accesses) / elapsed_ms;
  std::printf("all-hot  %zu accesses over %zu resident keys: %.0f req/s\n",
              accesses, kBudgetEntries, per_sec);
  return per_sec;
}

struct WarmCold {
  double cold_us = 0;  // min-of-reps full rebuild
  double warm_us = 0;  // min-of-reps persistent decode
};

WarmCold time_tree(const falcon::KeyPair& kp) {
  WarmCold r{1e300, 1e300};
  const falcon::FalconTree built(kp);
  const auto frame = falcon::encode_tree(kp, built);
  for (int rep = 0; rep < 5; ++rep) {
    auto t0 = Clock::now();
    const falcon::FalconTree cold(kp);
    r.cold_us = std::min(r.cold_us, 1000.0 * ms_since(t0));
    t0 = Clock::now();
    const falcon::TreeRecord rec = falcon::decode_tree(frame, kp.params);
    r.warm_us = std::min(r.warm_us, 1000.0 * ms_since(t0));
    if (rec.f != kp.f) std::abort();  // keep the decode observable
  }
  return r;
}

WarmCold time_ntt_key(std::size_t n) {
  WarmCold r{1e300, 1e300};
  falcon::NttKeyRecord rec;
  rec.params = falcon::FalconParams::for_degree(n);
  rec.h = make_h(1, n);
  rec.h_ntt = rec.h;
  const auto ctx = falcon::shared_ntt_context(n);
  ctx->forward_br(rec.h_ntt);
  for (std::uint32_t w : rec.h_ntt)
    rec.h_ntt_shoup.push_back(falcon::NttContext::shoup_factor(w));
  const auto frame = falcon::encode_ntt_key(rec);

  for (int rep = 0; rep < 50; ++rep) {
    auto t0 = Clock::now();
    std::vector<std::uint32_t> h_ntt = rec.h;
    ctx->forward_br(h_ntt);
    std::vector<std::uint32_t> shoup;
    shoup.reserve(n);
    for (std::uint32_t w : h_ntt)
      shoup.push_back(falcon::NttContext::shoup_factor(w));
    r.cold_us = std::min(r.cold_us, 1000.0 * ms_since(t0));
    if (shoup != rec.h_ntt_shoup) std::abort();

    t0 = Clock::now();
    const falcon::NttKeyRecord warm = falcon::decode_ntt_key(frame);
    r.warm_us = std::min(r.warm_us, 1000.0 * ms_since(t0));
    if (warm.h_ntt != rec.h_ntt) std::abort();
  }
  return r;
}

WarmCold time_netlist(const std::string& dir, bool* sources_ok) {
  WarmCold r;
  const auto params = gauss::GaussianParams::sigma_2(64);
  engine::SamplerRegistry::Source src;

  engine::SamplerRegistry cold_reg({.cache_dir = dir, .use_disk = true});
  auto t0 = Clock::now();
  (void)cold_reg.get(params, {}, &src);
  r.cold_us = 1000.0 * ms_since(t0);
  const bool cold_ok = src == engine::SamplerRegistry::Source::kSynthesized;

  // A fresh registry over the same directory: the netlist comes back as
  // one frame decode — exactly what a post-eviction get() pays.
  engine::SamplerRegistry warm_reg({.cache_dir = dir, .use_disk = true});
  t0 = Clock::now();
  (void)warm_reg.get(params, {}, &src);
  r.warm_us = 1000.0 * ms_since(t0);
  *sources_ok = cold_ok && src == engine::SamplerRegistry::Source::kDisk;
  return r;
}

bool run_bitexact(engine::SamplerRegistry& registry,
                  const falcon::KeyPair& kp_a, const falcon::KeyPair& kp_b,
                  const std::string& kv_dir, std::uint64_t* warm_starts) {
  store::KvStoreOptions kv_opts{.dir = kv_dir};
  kv_opts.fsync_writes = false;
  store::KvStore kv(kv_opts);

  falcon::SigningOptions bounded_opts;
  bounded_opts.num_threads = 1;
  bounded_opts.root_seed = 77;
  bounded_opts.precision = 64;
  bounded_opts.tree_cache.max_entries = 1;
  bounded_opts.key_state = &kv;
  falcon::SigningService bounded(registry, bounded_opts);

  falcon::SigningOptions legacy_opts;
  legacy_opts.num_threads = 1;
  legacy_opts.root_seed = 77;
  legacy_opts.precision = 64;
  falcon::SigningService legacy(registry, legacy_opts);

  bool identical = true;
  for (int i = 0; i < 6; ++i) {
    const falcon::KeyPair& kp = (i % 2 == 0) ? kp_a : kp_b;
    const std::string msg = "churn-" + std::to_string(i);
    const falcon::Signature a = bounded.sign(kp, msg);
    const falcon::Signature b = legacy.sign(kp, msg);
    identical = identical && a.nonce == b.nonce && a.s1 == b.s1;
  }
  *warm_starts = bounded.tree_cache_stats().warm_starts;
  std::printf(
      "bitexact 6 alternating signs, tree budget 1: signatures %s, "
      "%llu disk warm starts\n",
      identical ? "identical" : "DIVERGED",
      static_cast<unsigned long long>(*warm_starts));
  return identical;
}

}  // namespace

int main(int argc, char** argv) {
  const benchutil::Args args = benchutil::parse(argc, argv);
  const std::size_t accesses = args.n ? args.n : 100000;
  const bool skip_timing =
      std::getenv("CGS_BENCH_SKIP_TIMING_GATE") != nullptr;

  const std::string kv_dir = fresh_dir("kv");
  const std::string netlist_dir = fresh_dir("netlists");
  const std::string sign_kv_dir = fresh_dir("sign-kv");

  const Zipf zipf(kNumKeys);
  const ChurnResult churn = run_churn(accesses, zipf, kv_dir);
  const double all_hot_per_sec = run_all_hot(accesses);
  const double throughput_ratio = churn.accesses_per_sec / all_hot_per_sec;

  prng::ChaCha20Source rng_a(11), rng_b(22), rng_tree(33);
  const falcon::KeyPair kp_a =
      falcon::keygen(falcon::FalconParams::for_degree(kDegree), rng_a);
  const falcon::KeyPair kp_b =
      falcon::keygen(falcon::FalconParams::for_degree(kDegree), rng_b);
  // Warm-vs-cold at production degrees: an n=512 ffLDL build is the
  // hundreds-of-microseconds rebuild the store exists to avoid.
  const falcon::KeyPair kp_tree =
      falcon::keygen(falcon::FalconParams::for_degree(512), rng_tree);

  const WarmCold tree = time_tree(kp_tree);
  const WarmCold ntt = time_ntt_key(1024);
  bool netlist_sources_ok = false;
  const WarmCold netlist = time_netlist(netlist_dir, &netlist_sources_ok);
  std::printf(
      "warmcold tree %.1f us cold / %.1f us warm; ntt-key %.1f / %.1f; "
      "netlist %.1f / %.1f\n",
      tree.cold_us, tree.warm_us, ntt.cold_us, ntt.warm_us, netlist.cold_us,
      netlist.warm_us);

  engine::SamplerRegistry registry({.cache_dir = netlist_dir});
  std::uint64_t sign_warm_starts = 0;
  const bool bitexact =
      run_bitexact(registry, kp_a, kp_b, sign_kv_dir, &sign_warm_starts);

  bool ok = true;
  // Always-on gates: boundedness, the disk path actually exercised, and
  // bit-exactness under churn.
  if (churn.cache.entries > kBudgetEntries) {
    std::printf("FAIL: cache holds %zu entries over budget %zu\n",
                churn.cache.entries, kBudgetEntries);
    ok = false;
  }
  if (churn.cache.evictions == 0 || churn.cache.warm_starts == 0) {
    std::printf("FAIL: churn produced no evictions or no warm starts\n");
    ok = false;
  }
  if (churn.kv.puts == 0 || churn.kv.hits == 0) {
    std::printf("FAIL: KvStore saw no write-through or no warm-start read\n");
    ok = false;
  }
  if (!netlist_sources_ok) {
    std::printf("FAIL: netlist sources not kSynthesized-then-kDisk\n");
    ok = false;
  }
  if (!bitexact || sign_warm_starts < 2) {
    std::printf("FAIL: eviction churn changed signatures (or never touched "
                "the store)\n");
    ok = false;
  }

  // Timing/resource gates (skipped on jittery shared runners).
  struct Gate {
    const char* what;
    bool pass;
  };
  const Gate gates[] = {
      {"peak RSS within 2x budget-sized steady state",
       churn.peak_rss_kb <= 2 * churn.steady_rss_kb},
      {"churn throughput >= 0.5x all-hot", throughput_ratio >= 0.5},
      {"tree warm start cheaper than rebuild", tree.warm_us < tree.cold_us},
      {"ntt-key warm start cheaper than rebuild", ntt.warm_us < ntt.cold_us},
      {"netlist warm start cheaper than resynthesis",
       netlist.warm_us < netlist.cold_us},
  };
  for (const Gate& g : gates) {
    if (g.pass) continue;
    if (skip_timing) {
      std::printf("timing gate skipped: %s (CGS_BENCH_SKIP_TIMING_GATE)\n",
                  g.what);
    } else {
      std::printf("FAIL: %s\n", g.what);
      ok = false;
    }
  }

  if (!args.json_path.empty()) {
    benchutil::JsonWriter json;
    json.begin_object()
        .field("bench", "key_churn")
        .field("accesses", accesses)
        .field("num_keys", kNumKeys)
        .field("budget_entries", kBudgetEntries)
        .field("degree", kDegree)
        .field("timing_gate_enforced", !skip_timing)
        .begin_object("churn")
        .field("accesses_per_sec", churn.accesses_per_sec)
        .field("steady_rss_kb", churn.steady_rss_kb)
        .field("peak_rss_kb", churn.peak_rss_kb)
        .field("entries", churn.cache.entries)
        .field("hits", static_cast<std::size_t>(churn.cache.hits))
        .field("misses", static_cast<std::size_t>(churn.cache.misses))
        .field("evictions", static_cast<std::size_t>(churn.cache.evictions))
        .field("warm_starts",
               static_cast<std::size_t>(churn.cache.warm_starts))
        .field("kv_file_bytes",
               static_cast<std::size_t>(churn.kv.file_bytes))
        .field("kv_entries", churn.kv.entries)
        .end_object()
        .begin_object("all_hot")
        .field("accesses_per_sec", all_hot_per_sec)
        .field("throughput_ratio", throughput_ratio)
        .end_object()
        .begin_object("warm_cold_us")
        .field("tree_cold", tree.cold_us)
        .field("tree_warm", tree.warm_us)
        .field("ntt_key_cold", ntt.cold_us)
        .field("ntt_key_warm", ntt.warm_us)
        .field("netlist_cold", netlist.cold_us)
        .field("netlist_warm", netlist.warm_us)
        .end_object()
        .begin_object("bitexact")
        .field("identical", bitexact)
        .field("tree_warm_starts",
               static_cast<std::size_t>(sign_warm_starts))
        .end_object()
        .end_object();
    if (!json.write_file(args.json_path)) ok = false;
  }

  std::filesystem::remove_all(kv_dir);
  std::filesystem::remove_all(netlist_dir);
  std::filesystem::remove_all(sign_kv_dir);
  std::printf("%s\n", ok ? "bench self-checks passed" : "BENCH FAILED");
  return ok ? 0 : 1;
}
