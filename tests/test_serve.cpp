// The async serving layer: queue backpressure, QoS scheduling
// (per-tenant fair-share, deadline admission), lane isolation, micro-batch
// close policy (full batch vs linger), dispatcher shutdown-drain
// semantics, multi-key shard isolation, the dispatcher's thread count,
// concurrent-batch overlap through the signing service, metrics
// accounting, and the length-prefixed wire frames.

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <future>
#include <functional>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "engine/registry.h"
#include "falcon/verify.h"
#include "prng/chacha20.h"
#include "serial/serial.h"
#include "serve/batcher.h"
#include "serve/dispatcher.h"
#include "serve/metrics.h"
#include "serve/queue.h"
#include "serve/wire.h"

namespace cgs::serve {
namespace {

using Clock = std::chrono::steady_clock;

engine::SamplerRegistry& registry() {
  // In-process memo only: these tests must not depend on (or pollute) the
  // user's on-disk cache state.
  static engine::SamplerRegistry reg({.cache_dir = "", .use_disk = false});
  return reg;
}

const falcon::KeyPair& key_a() {
  static const falcon::KeyPair kp = [] {
    prng::ChaCha20Source rng(4242);
    return falcon::keygen(falcon::FalconParams::for_degree(64), rng);
  }();
  return kp;
}

const falcon::KeyPair& key_b() {
  static const falcon::KeyPair kp = [] {
    prng::ChaCha20Source rng(999);
    return falcon::keygen(falcon::FalconParams::for_degree(64), rng);
  }();
  return kp;
}

DispatcherOptions fast_options() {
  DispatcherOptions opts;
  opts.signing.backend = engine::Backend::kWide;
  opts.signing.num_threads = 2;
  opts.signing.precision = 64;
  opts.signing.root_seed = 7;
  opts.gaussian.backend = engine::Backend::kWide;
  opts.gaussian.num_threads = 1;
  opts.gaussian.root_seed = 7;
  return opts;
}

// --------------------------------------------------------- qos queue -----

TEST(QosQueue, DrrInterleavesTenantsWithinABand) {
  QosQueue<int> q({.capacity = 32});
  for (int i = 0; i < 8; ++i) {
    ASSERT_EQ(q.try_push(100 + i, 1), SubmitStatus::kOk);
    ASSERT_EQ(q.try_push(200 + i, 2), SubmitStatus::kOk);
  }
  // Runs of kDrrQuantum (4) per tenant: neither tenant's burst
  // monopolizes the queue, each keeps FIFO order within itself.
  static_assert(kDrrQuantum == 4);
  std::vector<int> order;
  int out = 0;
  while (q.size() != 0) {
    ASSERT_TRUE(q.pop(out));
    order.push_back(out);
  }
  EXPECT_EQ(order, (std::vector<int>{100, 101, 102, 103, 200, 201, 202, 203,
                                     104, 105, 106, 107, 204, 205, 206,
                                     207}));
}

TEST(QosQueue, TenantCapShedsOnlyTheStormingTenant) {
  QosQueueOptions opts;
  opts.capacity = 16;
  opts.tenant_capacity = 2;
  QosQueue<int> q(opts);
  ASSERT_EQ(q.try_push(1, 0xA), SubmitStatus::kOk);
  ASSERT_EQ(q.try_push(2, 0xA), SubmitStatus::kOk);
  // Tenant A is at its cap; tenant B admits at the same instant.
  EXPECT_EQ(q.try_push(3, 0xA), SubmitStatus::kTenantFull);
  EXPECT_EQ(q.try_push(4, 0xB), SubmitStatus::kOk);
  // The cap is per-tenant depth, not a lifetime quota: draining one of
  // A's items readmits A.
  int out = 0;
  ASSERT_TRUE(q.pop(out));
  EXPECT_EQ(q.try_push(5, 0xA), SubmitStatus::kOk);
  EXPECT_EQ(q.stats().tenant_rejections, 1u);
}

TEST(QosQueue, TenantSlotTableIsBoundedWithOverflow) {
  QosQueue<int> q({.capacity = 64});
  constexpr int kTenants = static_cast<int>(kMaxTenants) + 2;
  for (int t = 0; t < kTenants; ++t)
    ASSERT_EQ(q.try_push(int(t), 100 + static_cast<std::uint64_t>(t)),
              SubmitStatus::kOk);
  // The two tenants past the table still admit — into the shared
  // overflow sub-queue — without growing the slot table.
  EXPECT_EQ(q.stats().tenant_slots, kMaxTenants);
  EXPECT_EQ(q.size(), std::size_t{kTenants});
  // Everything drains; slots are reclaimed as sub-queues empty.
  int out = 0;
  std::vector<int> drained;
  while (q.size() != 0) {
    ASSERT_TRUE(q.pop(out));
    drained.push_back(out);
  }
  EXPECT_EQ(drained.size(), std::size_t{kTenants});
  EXPECT_EQ(q.stats().tenant_slots, 0u);
}

TEST(QosQueue, GlobalCapacityAndCloseKeepRequestQueueContract) {
  QosQueueOptions opts;
  opts.capacity = 2;
  QosQueue<int> q(opts);
  ASSERT_EQ(q.try_push(1, 1), SubmitStatus::kOk);
  ASSERT_EQ(q.try_push(2, 2), SubmitStatus::kOk);
  EXPECT_EQ(q.try_push(3, 3), SubmitStatus::kQueueFull);
  EXPECT_EQ(q.size(), 2u);
  int out = 0;
  ASSERT_TRUE(q.pop(out));
  EXPECT_EQ(out, 1);
  EXPECT_EQ(q.try_push(3, 3), SubmitStatus::kOk);  // capacity freed
  ASSERT_TRUE(q.pop(out));
  EXPECT_EQ(out, 2);
  ASSERT_TRUE(q.pop(out));
  EXPECT_EQ(out, 3);

  // Drained and still open: pop_until gives up at its deadline.
  const auto t0 = Clock::now();
  EXPECT_FALSE(q.pop_until(out, t0 + std::chrono::milliseconds(30)));
  EXPECT_GE(Clock::now() - t0, std::chrono::milliseconds(25));

  ASSERT_EQ(q.try_push(4, 2), SubmitStatus::kOk);
  ASSERT_EQ(q.try_push(5, 1), SubmitStatus::kOk);
  q.close();
  EXPECT_EQ(q.try_push(6, 1), SubmitStatus::kShutdown);
  // Items accepted before close still drain (arrival order), then the
  // consumer loop ends.
  ASSERT_TRUE(q.pop(out));
  EXPECT_EQ(out, 4);
  ASSERT_TRUE(q.pop(out));
  EXPECT_EQ(out, 5);
  EXPECT_FALSE(q.pop(out));
}

// ----------------------------------------------------------- batcher -----

TEST(MicroBatcher, FullBatchClosesWithoutWaitingForLinger) {
  QosQueue<int> q({.capacity = 16});
  // Linger far beyond any sane test runtime: if the batcher waited for it
  // on a full batch, this test would time out rather than pass slowly.
  MicroBatcher<int> batcher(q, 4, std::chrono::seconds(600));
  for (int i = 0; i < 7; ++i)
    ASSERT_EQ(q.try_push(int(i), 0), SubmitStatus::kOk);

  std::vector<int> batch;
  const auto t0 = Clock::now();
  ASSERT_TRUE(batcher.next_batch(batch));
  EXPECT_LT(Clock::now() - t0, std::chrono::seconds(10));
  EXPECT_EQ(batch, (std::vector<int>{0, 1, 2, 3}));  // closed on max_batch
  q.close();  // otherwise the partial leftovers batch would sit out the
              // (deliberately absurd) linger
  ASSERT_TRUE(batcher.next_batch(batch));
  EXPECT_EQ(batch, (std::vector<int>{4, 5, 6}));
}

TEST(MicroBatcher, LingerClosesPartialBatch) {
  QosQueue<int> q({.capacity = 16});
  MicroBatcher<int> batcher(q, 64, std::chrono::milliseconds(40));
  ASSERT_EQ(q.try_push(11, 0), SubmitStatus::kOk);
  std::vector<int> batch;
  const auto t0 = Clock::now();
  ASSERT_TRUE(batcher.next_batch(batch));
  const auto waited = Clock::now() - t0;
  EXPECT_EQ(batch, std::vector<int>{11});
  // Closed by the linger deadline: waited roughly max_linger, nowhere near
  // "forever for 63 more requests".
  EXPECT_GE(waited, std::chrono::milliseconds(35));
  EXPECT_LT(waited, std::chrono::seconds(30));
}

// The leftovers batch above closes by linger too (queue empty): document
// that a closed queue ends the loop instead.
TEST(MicroBatcher, ClosedAndDrainedEndsTheLoop) {
  QosQueue<int> q({.capacity = 4});
  MicroBatcher<int> batcher(q, 2, std::chrono::milliseconds(5));
  ASSERT_EQ(q.try_push(1, 0), SubmitStatus::kOk);
  q.close();
  std::vector<int> batch;
  ASSERT_TRUE(batcher.next_batch(batch));  // drains the accepted item
  EXPECT_EQ(batch, std::vector<int>{1});
  EXPECT_FALSE(batcher.next_batch(batch));  // loop exit
  EXPECT_TRUE(batch.empty());
}

TEST(MicroBatcher, DrivesQosQueueAndClosedLoopEnds) {
  QosQueue<int> q({.capacity = 8});
  MicroBatcher<int> batcher(q, 4, std::chrono::milliseconds(5));
  ASSERT_EQ(q.try_push(2, 1), SubmitStatus::kOk);
  ASSERT_EQ(q.try_push(1, 1), SubmitStatus::kOk);
  std::vector<int> batch;
  ASSERT_TRUE(batcher.next_batch(batch));
  EXPECT_EQ(batch, (std::vector<int>{2, 1}));  // popped in arrival order
  q.close();
  EXPECT_FALSE(batcher.next_batch(batch));
}

// --------------------------------------------------------- histogram -----

TEST(LatencyHistogram, QuantilesAreOrderedAndBucketed) {
  obs::Histogram h;
  for (int i = 0; i < 90; ++i) h.record(100);   // bucket [64, 128)
  for (int i = 0; i < 9; ++i) h.record(1000);   // bucket [512, 1024)
  h.record(100000);                             // bucket [65536, 131072)
  EXPECT_EQ(h.count(), 100u);
  const double p50 = h.quantile(0.50);
  const double p95 = h.quantile(0.95);
  const double p99 = h.quantile(0.99);
  EXPECT_LE(p50, p95);
  EXPECT_LE(p95, p99);
  EXPECT_EQ(p50, 128.0);     // upper bound of the 100us bucket
  EXPECT_EQ(p95, 1024.0);    // the 1000us bucket
  EXPECT_EQ(p99, 1024.0);    // nearest-rank: the 99th of 100 obs
  EXPECT_EQ(h.quantile(0.0), 128.0);
  EXPECT_EQ(h.quantile(1.0), 131072.0);  // the outlier bucket
}

// -------------------------------------------------------- dispatcher -----

TEST(Dispatcher, ServesConcurrentClientsAndFillsBatches) {
  DispatcherOptions opts = fast_options();
  opts.max_batch = 64;
  opts.max_linger_us = 50000;  // long enough for a storm to fill batches
  opts.sign_lanes = 2;
  Dispatcher d(registry(), opts);
  const std::uint64_t id = d.add_key(key_a());

  constexpr int kClients = 4, kPerClient = 64;
  std::vector<std::future<falcon::Signature>> futures(
      static_cast<std::size_t>(kClients * kPerClient));
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int i = 0; i < kPerClient; ++i) {
        const int slot = c * kPerClient + i;
        while (true) {
          auto sub = d.submit(serve::SignRequest{.key_id = id, .message = "msg " + std::to_string(slot)});
          if (sub.ok()) {
            futures[static_cast<std::size_t>(slot)] = std::move(sub.future);
            break;
          }
          ASSERT_EQ(sub.status, SubmitStatus::kQueueFull);
          std::this_thread::yield();
        }
      }
    });
  }
  for (auto& t : clients) t.join();

  const falcon::Verifier verifier(key_a().h, key_a().params);
  for (std::size_t i = 0; i < futures.size(); ++i) {
    const falcon::Signature sig = futures[i].get();
    EXPECT_TRUE(verifier.verify("msg " + std::to_string(i), sig)) << i;
  }

  const MetricsSnapshot m = d.metrics();
  EXPECT_EQ(m.sign_submitted(), futures.size());
  EXPECT_EQ(m.sign_completed(), futures.size());
  EXPECT_EQ(m.sign_batched(), futures.size());
  EXPECT_GE(m.sign_batches(), 1u);
  // Micro-batching must actually aggregate: 256 requests stormed at a
  // batch cap of 64 average at least half-full batches.
  EXPECT_LT(m.sign_batches(), futures.size());
  EXPECT_GE(m.sign_occupancy(), 32.0);
  EXPECT_GT(m.sign_latency.p99_us, 0.0);
  // Each completion lands in the one class latency series, once; no lane
  // keeps a copy.
  EXPECT_EQ(d.obs_registry().histogram("cgs_serve_sign_latency_us").count(),
            futures.size());
  for (const obs::Sample& s : d.obs_registry().collect())
    EXPECT_FALSE(s.name.find("_lane") != std::string::npos &&
                 s.name.find("_latency_us") != std::string::npos)
        << s.name;
}

TEST(Dispatcher, ShutdownDrainsEveryAcceptedFuture) {
  DispatcherOptions opts = fast_options();
  opts.max_batch = 4;
  opts.max_linger_us = 50000;  // long linger: shutdown must cut through it
  Dispatcher d(registry(), opts);
  const std::uint64_t id = d.add_key(key_a());

  std::vector<std::future<falcon::Signature>> futures;
  for (int i = 0; i < 10; ++i) {
    auto sub = d.submit(serve::SignRequest{.key_id = id, .message = "drain " + std::to_string(i)});
    ASSERT_TRUE(sub.ok());
    futures.push_back(std::move(sub.future));
  }
  auto gauss = d.submit(serve::GaussRequest{.sigma = 25.0, .center = 0.0, .n = 1000});
  ASSERT_TRUE(gauss.ok());
  auto keygen = d.submit(serve::KeygenRequest{.params = falcon::FalconParams::for_degree(64), .seed = 808});
  ASSERT_TRUE(keygen.ok());
  const falcon::Signature presigned =
      d.signing_service().sign(key_a(), "drain 0");
  auto verify = d.submit(serve::VerifyRequest{.key_id = id, .message = "drain 0", .sig = presigned});
  ASSERT_TRUE(verify.ok());

  d.shutdown();

  // Everything accepted before shutdown resolves with a real result.
  const falcon::Verifier verifier(key_a().h, key_a().params);
  for (std::size_t i = 0; i < futures.size(); ++i)
    EXPECT_TRUE(
        verifier.verify("drain " + std::to_string(i), futures[i].get()));
  EXPECT_EQ(gauss.future.get().size(), 1000u);
  EXPECT_NE(keygen.future.get().key_id, 0u);
  EXPECT_TRUE(verify.future.get());

  // After shutdown: typed rejection, no future.
  auto late = d.submit(serve::SignRequest{.key_id = id, .message = "too late"});
  EXPECT_EQ(late.status, SubmitStatus::kShutdown);
  EXPECT_FALSE(late.future.valid());
  EXPECT_EQ(late.retry_after_ms, 0u);  // retrying a dead server is pointless
  auto late_gauss = d.submit(serve::GaussRequest{.sigma = 25.0, .center = 0.0, .n = 10});
  EXPECT_EQ(late_gauss.status, SubmitStatus::kShutdown);
  auto late_verify = d.submit(serve::VerifyRequest{.key_id = id, .message = "too late", .sig = presigned});
  EXPECT_EQ(late_verify.status, SubmitStatus::kShutdown);
  auto late_keygen = d.submit(serve::KeygenRequest{.params = falcon::FalconParams::for_degree(64), .seed = 1});
  EXPECT_EQ(late_keygen.status, SubmitStatus::kShutdown);

  const MetricsSnapshot m = d.metrics();
  EXPECT_EQ(m.sign_completed(), 10u);
  EXPECT_EQ(m.sign_rejected(), 1u);
}

TEST(Dispatcher, MultiKeyShardIsolation) {
  DispatcherOptions opts = fast_options();
  opts.max_batch = 6;
  opts.max_linger_us = 2000;
  opts.sign_lanes = 2;
  Dispatcher d(registry(), opts);
  const std::uint64_t id_a = d.add_key(key_a());
  const std::uint64_t id_b = d.add_key(key_b());
  ASSERT_NE(id_a, id_b);
  // add_key is idempotent for identical key material.
  EXPECT_EQ(d.add_key(key_a()), id_a);

  std::vector<std::future<falcon::Signature>> fa, fb;
  for (int i = 0; i < 8; ++i) {
    auto sa = d.submit(serve::SignRequest{.key_id = id_a, .message = "tenant A #" + std::to_string(i)});
    auto sb = d.submit(serve::SignRequest{.key_id = id_b, .message = "tenant B #" + std::to_string(i)});
    ASSERT_TRUE(sa.ok() && sb.ok());
    fa.push_back(std::move(sa.future));
    fb.push_back(std::move(sb.future));
  }

  // Each tenant's signatures verify under its own key and are rejected
  // under the other tenant's key: interleaved batches never leak a tree.
  const falcon::Verifier va(key_a().h, key_a().params);
  const falcon::Verifier vb(key_b().h, key_b().params);
  for (int i = 0; i < 8; ++i) {
    const auto sig_a = fa[static_cast<std::size_t>(i)].get();
    const auto sig_b = fb[static_cast<std::size_t>(i)].get();
    const std::string ma = "tenant A #" + std::to_string(i);
    const std::string mb = "tenant B #" + std::to_string(i);
    EXPECT_TRUE(va.verify(ma, sig_a));
    EXPECT_TRUE(vb.verify(mb, sig_b));
    EXPECT_FALSE(vb.verify(ma, sig_a));
    EXPECT_FALSE(va.verify(mb, sig_b));
  }
  // Both trees cached inside the one shared signing service.
  EXPECT_EQ(d.signing_service().num_cached_trees(), 2u);

  // Unregistered key id is a caller bug, reported loudly.
  EXPECT_THROW((void)d.submit(serve::SignRequest{.key_id = id_a ^ id_b ^ 1, .message = "nobody"}), Error);
}

TEST(Dispatcher, GaussRequestsBatchPerTargetAndSliceCorrectly) {
  DispatcherOptions opts = fast_options();
  opts.max_batch = 8;
  opts.max_linger_us = 20000;
  opts.slo_latency_us = 60'000'000;  // only the failed request misses it
  Dispatcher d(registry(), opts);

  // Several concurrent requests against the same target come back with
  // the right sizes; the lane does not linger, so a batch holds what was
  // queued when the lane came free, at most one bulk sample() per target
  // in it. One invalid target rides along: recipe planning rejects it,
  // which fails that request alone.
  std::vector<std::future<std::vector<std::int32_t>>> futures;
  std::vector<std::size_t> sizes = {100, 1, 77, 1024, 3, 500};
  for (std::size_t n : sizes) {
    auto sub = d.submit(serve::GaussRequest{.sigma = 30.0, .center = -1.25, .n = n});
    ASSERT_TRUE(sub.ok());
    futures.push_back(std::move(sub.future));
  }
  auto invalid =
      d.submit(serve::GaussRequest{.sigma = -1.0, .center = 0.0, .n = 16});
  ASSERT_TRUE(invalid.ok());
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    const auto samples = futures[i].get();
    ASSERT_EQ(samples.size(), sizes[i]);
  }
  EXPECT_THROW((void)invalid.future.get(), Error);
  // One stream materialized for the one valid target.
  EXPECT_EQ(d.gaussian_service().num_streams(), 1u);

  const MetricsSnapshot m = d.metrics();
  std::uint64_t gauss_completed = 0, gauss_failed = 0, gauss_batches = 0;
  for (const auto& lane : m.gauss_lanes) {
    gauss_completed += lane.completed;
    gauss_failed += lane.failed;
    gauss_batches += lane.batches;
  }
  EXPECT_EQ(gauss_completed, sizes.size());
  EXPECT_EQ(gauss_failed, 1u);
  EXPECT_LE(gauss_batches, sizes.size() + 1);
  EXPECT_EQ(d.obs_registry().counter("cgs_slo_gauss_bad_total").value(), 1u);
  EXPECT_EQ(d.obs_registry().counter("cgs_slo_gauss_good_total").value(),
            sizes.size());

  // The registry's kernel cache is exported next to the snapshot's copy.
  double exported_misses = -1;
  for (const obs::Sample& s : d.obs_registry().collect())
    if (s.name == "cgs_cache_kernel_misses_total") exported_misses = s.value;
  EXPECT_EQ(exported_misses, static_cast<double>(m.kernel_cache.misses));
}

// Gauss and keygen lanes gain nothing from lingering (one gauss request is
// already n/256 engine batches; keygen runs one job per group), so a lone
// request runs at once however long max_linger_us is. The linger is long
// and the bound half of it, so a sanitized Debug build, where the keygen
// alone takes ~0.2 s, still passes; best of three, so a scheduling hiccup
// does not read as a linger.
TEST(Dispatcher, LoneGaussAndKeygenRequestsDoNotLinger) {
  DispatcherOptions opts = fast_options();
  opts.max_linger_us = 5'000'000;
  Dispatcher d(registry(), opts);
  const auto best_ms = [](auto submit) {
    double best = 1e9;
    for (int i = 0; i < 3; ++i) {
      const auto t0 = Clock::now();
      auto sub = submit(i);
      EXPECT_TRUE(sub.ok());
      sub.future.get();
      best = std::min(best, std::chrono::duration<double, std::milli>(
                                Clock::now() - t0)
                                .count());
    }
    return best;
  };
  const auto gauss = [&](int) {
    return d.submit(serve::GaussRequest{.sigma = 30.0, .center = 0.5, .n = 4096});
  };
  const auto keygen = [&](int i) {
    return d.submit(serve::KeygenRequest{
        .params = falcon::FalconParams::for_degree(64),
        .seed = 7000 + static_cast<std::uint64_t>(i)});
  };
  gauss(0).future.get();  // first touch builds the stream's samplers
  keygen(0).future.get();
  EXPECT_LT(best_ms(gauss), 2500.0);
  EXPECT_LT(best_ms(keygen), 2500.0);
}

// The shed hint is the rejecting class's own drain time: a full gauss lane
// does not linger, so its hint is the 1 ms floor, not a sign lane's linger.
TEST(Dispatcher, FullGaussLaneHintsFromItsOwnLinger) {
  DispatcherOptions opts = fast_options();
  opts.queue_capacity = 2;
  opts.max_linger_us = 50000;
  Dispatcher d(registry(), opts);
  std::vector<std::future<std::vector<std::int32_t>>> accepted;
  Submission<std::vector<std::int32_t>> shed;
  for (int i = 0; i < 1000; ++i) {
    auto sub = d.submit(serve::GaussRequest{.sigma = 30.0, .center = 0.5, .n = 1 << 16});
    if (!sub.ok()) {
      shed = std::move(sub);
      break;
    }
    accepted.push_back(std::move(sub.future));
  }
  ASSERT_EQ(shed.status, SubmitStatus::kQueueFull);
  EXPECT_EQ(shed.retry_after_ms, 1u);
  for (auto& f : accepted) EXPECT_EQ(f.get().size(), std::size_t{1} << 16);
}

TEST(Dispatcher, VerifyLaneBatchesVerdictsPerKey) {
  DispatcherOptions opts = fast_options();
  opts.max_batch = 8;
  opts.verify_lanes = 2;
  Dispatcher d(registry(), opts);
  const std::uint64_t id_a = d.add_key(key_a());
  const std::uint64_t id_b = d.add_key(key_b());

  // Material to judge: signatures from both tenants.
  std::vector<std::string> msgs_a, msgs_b;
  std::vector<falcon::Signature> sigs_a, sigs_b;
  for (int i = 0; i < 4; ++i) {
    msgs_a.push_back("verdict A #" + std::to_string(i));
    msgs_b.push_back("verdict B #" + std::to_string(i));
    auto sa = d.submit(serve::SignRequest{.key_id = id_a, .message = msgs_a.back()});
    auto sb = d.submit(serve::SignRequest{.key_id = id_b, .message = msgs_b.back()});
    ASSERT_TRUE(sa.ok() && sb.ok());
    sigs_a.push_back(sa.future.get());
    sigs_b.push_back(sb.future.get());
  }

  // One mixed burst: genuine, tampered, and cross-key (a valid signature
  // under the *other* tenant's key must be a clean rejection, not an
  // error) — futures collected first so the lane can batch.
  std::vector<std::future<bool>> expect_true, expect_false;
  for (int i = 0; i < 4; ++i) {
    auto good_a = d.submit(serve::VerifyRequest{.key_id = id_a, .message = msgs_a[static_cast<std::size_t>(i)], .sig = sigs_a[static_cast<std::size_t>(i)]});
    auto good_b = d.submit(serve::VerifyRequest{.key_id = id_b, .message = msgs_b[static_cast<std::size_t>(i)], .sig = sigs_b[static_cast<std::size_t>(i)]});
    falcon::Signature bent = sigs_a[static_cast<std::size_t>(i)];
    bent.s1[static_cast<std::size_t>(i)] += 1;
    auto tampered =
        d.submit(serve::VerifyRequest{.key_id = id_a, .message = msgs_a[static_cast<std::size_t>(i)], .sig = bent});
    auto cross = d.submit(serve::VerifyRequest{.key_id = id_b, .message = msgs_a[static_cast<std::size_t>(i)], .sig = sigs_a[static_cast<std::size_t>(i)]});
    ASSERT_TRUE(good_a.ok() && good_b.ok() && tampered.ok() && cross.ok());
    expect_true.push_back(std::move(good_a.future));
    expect_true.push_back(std::move(good_b.future));
    expect_false.push_back(std::move(tampered.future));
    expect_false.push_back(std::move(cross.future));
  }
  for (auto& f : expect_true) EXPECT_TRUE(f.get());
  for (auto& f : expect_false) EXPECT_FALSE(f.get());

  const MetricsSnapshot m = d.metrics();
  EXPECT_EQ(m.verify_completed(), 16u);
  EXPECT_EQ(m.verify_failed(), 0u);  // a "reject" verdict is a success
  EXPECT_EQ(d.verification_service().num_cached_keys(), 2u);

  // Unregistered key id is a caller bug, reported loudly.
  EXPECT_THROW((void)d.submit(serve::VerifyRequest{.key_id = id_a ^ id_b ^ 1, .message = "x", .sig = sigs_a[0]}), Error);
}

TEST(Dispatcher, KeygenLaneOnboardsTenantsDeterministically) {
  DispatcherOptions opts = fast_options();
  Dispatcher d(registry(), opts);

  auto kg1 = d.submit(serve::KeygenRequest{.params = falcon::FalconParams::for_degree(64), .seed = 4242});
  auto kg2 = d.submit(serve::KeygenRequest{.params = falcon::FalconParams::for_degree(64), .seed = 4243});
  ASSERT_TRUE(kg1.ok() && kg2.ok());
  const KeygenResult r1 = kg1.future.get();
  const KeygenResult r2 = kg2.future.get();
  EXPECT_NE(r1.key_id, r2.key_id);  // distinct seeds, distinct tenants
  EXPECT_EQ(r1.public_h.size(), 64u);
  ASSERT_NE(d.key(r1.key_id), nullptr);  // registered and ready to serve

  // Same seed replays the same key; add_key idempotence folds them.
  auto kg3 = d.submit(serve::KeygenRequest{.params = falcon::FalconParams::for_degree(64), .seed = 4242});
  ASSERT_TRUE(kg3.ok());
  EXPECT_EQ(kg3.future.get().key_id, r1.key_id);

  // The fresh tenant is immediately usable for the whole lifecycle.
  auto sub = d.submit(serve::SignRequest{.key_id = r1.key_id, .message = "fresh tenant message"});
  ASSERT_TRUE(sub.ok());
  const falcon::Signature sig = sub.future.get();
  auto verdict = d.submit(serve::VerifyRequest{.key_id = r1.key_id, .message = "fresh tenant message", .sig = sig});
  ASSERT_TRUE(verdict.ok());
  EXPECT_TRUE(verdict.future.get());
  // And the wire-facing public key verifies it too.
  const falcon::Verifier verifier(r1.public_h, r1.params);
  EXPECT_TRUE(verifier.verify("fresh tenant message", sig));

  const MetricsSnapshot m = d.metrics();
  EXPECT_EQ(m.keygen_completed(), 3u);
  EXPECT_EQ(m.keygen_failed(), 0u);
  ASSERT_EQ(m.keygen_lanes.size(), 1u);  // always exactly one: isolation
}

TEST(Dispatcher, ExpiredDeadlineDropsTypedAtBatchClose) {
  DispatcherOptions opts = fast_options();
  opts.sign_lanes = 1;
  opts.max_linger_us = 20000;  // the 1us budget is long gone by close
  opts.slo_latency_us = 60'000'000;  // only the expired request misses it
  Dispatcher d(registry(), opts);
  const std::uint64_t id = d.add_key(key_a());

  auto doomed = d.submit(serve::SignRequest{
      .key_id = id, .message = "doomed", .deadline_us = 1});
  auto fine = d.submit(serve::SignRequest{.key_id = id, .message = "fine"});
  ASSERT_TRUE(doomed.ok() && fine.ok());
  // The expired request fails TYPED — never silently, never run late.
  EXPECT_THROW((void)doomed.future.get(), DeadlineExpired);
  const falcon::Verifier verifier(key_a().h, key_a().params);
  EXPECT_TRUE(verifier.verify("fine", fine.future.get()));

  const MetricsSnapshot m = d.metrics();
  EXPECT_EQ(m.sign_expired(), 1u);
  EXPECT_EQ(m.sign_completed(), 1u);
  // The expired request is an SLO miss; the fulfilled one is on time.
  EXPECT_EQ(d.obs_registry().counter("cgs_slo_sign_bad_total").value(), 1u);
  EXPECT_EQ(d.obs_registry().counter("cgs_slo_sign_good_total").value(), 1u);
}

TEST(Dispatcher, TenantCapShedsStormerWhileVictimAdmits) {
  DispatcherOptions opts = fast_options();
  opts.sign_lanes = 1;        // both tenants on the one lane
  opts.tenant_capacity = 2;   // a tiny per-tenant depth cap
  opts.max_batch = 4;
  opts.max_linger_us = 50000;
  Dispatcher d(registry(), opts);
  const std::uint64_t id_a = d.add_key(key_a());
  const std::uint64_t id_b = d.add_key(key_b());

  // Storm tenant A with a fixed offer; its own cap sheds it. Each shed is
  // typed kTenantFull (not kQueueFull — the queue is nowhere near
  // capacity) and carries a nonzero drain-time retry hint.
  constexpr std::size_t kOffered = 200;
  std::vector<std::future<falcon::Signature>> accepted;
  std::size_t sheds = 0;
  std::optional<Submission<falcon::Signature>> victim;
  for (std::size_t i = 0; i < kOffered; ++i) {
    auto sub = d.submit(serve::SignRequest{.key_id = id_a, .message = "storm"});
    if (sub.ok()) {
      accepted.push_back(std::move(sub.future));
      continue;
    }
    ++sheds;
    EXPECT_EQ(sub.status, SubmitStatus::kTenantFull);
    EXPECT_GE(sub.retry_after_ms, 1u);
    EXPECT_FALSE(sub.future.valid());
    // The victim tenant admits at the very same instant the stormer sheds.
    if (!victim)
      victim = d.submit(serve::SignRequest{.key_id = id_b, .message = "victim"});
  }
  ASSERT_GE(sheds, 1u);
  // Conservation per tenant: admitted + typed sheds == offered.
  EXPECT_EQ(accepted.size() + sheds, kOffered);
  ASSERT_TRUE(victim && victim->ok());

  // Every admitted future resolves, to a valid signature.
  const falcon::Verifier vb(key_b().h, key_b().params);
  EXPECT_TRUE(vb.verify("victim", victim->future.get()));
  const falcon::Verifier va(key_a().h, key_a().params);
  for (auto& f : accepted) EXPECT_TRUE(va.verify("storm", f.get()));

  const MetricsSnapshot m = d.metrics();
  EXPECT_EQ(m.tenant_rejections(), sheds);
  EXPECT_EQ(m.sign_submitted(), accepted.size() + 1);
  EXPECT_EQ(m.sign_completed(), accepted.size() + 1);
}

// Keygen and bulk gauss work never holds up a sign: each class runs on a
// lane of its own (the keygen lane at nice 19), so a sign submitted behind
// a deep gauss backlog and a row of N = 512 keygens is answered while both
// backlogs are still being worked off. The test asserts that order, not a
// wall time, so it holds under the sanitizers too.
TEST(Dispatcher, SignAnswersWhileGaussAndKeygenLanesAreBacklogged) {
  DispatcherOptions opts = fast_options();
  opts.sign_lanes = opts.verify_lanes = opts.gauss_lanes = 1;
  Dispatcher d(registry(), opts);
  const std::uint64_t id = d.add_key(key_a());
  const auto params512 = falcon::FalconParams::for_degree(512);
  // Warm every target, so the backlog below is pure compute.
  ASSERT_TRUE(d.submit(SignRequest{.key_id = id, .message = "warm"})
                  .future.get()
                  .s1.size() == 64u);
  EXPECT_EQ(d.submit(GaussRequest{.sigma = 30.0, .n = 4096}).future.get().size(),
            4096u);
  EXPECT_EQ(d.submit(KeygenRequest{.params = params512, .seed = 1})
                .future.get()
                .public_h.size(),
            512u);

  // About 0.3 s of gauss work on the wide backend (Release build) and
  // several keygens queued.
  constexpr std::size_t kSamples = std::size_t{1} << 15;
  std::vector<std::future<std::vector<std::int32_t>>> gauss;
  for (int i = 0; i < 32; ++i) {
    auto sub = d.submit(GaussRequest{.sigma = 30.0, .n = kSamples});
    ASSERT_TRUE(sub.ok());
    gauss.push_back(std::move(sub.future));
  }
  std::vector<std::future<KeygenResult>> keygens;
  for (std::uint64_t seed = 2; seed < 8; ++seed) {
    auto sub = d.submit(KeygenRequest{.params = params512, .seed = seed});
    ASSERT_TRUE(sub.ok());
    keygens.push_back(std::move(sub.future));
  }

  auto sign = d.submit(SignRequest{.key_id = id, .message = "not behind"});
  ASSERT_TRUE(sign.ok());
  const falcon::Signature sig = sign.future.get();
  const bool gauss_pending = gauss.back().wait_for(std::chrono::seconds(0)) ==
                             std::future_status::timeout;
  const bool keygen_pending =
      keygens.back().wait_for(std::chrono::seconds(0)) ==
      std::future_status::timeout;
  EXPECT_TRUE(gauss_pending) << "the sign waited out the gauss backlog";
  EXPECT_TRUE(keygen_pending) << "the sign waited out the keygen backlog";
  const falcon::Verifier verifier(key_a().h, key_a().params);
  EXPECT_TRUE(verifier.verify("not behind", sig));

  for (auto& f : gauss) EXPECT_EQ(f.get().size(), kSamples);
  for (auto& f : keygens) EXPECT_EQ(f.get().public_h.size(), 512u);
}

TEST(Dispatcher, VerifySlicesOnCrewKeepVerdictOrder) {
  DispatcherOptions opts = fast_options();
  opts.verify_lanes = 1;
  opts.max_batch = 32;
  opts.max_linger_us = 30000;  // one batch gathers the whole burst
  opts.verification.num_threads = 3;  // 24 items: three executor slices
  Dispatcher d(registry(), opts);
  const std::uint64_t id = d.add_key(key_a());

  std::vector<std::string> msgs;
  std::vector<falcon::Signature> sigs;
  for (int i = 0; i < 6; ++i) {
    msgs.push_back("slice #" + std::to_string(i));
    auto s = d.submit(serve::SignRequest{.key_id = id, .message = msgs.back()});
    ASSERT_TRUE(s.ok());
    sigs.push_back(s.future.get());
  }

  // One burst, alternating genuine and tampered: every verdict is
  // position-dependent, so a slice writing the wrong output region (or
  // tasks racing on shared state) flips an expectation deterministically.
  std::vector<std::future<bool>> futures;
  std::vector<bool> want;
  for (int i = 0; i < 24; ++i) {
    const std::size_t k = static_cast<std::size_t>(i % 6);
    falcon::Signature sig = sigs[k];
    const bool good = (i % 2) == 0;
    if (!good) sig.s1[0] += 1;
    auto sub = d.submit(
        serve::VerifyRequest{.key_id = id, .message = msgs[k], .sig = sig});
    ASSERT_TRUE(sub.ok());
    futures.push_back(std::move(sub.future));
    want.push_back(good);
  }
  for (std::size_t i = 0; i < futures.size(); ++i)
    EXPECT_EQ(futures[i].get(), want[i]) << i;
  EXPECT_EQ(d.metrics().verify_failed(), 0u);
}

// --------------------------------------------------------- thread count --

// Threads of this process: one /proc/self/task entry each.
std::size_t process_threads() {
  std::size_t n = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator("/proc/self/task")) {
    (void)entry;
    ++n;
  }
  return n;
}

// Sign, verify and gauss traffic on two (sigma, c) targets, every answer
// awaited, so each fan-out the dispatcher has has run at least once.
void drive_mixed_traffic(Dispatcher& d) {
  const std::uint64_t id = d.add_key(key_a());
  std::vector<std::future<falcon::Signature>> signs;
  for (int i = 0; i < 32; ++i) {
    auto sub = d.submit(
        SignRequest{.key_id = id, .message = "threads #" + std::to_string(i)});
    ASSERT_TRUE(sub.ok());
    signs.push_back(std::move(sub.future));
  }
  std::vector<std::future<bool>> verdicts;
  for (int i = 0; i < 32; ++i) {
    auto sub = d.submit(VerifyRequest{.key_id = id,
                                      .message = "threads #" + std::to_string(i),
                                      .sig = signs[static_cast<std::size_t>(i)].get()});
    ASSERT_TRUE(sub.ok());
    verdicts.push_back(std::move(sub.future));
  }
  std::vector<std::future<std::vector<std::int32_t>>> samples;
  for (int i = 0; i < 8; ++i) {
    auto sub = d.submit(GaussRequest{.sigma = i % 2 ? 25.0 : 30.0,
                                     .center = i % 2 ? 0.0 : -1.25,
                                     .n = 4096});
    ASSERT_TRUE(sub.ok());
    samples.push_back(std::move(sub.future));
  }
  for (auto& f : verdicts) EXPECT_TRUE(f.get());
  for (auto& f : samples) EXPECT_EQ(f.get().size(), 4096u);
}

TEST(DispatcherThreads, DefaultOptionsStayWithinLanesPlusSpareCores) {
  if (!std::filesystem::exists("/proc/self/task"))
    GTEST_SKIP() << "no /proc/self/task";
  const std::size_t before = process_threads();
  // Every lane count and num_threads at its default. The interpreted
  // backend only spares the test a host compile per kernel.
  DispatcherOptions opts;
  opts.signing.backend = engine::Backend::kWide;
  opts.signing.precision = 64;
  opts.gaussian.backend = engine::Backend::kWide;
  Dispatcher d(registry(), opts);
  drive_mixed_traffic(d);
  const std::size_t lanes = static_cast<std::size_t>(
      opts.sign_lanes + opts.verify_lanes + opts.gauss_lanes + 1);
  const std::size_t spare_cores =
      std::max(1u, std::thread::hardware_concurrency()) - 1;
  EXPECT_LE(process_threads() - before, lanes + spare_cores);
}

TEST(DispatcherThreads, OneSlotEverywhereStartsNoHelperThread) {
  if (!std::filesystem::exists("/proc/self/task"))
    GTEST_SKIP() << "no /proc/self/task";
  const std::size_t before = process_threads();
  // servebench's pinned configuration: one lane per class and one slot
  // for every fan-out. Nothing but the four lanes may start.
  DispatcherOptions opts;
  opts.sign_lanes = opts.verify_lanes = opts.gauss_lanes = 1;
  opts.signing.backend = engine::Backend::kWide;
  opts.signing.precision = 64;
  opts.signing.num_threads = 1;
  opts.verification.num_threads = 1;
  opts.gaussian.backend = engine::Backend::kWide;
  opts.gaussian.num_threads = 1;
  Dispatcher d(registry(), opts);
  drive_mixed_traffic(d);
  EXPECT_EQ(process_threads() - before, 4u);
}

// Concurrent batches on different keys overlap on disjoint worker subsets
// (the convoy fix): this is the raciest path in the service, so hammer it
// from several threads and let TSan judge the interleavings.
TEST(SigningServiceOverlap, ConcurrentBatchesOnTwoKeysAllVerify) {
  falcon::SigningOptions opts;
  opts.backend = engine::Backend::kWide;
  opts.num_threads = 2;
  opts.precision = 64;
  opts.root_seed = 31337;
  falcon::SigningService svc(registry(), opts);

  const falcon::Verifier va(key_a().h, key_a().params);
  const falcon::Verifier vb(key_b().h, key_b().params);
  std::atomic<int> failures{0};
  const auto hammer = [&](const falcon::KeyPair& kp,
                          const falcon::Verifier& verifier,
                          const char* tag) {
    for (int round = 0; round < 3; ++round) {
      std::vector<std::string> storage;
      std::vector<std::string_view> msgs;
      for (int i = 0; i < 5; ++i)
        storage.push_back(std::string(tag) + std::to_string(round * 5 + i));
      for (const auto& s : storage) msgs.push_back(s);
      const auto sigs = svc.sign_many(kp, msgs);
      for (std::size_t i = 0; i < sigs.size(); ++i)
        if (!verifier.verify(msgs[i], sigs[i])) failures.fetch_add(1);
    }
  };
  std::thread ta(hammer, std::cref(key_a()), std::cref(va), "overlap A ");
  std::thread tb(hammer, std::cref(key_b()), std::cref(vb), "overlap B ");
  hammer(key_a(), va, "overlap main ");
  ta.join();
  tb.join();
  EXPECT_EQ(failures.load(), 0);
  // Counters reconcile once everything is checked back in.
  EXPECT_EQ(svc.base_calls(), svc.stats().base_samples);
}

// -------------------------------------------------------------- wire -----

TEST(Wire, SignRequestRoundTrip) {
  SignRequestFrame req;
  req.request_id = 0x1122334455667788ull;
  req.key_id = 0xdeadbeefcafef00dull;
  req.message = "sign me, please \x01\x02";
  const auto encoded = encode(req);
  // Strip the u32 length prefix; the rest is a serial frame.
  ASSERT_GT(encoded.size(), 4u);
  const std::uint32_t len = encoded[0] | (encoded[1] << 8) |
                            (encoded[2] << 16) |
                            (std::uint32_t{encoded[3]} << 24);
  ASSERT_EQ(len, encoded.size() - 4);
  const auto decoded = decode<SignRequestFrame>(
      std::span(encoded).subspan(4));
  EXPECT_EQ(decoded.request_id, req.request_id);
  EXPECT_EQ(decoded.key_id, req.key_id);
  EXPECT_EQ(decoded.message, req.message);
}

TEST(Wire, SignResponseRoundTripThroughSignature) {
  // A real signature (so compress/decompress is exercised end to end).
  DispatcherOptions opts = fast_options();
  Dispatcher d(registry(), opts);
  const std::uint64_t id = d.add_key(key_a());
  auto sub = d.submit(serve::SignRequest{.key_id = id, .message = "wire me"});
  ASSERT_TRUE(sub.ok());
  const falcon::Signature sig = sub.future.get();

  const auto resp = SignResponseFrame::success(42, sig);
  const auto encoded = encode(resp);
  const auto decoded = decode<SignResponseFrame>(std::span(encoded).subspan(4));
  EXPECT_EQ(decoded.request_id, 42u);
  ASSERT_TRUE(decoded.ok);
  const falcon::Signature back = decoded.to_signature();
  EXPECT_EQ(back.nonce, sig.nonce);
  EXPECT_EQ(back.s1, sig.s1);
  const falcon::Verifier verifier(key_a().h, key_a().params);
  EXPECT_TRUE(verifier.verify("wire me", back));

  const auto err = SignResponseFrame::failure(43, "queue-full");
  const auto err_encoded = encode(err);
  const auto err_decoded =
      decode<SignResponseFrame>(std::span(err_encoded).subspan(4));
  EXPECT_EQ(err_decoded.request_id, 43u);
  EXPECT_FALSE(err_decoded.ok);
  EXPECT_EQ(err_decoded.error, "queue-full");
  EXPECT_THROW((void)err_decoded.to_signature(), serial::SerialError);
}

TEST(Wire, VerifyFramesRoundTrip) {
  DispatcherOptions opts = fast_options();
  Dispatcher d(registry(), opts);
  const std::uint64_t id = d.add_key(key_a());
  auto sub = d.submit(serve::SignRequest{.key_id = id, .message = "verify wire"});
  ASSERT_TRUE(sub.ok());
  const falcon::Signature sig = sub.future.get();

  const auto req = VerifyRequestFrame::make(77, id, "verify wire", sig);
  const auto encoded = encode(req);
  EXPECT_EQ(serial::peek_tag(std::span(encoded).subspan(4)),
            serial::TypeTag::kVerifyRequest);
  const auto decoded =
      decode<VerifyRequestFrame>(std::span(encoded).subspan(4));
  EXPECT_EQ(decoded.request_id, 77u);
  EXPECT_EQ(decoded.key_id, id);
  EXPECT_EQ(decoded.message, "verify wire");
  const falcon::Signature back = decoded.to_signature();
  EXPECT_EQ(back.nonce, sig.nonce);
  EXPECT_EQ(back.s1, sig.s1);

  for (const bool accepted : {true, false}) {
    const auto bytes = encode(VerifyResponseFrame::verdict(78, accepted));
    const auto r = decode<VerifyResponseFrame>(std::span(bytes).subspan(4));
    EXPECT_TRUE(r.ok);
    EXPECT_EQ(r.accepted, accepted);
  }
  const auto err_bytes = encode(VerifyResponseFrame::failure(79, "queue-full"));
  const auto err = decode<VerifyResponseFrame>(std::span(err_bytes).subspan(4));
  EXPECT_FALSE(err.ok);
  EXPECT_EQ(err.error, "queue-full");
}

TEST(Wire, KeygenFramesRoundTrip) {
  KeygenRequestFrame req;
  req.request_id = 5;
  req.degree = 128;
  req.seed = 0xfeed5eed;
  const auto encoded = encode(req);
  EXPECT_EQ(serial::peek_tag(std::span(encoded).subspan(4)),
            serial::TypeTag::kKeygenRequest);
  const auto decoded =
      decode<KeygenRequestFrame>(std::span(encoded).subspan(4));
  EXPECT_EQ(decoded.request_id, 5u);
  EXPECT_EQ(decoded.degree, 128u);
  EXPECT_EQ(decoded.seed, 0xfeed5eedu);

  const auto ok_bytes = encode(
      KeygenResponseFrame::success(6, 0x1234, key_a().h, key_a().params.n));
  const auto r = decode<KeygenResponseFrame>(std::span(ok_bytes).subspan(4));
  EXPECT_TRUE(r.ok);
  EXPECT_EQ(r.key_id, 0x1234u);
  EXPECT_EQ(r.degree, key_a().params.n);
  EXPECT_EQ(r.h, key_a().h);  // u16 coding is lossless below q

  const auto err_bytes = encode(KeygenResponseFrame::failure(7, "solver died"));
  const auto err = decode<KeygenResponseFrame>(std::span(err_bytes).subspan(4));
  EXPECT_FALSE(err.ok);
  EXPECT_EQ(err.error, "solver died");
}

TEST(Wire, RequestContextVersionsRoundTripAndStayByteCompatible) {
  // No context at all: byte-identical to the pre-context wire format.
  SignRequestFrame plain;
  plain.request_id = 9;
  plain.key_id = 10;
  plain.message = "ctx";
  const auto plain_bytes = encode(plain);

  SignRequestFrame traced = plain;
  traced.trace_id = 0x7ace1dull;
  const auto traced_bytes = encode(traced);
  // v1 block: one u8 + one u64 beyond the bare frame.
  EXPECT_EQ(traced_bytes.size(), plain_bytes.size() + 9);
  const auto traced_back =
      decode<SignRequestFrame>(std::span(traced_bytes).subspan(4));
  EXPECT_EQ(traced_back.trace_id, 0x7ace1dull);
  EXPECT_EQ(traced_back.deadline_us, 0u);

  // A deadline upgrades the block to v2 (trace id rides along even at 0).
  SignRequestFrame dl = plain;
  dl.deadline_us = 1500;
  const auto dl_bytes = encode(dl);
  EXPECT_EQ(dl_bytes.size(), plain_bytes.size() + 17);
  const auto dl_back = decode<SignRequestFrame>(std::span(dl_bytes).subspan(4));
  EXPECT_EQ(dl_back.trace_id, 0u);
  EXPECT_EQ(dl_back.deadline_us, 1500u);

  // Both set: still one v2 block; both fields survive on every request
  // frame kind that carries the context.
  VerifyRequestFrame vreq;
  vreq.request_id = 11;
  vreq.key_id = 10;
  vreq.message = "ctx";
  vreq.degree = 64;
  vreq.trace_id = 5;
  vreq.deadline_us = 77;
  const auto v_bytes = encode(vreq);
  const auto v_back = decode<VerifyRequestFrame>(std::span(v_bytes).subspan(4));
  EXPECT_EQ(v_back.trace_id, 5u);
  EXPECT_EQ(v_back.deadline_us, 77u);

  KeygenRequestFrame kreq;
  kreq.request_id = 12;
  kreq.degree = 64;
  kreq.seed = 3;
  kreq.deadline_us = 250'000;
  const auto k_bytes = encode(kreq);
  const auto k_back = decode<KeygenRequestFrame>(std::span(k_bytes).subspan(4));
  EXPECT_EQ(k_back.deadline_us, 250'000u);

  // An unknown ctx version is a malformed frame, not a silent skip.
  auto bad = plain_bytes;
  // Rebuild by hand is overkill: a v1 block whose version byte is bumped
  // must reject. Corrupting the encoded version byte would break the
  // checksum first, which is also a rejection — either way it throws.
  bad = traced_bytes;
  bad[bad.size() - 9] = 3;  // the ctx version byte of the v1 block
  EXPECT_THROW((void)decode<SignRequestFrame>(std::span(bad).subspan(4)),
               serial::SerialError);
}

TEST(Wire, CorruptionAndForeignFramesAreRejected) {
  SignRequestFrame req;
  req.request_id = 7;
  req.key_id = 8;
  req.message = "tamper target";
  auto encoded = encode(req);
  // Flip one payload byte: the frame checksum must catch it.
  encoded.back() ^= 0x40;
  EXPECT_THROW((void)decode<SignRequestFrame>(std::span(encoded).subspan(4)),
               serial::SerialError);
  // A request frame is not a response frame (tag mismatch).
  const auto intact = encode(req);
  EXPECT_THROW((void)decode<SignResponseFrame>(std::span(intact).subspan(4)),
               serial::SerialError);
}

TEST(Wire, StreamMessagesOverAPipe) {
  int fds[2];
  ASSERT_EQ(pipe(fds), 0);
  SignRequestFrame req;
  req.request_id = 1;
  req.key_id = 2;
  req.message = "over the pipe";
  ASSERT_TRUE(write_message(fds[1], encode(req)));
  SignRequestFrame req2 = req;
  req2.request_id = 2;
  ASSERT_TRUE(write_message(fds[1], encode(req2)));
  ::close(fds[1]);

  auto m1 = read_message(fds[0]);
  ASSERT_TRUE(m1.has_value());
  EXPECT_EQ(decode<SignRequestFrame>(*m1).request_id, 1u);
  auto m2 = read_message(fds[0]);
  ASSERT_TRUE(m2.has_value());
  EXPECT_EQ(decode<SignRequestFrame>(*m2).message, "over the pipe");
  EXPECT_FALSE(read_message(fds[0]).has_value());  // clean EOF
  ::close(fds[0]);

  // A torn message (EOF mid-body) is corruption, not EOF.
  ASSERT_EQ(pipe(fds), 0);
  const auto bytes = encode(req);
  ASSERT_TRUE(write_message(
      fds[1], std::span(bytes).subspan(0, bytes.size() - 3)));
  ::close(fds[1]);
  EXPECT_THROW((void)read_message(fds[0]), serial::SerialError);
  ::close(fds[0]);
}

}  // namespace
}  // namespace cgs::serve
