// The observability layer: registry create-or-get semantics and name/kind
// validation, lock-free instruments under contention (run under TSan in
// CI), the Prometheus/JSON exposition formats, sampled request tracing
// (stage histograms, slow-trace ring), and the kStatsRequest /
// kStatsResponse wire frames.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "obs/events.h"
#include "obs/export.h"
#include "obs/labels.h"
#include "obs/metric.h"
#include "obs/registry.h"
#include "obs/seqlock.h"
#include "obs/trace.h"
#include "obs/window.h"
#include "serial/serial.h"
#include "serve/wire.h"

namespace cgs::obs {
namespace {

// ------------------------------------------------------------- registry ---

TEST(Registry, CreateOrGetReturnsSameInstrument) {
  Registry reg;
  Counter& a = reg.counter("cgs_test_total");
  Counter& b = reg.counter("cgs_test_total");
  EXPECT_EQ(&a, &b);
  a.add(3);
  EXPECT_EQ(b.value(), 3u);
  EXPECT_EQ(reg.size(), 1u);
}

TEST(Registry, KindMismatchThrows) {
  Registry reg;
  reg.counter("cgs_test_total");
  EXPECT_THROW(reg.gauge("cgs_test_total"), Error);
  EXPECT_THROW(reg.histogram("cgs_test_total"), Error);
  EXPECT_THROW(reg.gauge_fn("cgs_test_total", [] { return 0.0; }), Error);
}

TEST(Registry, InvalidNameThrows) {
  Registry reg;
  EXPECT_THROW(reg.counter(""), Error);
  EXPECT_THROW(reg.counter("9starts_with_digit"), Error);
  EXPECT_THROW(reg.counter("has space"), Error);
  EXPECT_THROW(reg.counter("has-dash"), Error);
  (void)reg.counter("ok_name:with_colon_0");  // the full legal alphabet
}

TEST(Registry, CallbackInstrumentsAndUnregister) {
  Registry reg;
  double depth = 7;
  reg.gauge_fn("cgs_test_depth", [&depth] { return depth; });
  reg.counter_fn("cgs_test_hits_total", [] { return 41.0; });

  auto find = [&](const std::string& name) -> std::optional<Sample> {
    for (const Sample& s : reg.collect())
      if (s.name == name) return s;
    return std::nullopt;
  };
  const std::optional<Sample> g = find("cgs_test_depth");
  ASSERT_TRUE(g.has_value());
  EXPECT_EQ(g->kind, Kind::kGauge);
  EXPECT_EQ(g->value, 7.0);

  depth = 9;  // callbacks re-evaluate at collect time
  EXPECT_EQ(find("cgs_test_depth")->value, 9.0);

  // Re-binding a callback name replaces the callback (restart semantics).
  reg.gauge_fn("cgs_test_depth", [] { return 1.0; });
  EXPECT_EQ(find("cgs_test_depth")->value, 1.0);

  reg.unregister("cgs_test_depth");
  EXPECT_FALSE(find("cgs_test_depth").has_value());
  EXPECT_TRUE(find("cgs_test_hits_total").has_value());
  reg.unregister_prefix("cgs_test_");
  EXPECT_EQ(reg.size(), 0u);
}

TEST(Registry, CollectIsNameSorted) {
  Registry reg;
  reg.counter("cgs_z_total");
  reg.counter("cgs_a_total");
  reg.gauge("cgs_m");
  const std::vector<Sample> samples = reg.collect();
  ASSERT_EQ(samples.size(), 3u);
  EXPECT_EQ(samples[0].name, "cgs_a_total");
  EXPECT_EQ(samples[1].name, "cgs_m");
  EXPECT_EQ(samples[2].name, "cgs_z_total");
}

// Run under TSan in CI: concurrent add() on shared instruments must be
// race-free and lose no increments.
TEST(Registry, ConcurrentIncrementsAreLossless) {
  Registry reg;
  Counter& c = reg.counter("cgs_test_total");
  Gauge& churn = reg.gauge("cgs_test_level");
  Gauge& hwm = reg.gauge("cgs_test_high_water");
  Histogram& h = reg.histogram("cgs_test_us");
  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        c.add(1);
        churn.add(t % 2 == 0 ? 1 : -1);  // half up, half down -> net 0
        hwm.max_of(static_cast<std::int64_t>(i));
        h.record(i % 1024);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(c.value(), kThreads * kPerThread);
  EXPECT_EQ(churn.value(), 0);
  EXPECT_EQ(hwm.value(), static_cast<std::int64_t>(kPerThread) - 1);
  EXPECT_EQ(h.count(), kThreads * kPerThread);
}

// --------------------------------------------------------------- metrics ---

TEST(Histogram, BucketsAndQuantiles) {
  Histogram h;
  h.record(0);    // bucket 0
  h.record(1);    // bucket 1
  h.record(3);    // bucket 2: [2, 4)
  h.record(100);  // bucket 7: [64, 128)
  EXPECT_EQ(h.count(), 4u);
  EXPECT_EQ(h.sum(), 104u);
  const HistogramBuckets snap = h.snapshot();
  EXPECT_EQ(snap[0], 1u);
  EXPECT_EQ(snap[1], 1u);
  EXPECT_EQ(snap[2], 1u);
  EXPECT_EQ(snap[7], 1u);
  EXPECT_EQ(h.quantile(0.0), 0.0);
  EXPECT_EQ(h.quantile(1.0), 128.0);  // bucket 7's upper bound
}

TEST(Histogram, OverflowLandsInTheLastBucket) {
  // Satellite (b): us >= 2^63 must clamp into bucket 64, never index
  // past the array, and keep the quantile walk finite.
  Histogram h;
  h.record(~std::uint64_t{0});
  h.record(std::uint64_t{1} << 63);
  EXPECT_EQ(h.count(), 2u);
  EXPECT_EQ(h.snapshot()[64], 2u);
  EXPECT_EQ(h.quantile(0.99), std::ldexp(1.0, 64));
}

TEST(Histogram, QuantileFromOneSnapshot) {
  // bucket_quantile over an explicit merged array — the snapshot-once
  // pattern the dispatcher uses so p50/p95/p99 agree on one copy.
  Histogram a, b;
  for (int i = 0; i < 90; ++i) a.record(10);   // bucket 4
  for (int i = 0; i < 10; ++i) b.record(1000); // bucket 10
  HistogramBuckets merged{};
  a.merge_into(merged);
  b.merge_into(merged);
  EXPECT_EQ(bucket_quantile(merged, 0.50), 16.0);
  EXPECT_EQ(bucket_quantile(merged, 0.99), 1024.0);
  EXPECT_EQ(bucket_quantile(merged, 0.0), 16.0);
}

// ------------------------------------------------------------ exposition ---

TEST(Export, PrometheusGolden) {
  Registry reg;
  reg.counter("cgs_events_total").add(42);
  reg.gauge("cgs_depth").set(-3);
  Histogram& h = reg.histogram("cgs_lat_us");
  h.record(0);
  h.record(3);
  h.record(3);
  const std::string expected =
      "# TYPE cgs_depth gauge\n"
      "cgs_depth -3\n"
      "# TYPE cgs_events_total counter\n"
      "cgs_events_total 42\n"
      "# TYPE cgs_lat_us histogram\n"
      "cgs_lat_us_bucket{le=\"0\"} 1\n"
      "cgs_lat_us_bucket{le=\"1\"} 1\n"
      "cgs_lat_us_bucket{le=\"3\"} 3\n"
      "cgs_lat_us_bucket{le=\"+Inf\"} 3\n"
      "cgs_lat_us_sum 6\n"
      "cgs_lat_us_count 3\n";
  EXPECT_EQ(prometheus_text(reg), expected);
}

TEST(Export, EmptyHistogramIsCompact) {
  Registry reg;
  reg.histogram("cgs_idle_us");
  const std::string text = prometheus_text(reg);
  // Trailing empty buckets collapse: le="0", +Inf, sum, count and the
  // TYPE line only.
  EXPECT_EQ(text,
            "# TYPE cgs_idle_us histogram\n"
            "cgs_idle_us_bucket{le=\"0\"} 0\n"
            "cgs_idle_us_bucket{le=\"+Inf\"} 0\n"
            "cgs_idle_us_sum 0\n"
            "cgs_idle_us_count 0\n");
}

TEST(Export, JsonCarriesEveryMetric) {
  Registry reg;
  reg.counter("cgs_events_total").add(5);
  reg.histogram("cgs_lat_us").record(100);
  const std::string json = json_text(reg);
  EXPECT_NE(json.find("\"metrics\""), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"cgs_events_total\""), std::string::npos);
  EXPECT_NE(json.find("\"value\": 5"), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"cgs_lat_us\""), std::string::npos);
  EXPECT_NE(json.find("\"count\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"p99_us\": 128"), std::string::npos);
}

// --------------------------------------------------------------- tracing ---

TEST(Trace, DisabledTracerCostsOneBranch) {
  Registry reg;
  Tracer tracer(reg, TraceOptions{.sample_every = 0, .slow_ring = 4});
  EXPECT_FALSE(tracer.enabled());
  Trace t = tracer.begin();
  EXPECT_FALSE(t.active);
  t.stamp(Stage::kEnqueued);  // all no-ops on an inert trace
  EXPECT_EQ(t.at(Stage::kEnqueued), 0u);
  tracer.finish(t);
  EXPECT_EQ(reg.histogram("cgs_trace_total_us").count(), 0u);
  EXPECT_TRUE(tracer.slowest().empty());
}

TEST(Trace, SampledStampsAreMonotoneAndRecorded) {
  Registry reg;
  Tracer tracer(reg, TraceOptions{.sample_every = 1, .slow_ring = 4});
  Trace t = tracer.begin();
  ASSERT_TRUE(t.active);
  EXPECT_GT(t.at(Stage::kReceived), 0u);  // begin() stamps received
  for (Stage s : {Stage::kEnqueued, Stage::kBatchClosed, Stage::kEngineStart,
                  Stage::kEngineEnd, Stage::kFulfilled, Stage::kFlushed})
    t.stamp(s);
  // steady_clock stamps taken in order never decrease.
  for (std::size_t i = 1; i < kNumStages; ++i)
    EXPECT_GE(t.stamps[i], t.stamps[i - 1]);
  tracer.finish(t);
  EXPECT_EQ(reg.counter("cgs_trace_sampled_total").value(), 1u);
  EXPECT_EQ(reg.histogram("cgs_trace_queue_wait_us").count(), 1u);
  EXPECT_EQ(reg.histogram("cgs_trace_compute_us").count(), 1u);
  EXPECT_EQ(reg.histogram("cgs_trace_write_stall_us").count(), 1u);
  EXPECT_EQ(reg.histogram("cgs_trace_total_us").count(), 1u);
}

TEST(Trace, WriteStallOnlyRecordsWhenFlushed) {
  Registry reg;
  Tracer tracer(reg, TraceOptions{.sample_every = 1, .slow_ring = 0});
  Trace t = tracer.begin();
  ASSERT_TRUE(t.active);
  t.stamp(Stage::kFulfilled);  // fulfilled but never flushed (no transport)
  tracer.finish(t);
  EXPECT_EQ(reg.histogram("cgs_trace_write_stall_us").count(), 0u);
  EXPECT_EQ(reg.histogram("cgs_trace_total_us").count(), 1u);
}

TEST(Trace, SamplingRateIsOneInN) {
  Registry reg;
  Tracer tracer(reg, TraceOptions{.sample_every = 8, .slow_ring = 0});
  int active = 0;
  for (int i = 0; i < 64; ++i)
    if (tracer.begin().active) ++active;
  EXPECT_EQ(active, 8);
}

TEST(Trace, SlowRingKeepsTheSlowestAndStaysBounded) {
  Registry reg;
  constexpr std::size_t kRing = 4;
  Tracer tracer(reg, TraceOptions{.sample_every = 1, .slow_ring = kRing});
  // 20 traces with hand-built totals 1..20us (stamp_at for determinism).
  for (std::uint64_t total = 1; total <= 20; ++total) {
    Trace t = tracer.begin();
    ASSERT_TRUE(t.active);
    const std::uint64_t start = t.at(Stage::kReceived);
    t.stamp_at(Stage::kFulfilled, start + total);
    tracer.finish(t);
  }
  const std::vector<SlowTrace> slow = tracer.slowest();
  ASSERT_EQ(slow.size(), kRing);
  for (std::size_t i = 0; i < slow.size(); ++i) {
    EXPECT_EQ(slow[i].total_us, 20 - i);  // slowest first: 20, 19, 18, 17
    EXPECT_GT(slow[i].stamps[0], 0u);
  }
}

// ------------------------------------------------------ windowed metrics ---

TEST(Windowed, HistogramAgesOutOldEpochs) {
  Registry reg;
  WindowOptions w;
  w.epoch_us = 50'000;  // 50 ms epochs: the test reads at later instants
  w.epochs = 4;
  WindowedHistogram& wh = reg.windowed_histogram("cgs_win_age_us", w);
  const auto epoch_of = [&w](std::uint64_t us) { return us / w.epoch_us; };

  // Batch A (fast) in one epoch, batch B (slow) in a later one.
  const std::uint64_t a_start = WindowedHistogram::now_us();
  for (int i = 0; i < 5; ++i) wh.record(100);
  const std::uint64_t a_end = WindowedHistogram::now_us();
  while (epoch_of(WindowedHistogram::now_us()) == epoch_of(a_end))
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  for (int i = 0; i < 7; ++i) wh.record(9000);
  const std::uint64_t b_end = WindowedHistogram::now_us();
  ASSERT_LT(epoch_of(b_end) - epoch_of(a_start), w.epochs);

  EXPECT_EQ(wh.window_count(b_end), 12u);
  // The first instant whose window starts past A's epoch: A has aged out,
  // B (one epoch or more later) is still inside.
  const std::uint64_t a_gone = (epoch_of(a_end) + w.epochs) * w.epoch_us;
  EXPECT_EQ(wh.window_count(a_gone), 7u);
  EXPECT_GT(wh.window_quantile(0.0, a_gone), 8000.0);  // only B's values
  // Once B's epoch has left too, the window is empty; the cumulative
  // global keeps every record.
  EXPECT_EQ(wh.window_count((epoch_of(b_end) + w.epochs) * w.epoch_us), 0u);
  EXPECT_EQ(wh.cumulative().count(), 12u);
}

TEST(Windowed, HistogramWindowQuantilesMatchGlobal) {
  Registry reg;
  WindowedHistogram& wh = reg.windowed_histogram("cgs_win_lat_us");
  for (int i = 0; i < 90; ++i) wh.record(100);
  for (int i = 0; i < 10; ++i) wh.record(9000);
  // All records land in the current (10 s) epoch: window == lifetime.
  EXPECT_EQ(wh.window_count(), 100u);
  EXPECT_LE(wh.window_quantile(0.50), 128.0);
  EXPECT_GT(wh.window_quantile(0.99), 8000.0);
  // The wrapped cumulative histogram saw every record too.
  bool found = false;
  for (const Sample& s : reg.collect()) {
    if (s.name == "cgs_win_lat_us" && s.labels.empty()) {
      EXPECT_EQ(s.count, 100u);
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

// The TSan job's target: 8 threads hammer one windowed histogram through
// live rotations (tiny epochs force thousands of CAS rotations). The
// invariant rotation must preserve: the cumulative global loses nothing,
// and window reads never see the rotation sentinel.
TEST(Windowed, RotationUnderEightThreadHammer) {
  Registry reg;
  WindowOptions w;
  w.epoch_us = 100;  // 0.1 ms epochs -> rotations every few iterations
  w.epochs = 4;
  WindowedHistogram& wh = reg.windowed_histogram("cgs_win_hammer_us", w);

  constexpr int kThreads = 8;
  constexpr int kPerThread = 20000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        wh.record(static_cast<std::uint64_t>((t * kPerThread + i) % 512));
        if (i % 64 == 0) (void)wh.window_quantile(0.95);
      }
    });
  }
  for (auto& th : threads) th.join();

  constexpr std::uint64_t kTotal =
      static_cast<std::uint64_t>(kThreads) * kPerThread;
  std::uint64_t global_hist = 0;
  for (const Sample& s : reg.collect())
    if (s.name == "cgs_win_hammer_us" && s.labels.empty())
      global_hist = s.count;
  EXPECT_EQ(global_hist, kTotal);  // the global never loses a count
  // Window slices are a subset of history, and reading them mid- or
  // post-hammer must not deadlock or return sentinel garbage.
  EXPECT_LE(wh.window_count(), kTotal);
}

// ------------------------------------------------------ labeled families ---

TEST(Labels, CanonicalRenderingSortsAndEscapes) {
  LabelSet ls{{"zeta", "b"}, {"alpha", "say \"hi\"\n"}};
  EXPECT_EQ(ls.canonical(), "alpha=\"say \\\"hi\\\"\\n\",zeta=\"b\"");
  EXPECT_THROW(LabelSet{}.set("9bad", "v"), Error);
  EXPECT_THROW(LabelSet{}.set("has space", "v"), Error);
  EXPECT_EQ(tenant_label(0xdeadbeefull), "00000000deadbeef");
}

TEST(Labels, FamilySumsToGlobalUnderChurnAndStaysBounded) {
  Registry reg;
  FamilyOptions fo;
  fo.max_series = 8;
  CounterFamily& fam = reg.counter_family("cgs_tenant_test_total", fo);

  // Two hot tenants touched repeatedly (promoted), then a churn sweep of
  // one-shot tenants far beyond the cap.
  std::uint64_t expected = 0;
  for (int i = 0; i < 10; ++i) {
    fam.add(LabelSet{{"tenant", tenant_label(1)}});
    fam.add(LabelSet{{"tenant", tenant_label(2)}});
    expected += 2;
  }
  for (std::uint64_t t = 100; t < 600; ++t) {
    fam.add(LabelSet{{"tenant", tenant_label(t)}});
    ++expected;
  }

  EXPECT_LE(fam.series(), fo.max_series);
  EXPECT_GT(fam.folds(), 0u);

  // Folding means no observation is ever dropped: labeled cells plus the
  // overflow cell re-add exactly to the global.
  std::uint64_t labeled_sum = 0;
  bool hot_survived = false;
  for (const auto& cell : fam.collect()) {
    labeled_sum += cell.value;
    if (cell.labels.find(tenant_label(1)) != std::string::npos)
      hot_survived = true;
  }
  EXPECT_EQ(labeled_sum, expected);
  EXPECT_TRUE(hot_survived) << "churn displaced a protected hot tenant";

  std::uint64_t global = 0;
  for (const Sample& s : reg.collect())
    if (s.name == "cgs_tenant_test_total" && s.labels.empty())
      global = static_cast<std::uint64_t>(s.value);
  EXPECT_EQ(global, expected);
}

TEST(Labels, FoldsEmitSeriesFoldEvents) {
  Registry reg;
  CounterFamily& fam =
      reg.counter_family("cgs_tenant_fold_total", {.max_series = 2});
  for (std::uint64_t t = 0; t < 10; ++t)
    fam.add(LabelSet{{"tenant", tenant_label(t)}});
  // The registry wired its own event log into the family.
  EXPECT_EQ(reg.events().count(EventKind::kSeriesFold), fam.folds());
  EXPECT_GT(fam.folds(), 0u);
}

// -------------------------------------------------------------- event log ---

TEST(Events, EmitSnapshotAndLifetimeCounts) {
  EventLog log;
  log.emit(EventKind::kOverloadShed, 3, 250, "reactor 3");
  log.emit(EventKind::kKvCompaction, 4096, 17, "key_state.log");
  log.emit(EventKind::kOverloadShed, 1, 250);

  const std::vector<Event> events = log.snapshot();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].seq, 1u);
  EXPECT_EQ(events[0].kind, EventKind::kOverloadShed);
  EXPECT_EQ(events[0].a, 3u);
  EXPECT_EQ(events[0].b, 250u);
  EXPECT_STREQ(events[0].detail, "reactor 3");
  EXPECT_EQ(events[1].kind, EventKind::kKvCompaction);
  EXPECT_STREQ(events[1].detail, "key_state.log");
  EXPECT_STREQ(events[2].detail, "");
  EXPECT_EQ(log.count(EventKind::kOverloadShed), 2u);
  EXPECT_EQ(log.count(EventKind::kKvCompaction), 1u);
  EXPECT_EQ(log.total(), 3u);

  // Oversized detail strings truncate into the inline buffer, no alloc.
  log.emit(EventKind::kKeygenStart, 512, 0, std::string(200, 'x'));
  const std::vector<Event> after = log.snapshot();
  EXPECT_EQ(std::strlen(after.back().detail), sizeof(Event{}.detail) - 1);
}

TEST(Events, RingWrapKeepsMostRecentCountsEverything) {
  EventLog log(8);
  for (std::uint64_t i = 1; i <= 20; ++i)
    log.emit(EventKind::kCacheEviction, i);
  const std::vector<Event> events = log.snapshot();
  ASSERT_EQ(events.size(), 8u);
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].seq, 13 + i);  // the 8 most recent, oldest first
    EXPECT_EQ(events[i].a, 13 + i);
  }
  EXPECT_EQ(log.total(), 20u);                               // never wraps
  EXPECT_EQ(log.count(EventKind::kCacheEviction), 20u);
}

TEST(Events, PrometheusExpositionCarriesPerKindCounters) {
  Registry reg;
  reg.events().emit(EventKind::kTornTailRecovery, 128, 4096, "kv.log");
  reg.events().emit(EventKind::kKeygenStart, 512);
  const std::string text = prometheus_text(reg);
  EXPECT_NE(text.find("cgs_obs_events_total{kind=\"torn_tail_recovery\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("cgs_obs_events_total{kind=\"keygen_start\"} 1"),
            std::string::npos);
  const std::string json = json_text(reg);
  EXPECT_NE(json.find("\"events\""), std::string::npos);
  EXPECT_NE(json.find("torn_tail_recovery"), std::string::npos);
}

// ------------------------------------------------------------- seqlock ---

TEST(Seqlock, EmptySlotLoadsNothingAndStoresRoundTrip) {
  struct Record {  // 12 bytes: the last word is partly payload
    std::uint32_t x;
    char text[8];
  };
  static_assert(sizeof(Record) % sizeof(std::uint64_t) != 0);
  SeqlockSlot<Record> slot;
  EXPECT_FALSE(slot.load().has_value());
  EXPECT_TRUE(slot.try_store(Record{42, "hello"}));
  EXPECT_TRUE(slot.try_store(Record{43, "world"}));
  const std::optional<Record> got = slot.load();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->x, 43u);
  EXPECT_STREQ(got->text, "world");
}

// The TSan job's target for both seqlock rings: writers emit events and
// finish traces whose every field derives from one value, while a reader
// drains snapshot() and slowest(). Every record read must be one writer's
// whole record, and the lifetime per-kind counts stay exact.
TEST(Seqlock, ConcurrentRingsReturnSelfConsistentRecords) {
  Registry reg;
  EventLog log(8);  // small rings: writers collide and wrap constantly
  Tracer tracer(reg, TraceOptions{.sample_every = 1, .slow_ring = 4});
  constexpr int kWriters = 4;
  constexpr std::uint64_t kPerWriter = 5000;

  const auto event_ok = [](const Event& e) {
    return e.seq != 0 && e.b == ~e.a &&
           e.kind == static_cast<EventKind>(e.a % kNumEventKinds) &&
           std::to_string(e.a) == e.detail;
  };
  // A trace of value v: ids v / v / ~v, class v % 5, stamps v + i*(v % 97
  // + 1), so its total is 6 * (v % 97 + 1).
  const auto trace_ok = [](const SlowTrace& st) {
    const std::uint64_t v = st.trace_id;
    const std::uint64_t step = v % 97 + 1;
    bool ok = st.request_id == v && st.tenant == ~v &&
              st.req_class == static_cast<RequestClass>(v % 5) &&
              st.total_us == 6 * step;
    for (std::size_t i = 0; i < kNumStages; ++i)
      ok = ok && st.stamps[i] == v + i * step;
    return ok;
  };

  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> bad_events{0}, bad_traces{0}, reads{0};
  std::thread reader([&] {
    while (!done.load(std::memory_order_acquire)) {
      for (const Event& e : log.snapshot())
        if (!event_ok(e)) bad_events.fetch_add(1);
      for (const SlowTrace& st : tracer.slowest())
        if (!trace_ok(st)) bad_traces.fetch_add(1);
      reads.fetch_add(1);
    }
  });
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      for (std::uint64_t i = 0; i < kPerWriter; ++i) {
        const std::uint64_t v = 1 + w * kPerWriter + i;
        log.emit(static_cast<EventKind>(v % kNumEventKinds), v, ~v,
                 std::to_string(v));
        Trace t;
        t.active = true;
        t.trace_id = t.request_id = v;
        t.tenant = ~v;
        t.req_class = static_cast<RequestClass>(v % 5);
        for (std::size_t s = 0; s < kNumStages; ++s)
          t.stamps[s] = v + s * (v % 97 + 1);
        tracer.finish(t);
      }
    });
  }
  for (auto& th : writers) th.join();
  done.store(true, std::memory_order_release);
  reader.join();

  EXPECT_GT(reads.load(), 0u);
  EXPECT_EQ(bad_events.load(), 0u);
  EXPECT_EQ(bad_traces.load(), 0u);
  constexpr std::uint64_t kTotal = kWriters * kPerWriter;
  EXPECT_EQ(log.total(), kTotal);
  for (std::size_t k = 0; k < kNumEventKinds; ++k) {
    std::uint64_t expected = 0;  // values 1..kTotal with v % 6 == k
    for (std::uint64_t v = 1; v <= kTotal; ++v)
      expected += v % kNumEventKinds == k;
    EXPECT_EQ(log.count(static_cast<EventKind>(k)), expected) << k;
  }
  // Quiescent now: every slot holds a whole record.
  const std::vector<Event> events = log.snapshot();
  EXPECT_EQ(events.size(), log.capacity());
  for (const Event& e : events) EXPECT_TRUE(event_ok(e));
  const std::vector<SlowTrace> slow = tracer.slowest();
  EXPECT_EQ(slow.size(), 4u);
  for (const SlowTrace& st : slow) EXPECT_TRUE(trace_ok(st));
}

// ------------------------------------------------- trace context & exemplars ---

TEST(Trace, WireTraceIdForcesSamplingAndSurvives) {
  Registry reg;
  TraceOptions topts;
  topts.sample_every = 1'000'000;  // local sampling effectively off
  Tracer tracer(reg, topts);
  Trace t = tracer.begin(0x7ace1dull);
  EXPECT_TRUE(t.active);
  EXPECT_EQ(t.trace_id, 0x7ace1dull);

  // sample_every == 0 is the global off switch: even wire ids are ignored.
  TraceOptions off;
  off.sample_every = 0;
  Tracer disabled(reg, off);
  EXPECT_FALSE(disabled.begin(0x7ace1dull).active);
}

TEST(Trace, ExemplarTraceIdsSurfaceInExposition) {
  Registry reg;
  Histogram& h = reg.histogram("cgs_exemplar_us");
  h.record(100, 0xdeadbeefull);
  const std::string text = prometheus_text(reg);
  EXPECT_NE(text.find("# exemplar cgs_exemplar_us_bucket"), std::string::npos);
  EXPECT_NE(text.find("trace_id=\"00000000deadbeef\""), std::string::npos);
  const std::string json = json_text(reg);
  EXPECT_NE(json.find("tail_exemplar_trace_id"), std::string::npos);
}

// ----------------------------------------------------------- wire frames ---

TEST(StatsWire, RequestRoundTrip) {
  serve::StatsRequestFrame req;
  req.request_id = 77;
  req.format = serve::StatsFormat::kJson;
  const std::vector<std::uint8_t> encoded = serve::encode(req);
  // Strip the u32 length prefix the stream layer owns.
  const std::span<const std::uint8_t> frame(encoded.data() + 4,
                                            encoded.size() - 4);
  EXPECT_EQ(serial::peek_tag(frame), serial::TypeTag::kStatsRequest);
  const auto back = serve::decode<serve::StatsRequestFrame>(frame);
  EXPECT_EQ(back.request_id, 77u);
  EXPECT_EQ(back.format, serve::StatsFormat::kJson);
}

TEST(StatsWire, ResponseRoundTripSuccessAndFailure) {
  const serve::StatsResponseFrame ok = serve::StatsResponseFrame::success(
      5, serve::StatsFormat::kPrometheus, "# TYPE x counter\nx 1\n");
  std::vector<std::uint8_t> encoded = serve::encode(ok);
  serve::StatsResponseFrame back = serve::decode<serve::StatsResponseFrame>(
      std::span<const std::uint8_t>(encoded.data() + 4, encoded.size() - 4));
  EXPECT_TRUE(back.ok);
  EXPECT_EQ(back.request_id, 5u);
  EXPECT_EQ(back.format, serve::StatsFormat::kPrometheus);
  EXPECT_EQ(back.text, "# TYPE x counter\nx 1\n");

  const serve::StatsResponseFrame bad =
      serve::StatsResponseFrame::failure(6, "no registry");
  encoded = serve::encode(bad);
  back = serve::decode<serve::StatsResponseFrame>(
      std::span<const std::uint8_t>(encoded.data() + 4, encoded.size() - 4));
  EXPECT_FALSE(back.ok);
  EXPECT_EQ(back.request_id, 6u);
  EXPECT_EQ(back.error, "no registry");
}

TEST(StatsWire, MalformedFormatByteThrows) {
  serve::StatsRequestFrame req;
  req.request_id = 1;
  req.format = static_cast<serve::StatsFormat>(9);  // not a valid selector
  const std::vector<std::uint8_t> encoded = serve::encode(req);
  EXPECT_THROW(
      serve::decode<serve::StatsRequestFrame>(std::span<const std::uint8_t>(
          encoded.data() + 4, encoded.size() - 4)),
      serial::SerialError);
}

}  // namespace
}  // namespace cgs::obs
