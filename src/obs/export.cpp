#include "obs/export.h"

#include <cinttypes>
#include <cstdio>

#include "common/json.h"

namespace cgs::obs {

namespace {

const char* kind_name(Kind k) {
  switch (k) {
    case Kind::kCounter:
      return "counter";
    case Kind::kGauge:
      return "gauge";
    case Kind::kHistogram:
      return "histogram";
  }
  return "untyped";
}

std::string format_double(double v) {
  // Integral values (the common case: counts, byte totals) print without
  // a fractional part so golden tests and humans see "42", not "42.0".
  // Range-check before the cast: a negative or huge double to uint64_t
  // is undefined behavior.
  if (v >= 0 && v < 1e18 && v == static_cast<std::uint64_t>(v)) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%" PRIu64,
                  static_cast<std::uint64_t>(v));
    return buf;
  }
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// Upper bound (us) of histogram bucket `i`: bucket 0 holds exactly 0us,
/// bucket k holds [2^(k-1), 2^k) integer us, so its inclusive `le` bound
/// is 2^k - 1. Bucket 64 is the overflow bucket and maps to +Inf.
std::string bucket_le(std::size_t i) {
  if (i == 0) return "0";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%" PRIu64,
                (i >= 64) ? ~std::uint64_t{0} : ((std::uint64_t{1} << i) - 1));
  return buf;
}

std::string hex_id(std::uint64_t id) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, id);
  return buf;
}

}  // namespace

std::string prometheus_text(const Registry& registry) {
  std::string out;
  for (const Sample& s : registry.collect()) {
    // A labeled sample belongs to the family whose (unlabeled) global
    // sample — and TYPE line — immediately precedes it in collect order.
    if (s.labels.empty())
      out += "# TYPE " + s.name + " " + kind_name(s.kind) + "\n";
    if (!s.is_histogram) {
      if (s.labels.empty())
        out += s.name + " " + format_double(s.value) + "\n";
      else
        out += s.name + "{" + s.labels + "} " + format_double(s.value) + "\n";
      continue;
    }
    // Cumulative buckets; collapse trailing empties into the final +Inf
    // line so an idle histogram is 3 lines, not 67.
    std::size_t last_nonzero = 0;
    for (std::size_t i = 0; i < s.buckets.size(); ++i)
      if (s.buckets[i] != 0) last_nonzero = i;
    std::uint64_t cumulative = 0;
    for (std::size_t i = 0; i <= last_nonzero && i + 1 < s.buckets.size();
         ++i) {
      cumulative += s.buckets[i];
      out += s.name + "_bucket{le=\"" + bucket_le(i) + "\"} " +
             std::to_string(cumulative) + "\n";
    }
    out += s.name + "_bucket{le=\"+Inf\"} " + std::to_string(s.count) + "\n";
    out += s.name + "_sum " + std::to_string(s.sum_us) + "\n";
    out += s.name + "_count " + std::to_string(s.count) + "\n";
    // Exemplars as comment lines (plain-Prometheus parsers skip unknown
    // comments; goldens are untouched because an exemplar-free histogram
    // emits none).
    for (std::size_t i = 0; i < s.exemplars.size(); ++i) {
      if (s.exemplars[i] == 0) continue;
      out += "# exemplar " + s.name + "_bucket{le=\"" + bucket_le(i) +
             "\"} trace_id=\"" + hex_id(s.exemplars[i]) + "\"\n";
    }
  }
  // Structured events: lifetime per-kind counters (the ring itself is
  // JSON-only). Only present once something has been emitted.
  if (const EventLog* events = registry.events_or_null();
      events != nullptr && events->total() != 0) {
    out += "# TYPE cgs_obs_events_total counter\n";
    for (std::size_t k = 0; k < kNumEventKinds; ++k) {
      const auto kind = static_cast<EventKind>(k);
      const std::uint64_t n = events->count(kind);
      if (n == 0) continue;
      out += std::string("cgs_obs_events_total{kind=\"") +
             event_kind_name(kind) + "\"} " + std::to_string(n) + "\n";
    }
  }
  return out;
}

std::string json_text(const Registry& registry) {
  JsonWriter w;
  w.begin_object();
  w.begin_array("metrics");
  for (const Sample& s : registry.collect()) {
    w.begin_object();
    w.field("name", s.name);
    if (!s.labels.empty()) w.field("labels", s.labels);
    w.field("type", kind_name(s.kind));
    if (s.is_histogram) {
      w.field("count", static_cast<std::size_t>(s.count));
      w.field("sum_us", static_cast<std::size_t>(s.sum_us));
      w.field("p50_us", bucket_quantile(s.buckets, 0.50));
      w.field("p95_us", bucket_quantile(s.buckets, 0.95));
      w.field("p99_us", bucket_quantile(s.buckets, 0.99));
      // Highest-bucket exemplar: the trace id behind the worst latency.
      for (std::size_t i = s.exemplars.size(); i-- > 0;) {
        if (s.exemplars[i] != 0) {
          w.field("tail_exemplar_trace_id", hex_id(s.exemplars[i]));
          break;
        }
      }
    } else {
      w.field("value", s.value);
    }
    w.end_object();
  }
  w.end_array();
  if (const EventLog* events = registry.events_or_null();
      events != nullptr && events->total() != 0) {
    w.begin_array("events");
    for (const Event& e : events->snapshot()) {
      w.begin_object();
      w.field("seq", static_cast<std::size_t>(e.seq));
      w.field("ts_us", static_cast<std::size_t>(e.ts_us));
      w.field("kind", event_kind_name(e.kind));
      w.field("a", static_cast<std::size_t>(e.a));
      w.field("b", static_cast<std::size_t>(e.b));
      w.field("detail", std::string(e.detail));
      w.end_object();
    }
    w.end_array();
  }
  w.end_object();
  return w.str();
}

}  // namespace cgs::obs
