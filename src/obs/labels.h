#pragma once
// Bounded-cardinality labeled instruments. A labeled family is one metric
// name fanned out over label sets — cgs_tenant_sign_requests_total
// {tenant="1f9a..."} — with two properties a naive map-of-counters lacks:
//
//   1. The labeled series always sum to the family's global (unlabeled)
//      series. Every add() lands in both the per-label cell and the
//      global instrument, and eviction FOLDS a cell into the `other`
//      overflow cell instead of dropping it, so no observation is ever
//      lost from the sum. (The sum is exact at quiescence; mid-storm a
//      scrape may see the global ahead of the cells by the handful of
//      adds in flight.)
//
//   2. Cardinality is bounded. A 10^5-tenant churn storm must not grow
//      the registry without limit, so admission is 2Q-style, echoing
//      store::BoundedCache: a first-seen label set lands in a probation
//      FIFO; a second touch earns promotion to the protected queue;
//      under pressure the probation FIFO is folded into `other` first,
//      so a one-shot sweep of cold tenants can never displace the hot
//      top-K. Live series count stays <= max_series (+ the overflow
//      cell).
//
// Hot-path cost: one shared-lock acquisition + hashed lookup + relaxed
// fetch_add. Admission/eviction/fold take the unique lock, which excludes
// concurrent adders — that exclusion is what makes folds exact.

#include <atomic>
#include <concepts>
#include <cstdint>
#include <initializer_list>
#include <list>
#include <memory>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "obs/events.h"
#include "obs/metric.h"

namespace cgs::obs {

/// An ordered set of label key/value pairs with a canonical Prometheus
/// rendering (`key="value"` joined by commas, keys sorted, values
/// escaped). The canonical string doubles as the family's cell key.
class LabelSet {
 public:
  LabelSet() = default;
  LabelSet(std::initializer_list<std::pair<std::string, std::string>> kv) {
    for (auto& [k, v] : kv) set(k, v);
  }

  /// Set (or replace) one label. Key must match the Prometheus label
  /// grammar [a-zA-Z_][a-zA-Z0-9_]*; throws cgs::Error otherwise. Values
  /// are arbitrary and escaped at render time.
  LabelSet& set(const std::string& key, std::string value);

  /// `key="value",...` sorted by key, values escaped (\\, \", \n).
  const std::string& canonical() const { return canonical_; }

  bool empty() const { return pairs_.empty(); }

 private:
  void render();

  std::vector<std::pair<std::string, std::string>> pairs_;  // key-sorted
  std::string canonical_;
};

struct FamilyOptions {
  /// Live labeled series cap (the overflow cell is extra). The top-K knob:
  /// K hot tenants keep their own series, everyone else folds to `other`.
  std::size_t max_series = 32;
  /// Touches that promote a probation cell to the protected queue.
  std::uint64_t promote_touches = 2;
  /// Labels of the overflow cell evicted series fold into.
  LabelSet overflow = LabelSet{{"tenant", "other"}};
  /// Optional: folds are reported here as kSeriesFold events. The
  /// registry wires its own event log in when the caller leaves this
  /// null (see Registry::counter_family).
  EventLog* events = nullptr;
};

/// One labeled counter series: a relaxed event count.
struct CounterCell {
  using Global = Counter;
  struct Labeled {
    std::string labels;  // canonical rendering
    std::uint64_t value = 0;
  };

  void observe(std::uint64_t n) {
    value.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t observations() const {
    return value.load(std::memory_order_relaxed);
  }
  void fold_into(CounterCell& other) const { other.observe(observations()); }
  Labeled read(std::string labels) const {
    return {std::move(labels), observations()};
  }

  std::atomic<std::uint64_t> value{0};
};

/// One labeled histogram series: a full log2 latency histogram.
struct HistogramCell {
  using Global = Histogram;
  struct Labeled {
    std::string labels;
    HistogramBuckets buckets{};
    std::uint64_t count = 0;
    std::uint64_t sum_us = 0;
  };

  void observe(std::uint64_t us) { hist.record(us); }
  std::uint64_t observations() const { return hist.count(); }
  void fold_into(HistogramCell& other) const {
    other.hist.merge_from(hist.snapshot(), hist.sum());
  }
  Labeled read(std::string labels) const {
    Labeled out{std::move(labels), hist.snapshot()};
    for (std::uint64_t b : out.buckets) out.count += b;
    out.sum_us = hist.sum();
    return out;
  }

  Histogram hist;
};

/// Labeled family over one cell type. Every observation lands in the
/// per-label cell AND the global instrument the family wraps. Cell
/// references are never handed out — eviction folds cells away, so the
/// only stable handle is the family.
template <typename Cell>
class LabeledFamily {
 public:
  LabeledFamily(std::string name, typename Cell::Global& global,
                FamilyOptions options);

  void add(const LabelSet& labels, std::uint64_t n = 1)
    requires std::same_as<Cell, CounterCell>
  {
    global_.add(n);
    observe(labels.canonical(), n);
  }

  /// The exemplar id lands in the global histogram only.
  void record(const LabelSet& labels, std::uint64_t us,
              std::uint64_t exemplar_id = 0)
    requires std::same_as<Cell, HistogramCell>
  {
    global_.record(us, exemplar_id);
    observe(labels.canonical(), us);
  }

  /// Every live cell plus (when non-empty) the overflow cell, sorted by
  /// canonical labels.
  std::vector<typename Cell::Labeled> collect() const;

  /// Live labeled series (overflow excluded). Always <= max_series.
  std::size_t series() const;
  /// Series evicted-and-folded into `other` so far.
  std::uint64_t folds() const;
  const std::string& name() const { return name_; }

 private:
  struct Node {
    Cell cell;
    std::atomic<std::uint64_t> touches{0};
  };

  void observe(const std::string& key, std::uint64_t v);
  Node& cell_locked(const std::string& key);
  void make_room_locked();

  const std::string name_;
  typename Cell::Global& global_;
  const FamilyOptions options_;
  mutable std::shared_mutex mu_;
  std::unordered_map<std::string, std::unique_ptr<Node>> cells_;
  std::list<std::string> probation_;   // FIFO: front = next fold victim
  std::list<std::string> protected_;   // promotion order: front = oldest
  Cell other_;
  std::atomic<std::uint64_t> folds_{0};
};

using CounterFamily = LabeledFamily<CounterCell>;
using HistogramFamily = LabeledFamily<HistogramCell>;
extern template class LabeledFamily<CounterCell>;
extern template class LabeledFamily<HistogramCell>;

/// Hex rendering of a tenant fingerprint / key id for use as a label
/// value (16 lowercase hex digits — fixed width keeps scrapes greppable).
std::string tenant_label(std::uint64_t fingerprint);

}  // namespace cgs::obs
