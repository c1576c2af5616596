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
  /// Optional: folds are reported here as kSeriesFold events. The
  /// registry wires its own event log in when the caller leaves this
  /// null (see Registry::counter_family).
  EventLog* events = nullptr;
};

/// Labeled counter family. add() bumps the per-label cell AND the global
/// counter the family wraps. Cell references are never handed out —
/// eviction folds cells away, so the only stable handle is the family.
class CounterFamily {
 public:
  CounterFamily(std::string name, Counter& global, FamilyOptions options);

  void add(const LabelSet& labels, std::uint64_t n = 1);

  struct LabeledValue {
    std::string labels;  // canonical rendering
    std::uint64_t value = 0;
  };
  /// Every live cell plus (when non-zero) the overflow cell, sorted by
  /// canonical labels.
  std::vector<LabeledValue> collect() const;

  /// Live labeled series (overflow excluded). Always <= max_series.
  std::size_t series() const;
  /// Series evicted-and-folded into `other` so far.
  std::uint64_t folds() const;
  const std::string& name() const { return name_; }

 private:
  struct Node {
    std::atomic<std::uint64_t> value{0};
    std::atomic<std::uint64_t> touches{0};
  };

  Node& cell_locked(const std::string& key);
  void make_room_locked();

  const std::string name_;
  Counter& global_;
  const FamilyOptions options_;
  mutable std::shared_mutex mu_;
  std::unordered_map<std::string, std::unique_ptr<Node>> cells_;
  std::list<std::string> probation_;   // FIFO: front = next fold victim
  std::list<std::string> protected_;   // promotion order: front = oldest
  std::atomic<std::uint64_t> other_{0};
  std::atomic<std::uint64_t> folds_{0};
};

/// Hex rendering of a tenant fingerprint / key id for use as a label
/// value (16 lowercase hex digits — fixed width keeps scrapes greppable).
std::string tenant_label(std::uint64_t fingerprint);

}  // namespace cgs::obs
