#pragma once
// obs::Registry: the process's unified metrics namespace. Subsystems ask
// for named instruments once at setup (counter()/gauge()/histogram() —
// create-or-get under a mutex, cold path only) and keep the returned
// reference for their hot paths; exporters (obs/export.h) call collect()
// to walk every instrument at scrape time. Instruments are owned by the
// registry and never move or die before it, so a reference taken at
// setup stays valid for the registry's lifetime — a subsystem that dies
// first simply leaves its counters frozen at their final values, which
// is exactly what a post-shutdown scrape should see.
//
// Callback instruments (gauge_fn / counter_fn) are for values that live
// in someone else's data structure — cache sizes, queue depths, pool
// occupancy — and are evaluated at collect() time. Because they read
// external state, whoever registered one MUST unregister it (unregister /
// unregister_prefix) before that state is destroyed; the owned atomic
// instruments have no such obligation. Callbacks must not call back into
// the same registry (collect() holds the registry lock).
//
// Names follow the Prometheus data model ([a-zA-Z_:][a-zA-Z0-9_:]*);
// asking for an existing name with the same kind returns the same
// instrument (two subsystems may deliberately share a counter), asking
// with a different kind is a caller bug and throws.

#include <array>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/events.h"
#include "obs/labels.h"
#include "obs/metric.h"
#include "obs/window.h"

namespace cgs::obs {

enum class Kind { kCounter, kGauge, kHistogram };

/// One instrument's value at collect() time. A labeled family appears as
/// its global (labels empty) sample followed by one sample per live cell
/// (labels = canonical rendering); exporters fold the labels into the
/// series name, never into a separate TYPE line.
struct Sample {
  std::string name;
  std::string labels;  // canonical label rendering; empty = unlabeled
  Kind kind = Kind::kCounter;
  double value = 0;  // counter/gauge (callback or owned)
  bool is_histogram = false;
  HistogramBuckets buckets{};    // histogram only
  HistogramBuckets exemplars{};  // histogram only: per-bucket trace ids
  std::uint64_t count = 0;       // histogram only
  std::uint64_t sum_us = 0;      // histogram only
};

class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// Create-or-get an owned instrument. The reference stays valid for the
  /// registry's lifetime. Throws cgs::Error on a kind mismatch or an
  /// invalid name.
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  Histogram& histogram(const std::string& name);

  /// Create-or-get a labeled family over `name`. The family wraps the
  /// owned instrument of the same name (created on demand): every labeled
  /// add/record also lands in the global series, so labeled cells always
  /// sum to it. `options` applies only on first creation; when
  /// options.events is null the registry wires in its own event log.
  CounterFamily& counter_family(const std::string& name,
                                FamilyOptions options = {});

  /// Create-or-get a sliding-window companion over `name` (same wrapping
  /// contract as families: one call feeds both the cumulative histogram
  /// and the window ring). collect() emits derived `<name>_win_*` gauges.
  WindowedHistogram& windowed_histogram(const std::string& name,
                                        WindowOptions options = {});

  /// The registry's structured event log (created on first use). Emit
  /// from any thread; drained by the exporters. Stable for the registry's
  /// lifetime once created.
  EventLog& events();
  /// Null until events() has been called — exporters use this so a
  /// registry that never emitted an event exposes no event section.
  const EventLog* events_or_null() const;

  /// Register a callback evaluated at collect() time. Replaces an
  /// existing callback under the same name (a restarted subsystem
  /// re-binds its gauges); throws if the name is held by an owned
  /// instrument.
  void gauge_fn(const std::string& name, std::function<double()> fn);
  void counter_fn(const std::string& name, std::function<double()> fn);

  /// Drop one instrument / every instrument whose name starts with
  /// `prefix`. Required for callbacks before their backing state dies;
  /// legal (but rarely wanted) for owned instruments.
  void unregister(const std::string& name);
  void unregister_prefix(const std::string& prefix);

  /// Snapshot every instrument, sorted by name (stable exposition order).
  std::vector<Sample> collect() const;

  std::size_t size() const;

 private:
  struct Slot {
    Kind kind = Kind::kCounter;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
    std::function<double()> fn;  // callback instruments only
    // Optional companions wrapping the owned instrument above.
    std::unique_ptr<CounterFamily> counter_family;
    std::unique_ptr<WindowedHistogram> windowed_histogram;
  };

  Slot& slot_for(const std::string& name, Kind kind, bool callback);

  mutable std::mutex mu_;
  std::map<std::string, Slot> slots_;
  std::unique_ptr<EventLog> events_;  // created on first events() call
};

}  // namespace cgs::obs
