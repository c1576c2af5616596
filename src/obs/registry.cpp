#include "obs/registry.h"

#include <algorithm>

namespace cgs::obs {

namespace {

bool valid_metric_name(const std::string& name) {
  if (name.empty()) return false;
  auto head = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_' ||
           c == ':';
  };
  if (!head(name.front())) return false;
  for (char c : name)
    if (!head(c) && !(c >= '0' && c <= '9')) return false;
  return true;
}

}  // namespace

Registry::Slot& Registry::slot_for(const std::string& name, Kind kind,
                                   bool callback) {
  CGS_CHECK_MSG(valid_metric_name(name),
                "obs: invalid metric name (want [a-zA-Z_:][a-zA-Z0-9_:]*)");
  auto it = slots_.find(name);
  if (it != slots_.end()) {
    CGS_CHECK_MSG(it->second.kind == kind,
                  "obs: metric re-registered with a different kind");
    if (callback) {
      CGS_CHECK_MSG(static_cast<bool>(it->second.fn),
                    "obs: callback name collides with an owned instrument");
    } else {
      CGS_CHECK_MSG(!it->second.fn,
                    "obs: owned instrument name collides with a callback");
    }
    return it->second;
  }
  Slot slot;
  slot.kind = kind;
  return slots_.emplace(name, std::move(slot)).first->second;
}

Counter& Registry::counter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  Slot& slot = slot_for(name, Kind::kCounter, /*callback=*/false);
  if (!slot.counter) slot.counter = std::make_unique<Counter>();
  return *slot.counter;
}

Gauge& Registry::gauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  Slot& slot = slot_for(name, Kind::kGauge, /*callback=*/false);
  if (!slot.gauge) slot.gauge = std::make_unique<Gauge>();
  return *slot.gauge;
}

Histogram& Registry::histogram(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  Slot& slot = slot_for(name, Kind::kHistogram, /*callback=*/false);
  if (!slot.histogram) slot.histogram = std::make_unique<Histogram>();
  return *slot.histogram;
}

CounterFamily& Registry::counter_family(const std::string& name,
                                        FamilyOptions options) {
  std::lock_guard<std::mutex> lock(mu_);
  Slot& slot = slot_for(name, Kind::kCounter, /*callback=*/false);
  if (!slot.counter) slot.counter = std::make_unique<Counter>();
  if (!slot.counter_family) {
    if (options.events == nullptr) {
      if (!events_) events_ = std::make_unique<EventLog>();
      options.events = events_.get();
    }
    slot.counter_family = std::make_unique<CounterFamily>(
        name, *slot.counter, std::move(options));
  }
  return *slot.counter_family;
}

WindowedHistogram& Registry::windowed_histogram(const std::string& name,
                                                WindowOptions options) {
  std::lock_guard<std::mutex> lock(mu_);
  Slot& slot = slot_for(name, Kind::kHistogram, /*callback=*/false);
  if (!slot.histogram) slot.histogram = std::make_unique<Histogram>();
  if (!slot.windowed_histogram)
    slot.windowed_histogram =
        std::make_unique<WindowedHistogram>(*slot.histogram, options);
  return *slot.windowed_histogram;
}

EventLog& Registry::events() {
  std::lock_guard<std::mutex> lock(mu_);
  if (!events_) events_ = std::make_unique<EventLog>();
  return *events_;
}

const EventLog* Registry::events_or_null() const {
  std::lock_guard<std::mutex> lock(mu_);
  return events_.get();
}

void Registry::gauge_fn(const std::string& name, std::function<double()> fn) {
  CGS_CHECK_MSG(static_cast<bool>(fn), "obs: null gauge callback");
  std::lock_guard<std::mutex> lock(mu_);
  Slot& slot = slot_for(name, Kind::kGauge, /*callback=*/true);
  slot.fn = std::move(fn);
}

void Registry::counter_fn(const std::string& name,
                          std::function<double()> fn) {
  CGS_CHECK_MSG(static_cast<bool>(fn), "obs: null counter callback");
  std::lock_guard<std::mutex> lock(mu_);
  Slot& slot = slot_for(name, Kind::kCounter, /*callback=*/true);
  slot.fn = std::move(fn);
}

void Registry::unregister(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  slots_.erase(name);
}

void Registry::unregister_prefix(const std::string& prefix) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = slots_.lower_bound(prefix);
  while (it != slots_.end() && it->first.compare(0, prefix.size(), prefix) == 0)
    it = slots_.erase(it);
}

std::vector<Sample> Registry::collect() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Sample> out;
  out.reserve(slots_.size());
  for (const auto& [name, slot] : slots_) {
    Sample s;
    s.name = name;
    s.kind = slot.kind;
    if (slot.fn) {
      s.value = slot.fn();
    } else if (slot.counter) {
      s.value = static_cast<double>(slot.counter->value());
    } else if (slot.gauge) {
      s.value = static_cast<double>(slot.gauge->value());
    } else if (slot.histogram) {
      s.is_histogram = true;
      s.buckets = slot.histogram->snapshot();
      for (std::uint64_t b : s.buckets) s.count += b;
      s.sum_us = slot.histogram->sum();
      s.exemplars = slot.histogram->exemplar_snapshot();
    }
    out.push_back(std::move(s));
    // Labeled cells ride directly behind their family's global sample so
    // exporters emit them under the one TYPE line.
    if (slot.counter_family) {
      for (auto& cell : slot.counter_family->collect()) {
        Sample c;
        c.name = name;
        c.labels = std::move(cell.labels);
        c.kind = Kind::kCounter;
        c.value = static_cast<double>(cell.value);
        out.push_back(std::move(c));
      }
    }
    // Derived last-window gauges, computed at scrape time from the ring;
    // names extend the base instrument's.
    if (slot.windowed_histogram) {
      auto derived = [&out](const std::string& n, double v) {
        Sample d;
        d.name = n;
        d.kind = Kind::kGauge;
        d.value = v;
        out.push_back(std::move(d));
      };
      const HistogramBuckets wb = slot.windowed_histogram->window_buckets();
      std::uint64_t wc = 0;
      for (std::uint64_t b : wb) wc += b;
      derived(name + "_win_count", static_cast<double>(wc));
      derived(name + "_win_p50_us", bucket_quantile(wb, 0.50));
      derived(name + "_win_p95_us", bucket_quantile(wb, 0.95));
      derived(name + "_win_p99_us", bucket_quantile(wb, 0.99));
    }
  }
  return out;  // map iteration keeps families/derived adjacent to their base
}

std::size_t Registry::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return slots_.size();
}

}  // namespace cgs::obs
