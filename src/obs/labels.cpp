#include "obs/labels.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <mutex>

#include "common/check.h"

namespace cgs::obs {

namespace {

bool valid_label_key(const std::string& key) {
  if (key.empty()) return false;
  auto head = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_';
  };
  if (!head(key.front())) return false;
  for (char c : key)
    if (!head(c) && !(c >= '0' && c <= '9')) return false;
  return true;
}

void append_escaped(std::string& out, const std::string& value) {
  for (char c : value) {
    switch (c) {
      case '\\':
        out += "\\\\";
        break;
      case '"':
        out += "\\\"";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        out += c;
    }
  }
}

}  // namespace

LabelSet& LabelSet::set(const std::string& key, std::string value) {
  CGS_CHECK_MSG(valid_label_key(key),
                "obs: invalid label key (want [a-zA-Z_][a-zA-Z0-9_]*)");
  auto it = std::lower_bound(
      pairs_.begin(), pairs_.end(), key,
      [](const auto& p, const std::string& k) { return p.first < k; });
  if (it != pairs_.end() && it->first == key)
    it->second = std::move(value);
  else
    pairs_.insert(it, {key, std::move(value)});
  render();
  return *this;
}

void LabelSet::render() {
  canonical_.clear();
  for (const auto& [k, v] : pairs_) {
    if (!canonical_.empty()) canonical_ += ',';
    canonical_ += k;
    canonical_ += "=\"";
    append_escaped(canonical_, v);
    canonical_ += '"';
  }
}

std::string tenant_label(std::uint64_t fingerprint) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, fingerprint);
  return buf;
}

// ---------------------------------------------------------------------------
// CounterFamily

namespace {

// Touches that promote a probation cell to the protected queue.
constexpr std::uint64_t kPromoteTouches = 2;
// Labels of the overflow cell evicted series fold into (canonical form).
constexpr const char* kOverflowLabels = "tenant=\"other\"";

}  // namespace

CounterFamily::CounterFamily(std::string name, Counter& global,
                             FamilyOptions options)
    : name_(std::move(name)), global_(global), options_(options) {
  CGS_CHECK_MSG(options_.max_series > 0, "obs: family needs max_series >= 1");
}

void CounterFamily::add(const LabelSet& labels, std::uint64_t n) {
  global_.add(n);
  const std::string& key = labels.canonical();
  {
    std::shared_lock<std::shared_mutex> lock(mu_);
    if (auto it = cells_.find(key); it != cells_.end()) {
      it->second->touches.fetch_add(1, std::memory_order_relaxed);
      it->second->value.fetch_add(n, std::memory_order_relaxed);
      return;
    }
  }
  std::unique_lock<std::shared_mutex> lock(mu_);
  Node& node = cell_locked(key);
  node.touches.fetch_add(1, std::memory_order_relaxed);
  node.value.fetch_add(n, std::memory_order_relaxed);
}

CounterFamily::Node& CounterFamily::cell_locked(const std::string& key) {
  if (auto it = cells_.find(key); it != cells_.end()) return *it->second;
  if (cells_.size() >= options_.max_series) make_room_locked();
  probation_.push_back(key);
  return *cells_.emplace(key, std::make_unique<Node>()).first->second;
}

void CounterFamily::make_room_locked() {
  // Lazy promotion: probation cells that earned a second touch since the
  // last admission move to protected before a victim is chosen, so a hot
  // tenant is never folded just because promotions are deferred.
  for (auto it = probation_.begin(); it != probation_.end();) {
    Node& node = *cells_.find(*it)->second;
    if (node.touches.load(std::memory_order_relaxed) >= kPromoteTouches) {
      auto next = std::next(it);
      protected_.splice(protected_.end(), probation_, it);
      it = next;
    } else {
      ++it;
    }
  }
  std::list<std::string>& queue = probation_.empty() ? protected_ : probation_;
  const std::string victim = queue.front();
  auto it = cells_.find(victim);
  // Fold, never drop: the unique lock excludes adders, so this transfer
  // is exact and the sum-to-global invariant survives eviction.
  const std::uint64_t folded =
      it->second->value.load(std::memory_order_relaxed);
  other_.fetch_add(folded, std::memory_order_relaxed);
  queue.pop_front();
  cells_.erase(it);
  folds_.fetch_add(1, std::memory_order_relaxed);
  if (options_.events != nullptr)
    options_.events->emit(EventKind::kSeriesFold, folded, options_.max_series,
                          name_);
}

std::vector<CounterFamily::LabeledValue> CounterFamily::collect() const {
  std::vector<LabeledValue> out;
  {
    std::shared_lock<std::shared_mutex> lock(mu_);
    out.reserve(cells_.size() + 1);
    for (const auto& [labels, node] : cells_)
      out.push_back({labels, node->value.load(std::memory_order_relaxed)});
  }
  if (const std::uint64_t other = other_.load(std::memory_order_relaxed))
    out.push_back({kOverflowLabels, other});
  std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
    return a.labels < b.labels;
  });
  return out;
}

std::size_t CounterFamily::series() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return cells_.size();
}

std::uint64_t CounterFamily::folds() const {
  return folds_.load(std::memory_order_relaxed);
}

}  // namespace cgs::obs
