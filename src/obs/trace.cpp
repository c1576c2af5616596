#include "obs/trace.h"

#include <algorithm>
#include <optional>

namespace cgs::obs {

namespace {

/// Delta between two stage stamps, or 0 if either stage never happened.
/// Stamps come from one steady clock so inversion means "not stamped in
/// order" (a stage skipped for this request) — treat as absent.
std::uint64_t delta(const Trace& t, Stage from, Stage to) {
  const std::uint64_t a = t.at(from);
  const std::uint64_t b = t.at(to);
  if (a == 0 || b == 0 || b < a) return 0;
  return b - a;
}

}  // namespace

Tracer::Tracer(Registry& registry, TraceOptions options,
               const std::string& prefix)
    : options_(options),
      queue_wait_(registry.histogram(prefix + "_queue_wait_us")),
      linger_(registry.histogram(prefix + "_linger_us")),
      compute_(registry.histogram(prefix + "_compute_us")),
      fulfil_(registry.histogram(prefix + "_fulfil_us")),
      write_stall_(registry.histogram(prefix + "_write_stall_us")),
      total_(registry.histogram(prefix + "_total_us")),
      sampled_(registry.counter(prefix + "_sampled_total")),
      ring_size_(options.slow_ring) {
  if (ring_size_ > 0)
    ring_ = std::make_unique<SeqlockSlot<SlowTrace>[]>(ring_size_);
}

void Tracer::finish(const Trace& t) {
  if (!t.active) return;
  sampled_.add(1);
  queue_wait_.record(delta(t, Stage::kEnqueued, Stage::kBatchClosed));
  linger_.record(delta(t, Stage::kBatchClosed, Stage::kEngineStart));
  // Exemplars on the stages operators chase tails in: a scrape's p99
  // compute/total bucket then names an actual trace id.
  compute_.record(delta(t, Stage::kEngineStart, Stage::kEngineEnd),
                  t.trace_id);
  fulfil_.record(delta(t, Stage::kEngineEnd, Stage::kFulfilled));
  // write_stall only exists for requests whose flush was observed.
  if (t.at(Stage::kFlushed) != 0)
    write_stall_.record(delta(t, Stage::kFulfilled, Stage::kFlushed));
  // Total: received -> last stamped stage.
  std::uint64_t last = 0;
  for (std::uint64_t s : t.stamps) last = std::max(last, s);
  const std::uint64_t first = t.at(Stage::kReceived);
  const std::uint64_t total_us = (first != 0 && last > first) ? last - first : 0;
  total_.record(total_us, t.trace_id);
  offer_slow(t, total_us);
}

void Tracer::offer_slow(const Trace& t, std::uint64_t total_us) {
  if (ring_size_ == 0 || total_us == 0) return;
  // Find the currently-cheapest slot; replace it if we are slower. The
  // scan is racy (slots change under us; one being written reads as
  // empty) — acceptable: the ring only has to be approximately the K
  // slowest.
  std::size_t victim = 0;
  std::uint64_t victim_total = ~std::uint64_t{0};
  for (std::size_t i = 0; i < ring_size_; ++i) {
    const std::optional<SlowTrace> cur = ring_[i].load();
    const std::uint64_t cur_total = cur ? cur->total_us : 0;
    if (cur_total < victim_total) {
      victim_total = cur_total;
      victim = i;
    }
  }
  if (total_us <= victim_total) return;
  // A writer already inside the victim wins; ours is dropped.
  ring_[victim].try_store(SlowTrace{.total_us = total_us,
                                    .trace_id = t.trace_id,
                                    .request_id = t.request_id,
                                    .tenant = t.tenant,
                                    .req_class = t.req_class,
                                    .stamps = t.stamps});
}

std::vector<SlowTrace> Tracer::slowest() const {
  std::vector<SlowTrace> out;
  out.reserve(ring_size_);
  for (std::size_t i = 0; i < ring_size_; ++i)
    if (const std::optional<SlowTrace> st = ring_[i].load()) out.push_back(*st);
  std::sort(out.begin(), out.end(), [](const SlowTrace& a, const SlowTrace& b) {
    return a.total_us > b.total_us;
  });
  return out;
}

}  // namespace cgs::obs
