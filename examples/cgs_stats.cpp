// Scrape a running protocol server's metrics over the wire: connect,
// send one kStatsRequest, print the exposition document. The default
// output is the Prometheus text format (pipe it straight into a
// file_sd-style bridge); --json asks the server for the JSON summary
// instead.
//
// --check turns the tool into a smoke probe: after printing, it
// asserts the exposition actually carries the instrumentation a
// healthy server must expose — the per-stage trace histograms
// (queue-wait / linger / compute), the open-connections gauge, and
// hit/miss counters for the per-key caches and the kernel cache — and
// exits nonzero when anything is missing. On the Prometheus format it additionally
// (a) re-adds every labeled cgs_tenant_*_requests_total slice and
// requires the sum to equal the unlabeled global exactly (the
// attribution invariant the bounded-cardinality families promise), and
// (b) sends a kHealthRequest and requires a ready verdict with at
// least one component. The ctest scrape smoke runs exactly this.
//
// Usage: cgs_stats <port> [--json] [--check]

#include <cstdio>
#include <cstdlib>
#include <chrono>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "net/client.h"
#include "serve/wire.h"

namespace {

using namespace cgs;

/// The metric names a live scrape must contain for --check to pass.
/// Kept to names that exist in both exposition formats.
const char* const kRequiredMetrics[] = {
    // Per-stage request tracing (Dispatcher lifecycle histograms).
    "cgs_trace_queue_wait_us",
    "cgs_trace_linger_us",
    "cgs_trace_compute_us",
    // The one submit -> fulfil latency series per request class (every
    // completion records there once; there is no per-lane copy).
    "cgs_serve_sign_latency_us",
    // Transport health.
    "cgs_net_connections_open",
    // All three per-key caches, hits and misses.
    "cgs_cache_ffldl_tree_hits_total",
    "cgs_cache_ffldl_tree_misses_total",
    "cgs_cache_ntt_key_hits_total",
    "cgs_cache_ntt_key_misses_total",
    "cgs_cache_recipe_hits_total",
    "cgs_cache_recipe_misses_total",
    // Host-compiled kernels: a warm start is a load from the kernel cache.
    "cgs_cache_kernel_hits_total",
    "cgs_cache_kernel_misses_total",
    "cgs_cache_kernel_warm_starts_total",
    // Bounded-cache lifecycle: evictions under budget pressure and
    // warm starts from the persistent key-state store.
    "cgs_cache_ffldl_tree_evictions_total",
    "cgs_cache_ffldl_tree_warm_starts_total",
    "cgs_cache_ntt_key_evictions_total",
    "cgs_cache_ntt_key_warm_starts_total",
    "cgs_cache_recipe_evictions_total",
    "cgs_cache_recipe_warm_starts_total",
};

int check_exposition(const std::string& text, serve::StatsFormat format) {
  int missing = 0;
  if (text.empty()) {
    std::fprintf(stderr, "cgs_stats: check failed: empty exposition\n");
    return 1;
  }
  if (format == serve::StatsFormat::kPrometheus &&
      text.find("# TYPE") == std::string::npos) {
    std::fprintf(stderr, "cgs_stats: check failed: no # TYPE lines\n");
    ++missing;
  }
  for (const char* name : kRequiredMetrics) {
    if (text.find(name) == std::string::npos) {
      std::fprintf(stderr, "cgs_stats: check failed: missing metric %s\n",
                   name);
      ++missing;
    }
  }
  return missing;
}

/// The per-tenant attribution invariant: every labeled
/// cgs_tenant_*_requests_total slice (including tenant="other") re-added
/// must equal its unlabeled global exactly. Counts are integers, so the
/// doubles compare exactly. Prometheus text only — the JSON summary
/// nests labels differently.
int check_labeled_sums(const std::string& text) {
  struct Family {
    double global = 0;
    double labeled = 0;
    bool has_global = false;
    int series = 0;
  };
  std::map<std::string, Family> families;
  constexpr const char* kPrefix = "cgs_tenant_";
  constexpr const char* kSuffix = "_requests_total";
  const std::size_t suffix_len = std::strlen(kSuffix);
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t eol = text.find('\n', pos);
    if (eol == std::string::npos) eol = text.size();
    const std::string line = text.substr(pos, eol - pos);
    pos = eol + 1;
    if (line.empty() || line[0] == '#') continue;
    const std::size_t name_end = line.find_first_of("{ ");
    if (name_end == std::string::npos) continue;
    const std::string name = line.substr(0, name_end);
    if (name.rfind(kPrefix, 0) != 0 || name.size() < suffix_len ||
        name.compare(name.size() - suffix_len, suffix_len, kSuffix) != 0)
      continue;
    const std::size_t sp = line.rfind(' ');
    if (sp == std::string::npos) continue;
    const double value = std::strtod(line.c_str() + sp + 1, nullptr);
    Family& fam = families[name];
    if (line[name_end] == '{') {
      fam.labeled += value;
      ++fam.series;
    } else {
      fam.global = value;
      fam.has_global = true;
    }
  }

  int failures = 0;
  int labeled_families = 0;
  for (const auto& [name, fam] : families) {
    if (fam.series == 0) continue;  // family registered but untouched
    ++labeled_families;
    if (!fam.has_global) {
      std::fprintf(stderr,
                   "cgs_stats: check failed: %s has labeled series but no "
                   "global sample\n",
                   name.c_str());
      ++failures;
    } else if (fam.labeled != fam.global) {
      std::fprintf(stderr,
                   "cgs_stats: check failed: %s labeled sum %.0f != global "
                   "%.0f (%d series)\n",
                   name.c_str(), fam.labeled, fam.global, fam.series);
      ++failures;
    }
  }
  if (labeled_families == 0) {
    std::fprintf(stderr,
                 "cgs_stats: check failed: no labeled cgs_tenant_* series in "
                 "exposition\n");
    ++failures;
  } else if (failures == 0) {
    std::fprintf(stderr,
                 "cgs_stats: labeled sums match globals (%d families)\n",
                 labeled_families);
  }
  return failures;
}

/// One kHealthRequest round trip on the already-open scrape connection:
/// a healthy server answers ok with a non-empty component list.
int check_health(net::Client& client) {
  serve::HealthRequestFrame req;
  req.request_id = 2;
  const auto health = serve::decode<serve::HealthResponseFrame>(
      client.request(serve::encode(req)));
  if (!health.ok) {
    std::fprintf(stderr, "cgs_stats: check failed: health error: %s\n",
                 health.error.c_str());
    return 1;
  }
  if (health.components.empty()) {
    std::fprintf(stderr,
                 "cgs_stats: check failed: health response has no "
                 "components\n");
    return 1;
  }
  for (const auto& c : health.components)
    std::fprintf(stderr, "cgs_stats: health %-16s %s (%.4f) %s\n",
                 c.name.c_str(), c.ok ? "ok" : "NOT READY", c.value,
                 c.detail.c_str());
  if (!health.healthy) {
    std::fprintf(stderr, "cgs_stats: check failed: server reports unhealthy\n");
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: cgs_stats <port> [--json] [--check]\n");
    return 2;
  }
  const std::uint16_t port =
      static_cast<std::uint16_t>(std::strtoul(argv[1], nullptr, 10));
  serve::StatsFormat format = serve::StatsFormat::kPrometheus;
  bool check = false;
  for (int i = 2; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) {
      format = serve::StatsFormat::kJson;
    } else if (std::strcmp(argv[i], "--check") == 0) {
      check = true;
    } else {
      std::fprintf(stderr, "cgs_stats: unknown flag %s\n", argv[i]);
      return 2;
    }
  }

  try {
    net::ClientOptions copts;
    copts.connect_timeout = std::chrono::milliseconds(2000);
    copts.read_timeout = std::chrono::milliseconds(5000);
    net::Client client(port, copts);
    serve::StatsRequestFrame req;
    req.request_id = 1;
    req.format = format;
    // request() is the whole scrape: one frame out, one back, with a
    // typed ClientError (connect refusal, deadline, overload shed) on
    // anything but a proper response.
    const auto resp = serve::decode<serve::StatsResponseFrame>(
        client.request(serve::encode(req)));
    if (!resp.ok) {
      std::fprintf(stderr, "cgs_stats: server error: %s\n",
                   resp.error.c_str());
      return 1;
    }
    std::fputs(resp.text.c_str(), stdout);
    if (!resp.text.empty() && resp.text.back() != '\n') std::fputc('\n', stdout);
    if (check) {
      int failures = check_exposition(resp.text, resp.format);
      if (resp.format == serve::StatsFormat::kPrometheus)
        failures += check_labeled_sums(resp.text);
      failures += check_health(client);
      if (failures != 0) return 1;
      std::fprintf(stderr,
                   "cgs_stats: check passed (%zu required metrics, labeled "
                   "sums, health)\n",
                   sizeof(kRequiredMetrics) / sizeof(kRequiredMetrics[0]));
    }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "cgs_stats: %s\n", e.what());
    return 1;
  }
}
