// servebench: one process, one workload. Sets up the serving stack with
// every thread count pinned, drives it in a closed loop, checks every
// output, and prints one JSON line as its last line of output.
// servebench/run.py is the entry point (it builds this binary, gives each
// run fresh directories and takes the set-up median); README.md in this
// directory says why each workload, metric and pinned setting exists.
//
//   servebench --workload sign_hot|tenant_churn|gauss_bulk --seed N
//              --phase prime|setup|run|trace --cache-dir DIR --kv-dir DIR
//              [--seconds S] [--spans FILE]
//
// Phases:
//   prime  synthesizes the workload's netlists and recipes into the cache
//          directory, so every later set-up is a warm restart.
//   setup  sets the stack up, prints {"setup_s": ...} and exits.
//   run    sets up, warms up for 1 s, measures a `--seconds` window with
//          no tracing, prints the end-to-end metrics.
//   trace  sets up, then replays a fixed count of the same inputs through
//          successively deeper entry points (wire, Dispatcher::submit, the
//          service call, SamplerEngine::sample), keeps one span per call
//          in memory, writes them to --spans at exit and prints the
//          per-layer metrics.
//
// The benchmark only times calls into public functions from the outside;
// nothing inside the library is instrumented for it.

#include <unistd.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <future>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/json.h"
#include "engine/engine.h"
#include "engine/registry.h"
#include "engine/service.h"
#include "falcon/keygen.h"
#include "falcon/signing_service.h"
#include "falcon/verification_service.h"
#include "gauss/probmatrix.h"
#include "net/client.h"
#include "net/overload.h"
#include "net/server.h"
#include "prng/chacha20.h"
#include "prng/splitmix.h"
#include "serial/serial.h"
#include "serve/dispatcher.h"
#include "serve/router.h"
#include "serve/wire.h"
#include "stats/acceptance.h"

namespace {

using namespace cgs;
using Clock = std::chrono::steady_clock;

// Taken during static initialization: the closest the process can get to
// its own start, and the origin of setup_s.
const Clock::time_point g_process_start = Clock::now();

// ---------------------------------------------------------- pinned config
// Every thread count is explicit; nothing falls back to
// hardware_concurrency. README.md gives the measurements behind each.
constexpr int kReactors = 1;
constexpr int kLanesPerClass = 1;
constexpr int kSigningThreads = 1;
constexpr int kVerifyThreads = 1;
constexpr int kGaussThreads = 1;
constexpr int kVerifyStealWorkers = 0;
constexpr int kCompletionThreads = 1;
constexpr int kGeneratorThreads = 1;
constexpr int kConnections = 1;

// Closed loops. The wire workloads keep more requests in flight than the
// dispatcher's default max_batch (64), so every sign batch closes full
// instead of waiting out max_linger: batch boundaries, and with them cache
// lookups, follow the input rather than timer races (README.md has the
// measurements at 32 in flight).
constexpr int kHotInFlight = 128;
constexpr int kChurnInFlight = 192;
constexpr int kGaussInFlight = 4;
constexpr std::size_t kGaussSamples = 16384;  // per request
constexpr double kWarmupSeconds = 1.0;
constexpr double kRateBinSeconds = 0.5;
constexpr std::size_t kTailChunk = 1000;  // completions per p99 estimate

constexpr int kHotTenants = 2;
constexpr std::size_t kHotDegree = 512;
constexpr int kChurnTenants = 16;
constexpr std::size_t kChurnDegree = 256;
constexpr int kChurnBurst = 8;
constexpr std::size_t kChurnBudget = 4;  // ffLDL trees and NTT keys each
constexpr int kVerifyPool = 8;           // signatures per tenant, made at set-up
constexpr std::size_t kGaussCheckSamples = std::size_t{1} << 18;  // per target

struct GaussTarget {
  double sigma, center;
  const char* tag;
};
// sigma = 4.05 is the keygen width for Falcon-512; the second target is
// off-grid in both sigma and center.
constexpr std::array<GaussTarget, 2> kTargets{
    {{4.05, 0.0, "s4"}, {19.7, 0.37, "s19"}}};

enum class Workload { kSignHot, kTenantChurn, kGaussBulk };

struct Spec {
  Workload w;
  const char* name;
  std::size_t degree;
  int tenants;
  int in_flight;
  std::uint64_t trace_requests;  // inputs replayed at each trace depth
};

constexpr std::array<Spec, 3> kSpecs{{
    {Workload::kSignHot, "sign_hot", kHotDegree, kHotTenants, kHotInFlight,
     12000},
    {Workload::kTenantChurn, "tenant_churn", kChurnDegree, kChurnTenants,
     kChurnInFlight, 12000},
    {Workload::kGaussBulk, "gauss_bulk", 0, 0, kGaussInFlight, 1500},
}};

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
double us_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}
std::uint64_t ns_since_start(Clock::time_point t) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(t - g_process_start)
          .count());
}

/// Nearest-rank quantile of an unsorted sample (copied); 0 when empty.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double vm_hwm_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("VmHWM:", 0) == 0)
      return static_cast<double>(std::strtoull(line.c_str() + 6, nullptr, 10)) /
             1024.0;
  return 0;
}

std::string cpuinfo_field(const char* key) {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(key, 0) != 0) continue;
    const auto colon = line.find(':');
    return colon == std::string::npos ? "" : line.substr(colon + 2);
  }
  return "unknown";
}

/// The ISA flags that decide which kernels the host compiler emits.
std::string isa_flags() {
  const std::string flags = " " + cpuinfo_field("flags") + " ";
  std::string out;
  for (const char* f : {"sse4_2", "avx", "avx2", "bmi2", "avx512f", "avx512bw",
                        "avx512vl", "avx512_vbmi2"}) {
    if (flags.find(" " + std::string(f) + " ") == std::string::npos) continue;
    out += out.empty() ? "" : ",";
    out += f;
  }
  return out.empty() ? "none" : out;
}

// ---------------------------------------------------------------- inputs
// Everything the program under test receives is generated here from the
// seed: messages, tenant keys, burst order and gauss target order. Sizes
// and counts are functions of the request index alone, so another seed
// changes contents and order, never how much work a request is.

struct Op {
  enum Kind { kSign, kVerify, kGauss } kind = kSign;
  int tenant = 0;
  int pool = 0;             // verify: which set-up signature
  bool tampered = false;    // verify: expect reject
  bool bend_s1 = false;     // tampered verify: s1 bent, else message
  int target = 0;           // gauss: index into kTargets
};

class Inputs {
 public:
  Inputs(const Spec& spec, std::uint64_t seed) : spec_(spec), seed_(seed) {
    prng::SplitMix64Source rng(seed ^ 0xB0A5D1CEull);
    offset_ = static_cast<int>(rng.next_word() & 1);
    order_.resize(kChurnTenants);
    for (int i = 0; i < kChurnTenants; ++i) order_[static_cast<std::size_t>(i)] = i;
    for (std::size_t i = order_.size() - 1; i > 0; --i)
      std::swap(order_[i], order_[rng.next_word() % (i + 1)]);
  }

  Op op(std::uint64_t j) const {
    Op op;
    switch (spec_.w) {
      case Workload::kSignHot:
        op.tenant = static_cast<int>((j + static_cast<std::uint64_t>(offset_)) %
                                     kHotTenants);
        break;
      case Workload::kTenantChurn: {
        op.tenant = order_[(j / kChurnBurst) % kChurnTenants];
        if (j % 2 == 1) {  // sign and verify alternate within every burst
          const std::uint64_t v = j / 2;  // verify ordinal
          op.kind = Op::kVerify;
          op.pool = static_cast<int>(v % kVerifyPool);
          op.tampered = v % 4 == 3;
          op.bend_s1 = (v / 4) % 2 == 1;
        }
        break;
      }
      case Workload::kGaussBulk:
        op.kind = Op::kGauss;
        op.target = static_cast<int>((j + static_cast<std::uint64_t>(offset_)) % 2);
        break;
    }
    return op;
  }

  /// Sign message for request j: 32..64 bytes, the length a function of j
  /// alone, the first 8 bytes j itself (so every message is distinct).
  std::string message(std::uint64_t j) const {
    return bytes(1, j, 32 + (j * 7) % 33);
  }
  std::string pool_message(int tenant, int k) const {
    return bytes(2, static_cast<std::uint64_t>(tenant * kVerifyPool + k), 48);
  }
  std::uint64_t key_seed(int tenant) const {
    return seed_ * 0x9E3779B97F4A7C15ull + 0x4B3Full +
           static_cast<std::uint64_t>(tenant);
  }
  std::uint64_t seed() const { return seed_; }

 private:
  std::string bytes(std::uint64_t stream, std::uint64_t j,
                    std::size_t len) const {
    prng::SplitMix64Source rng(seed_ ^ (stream * 0xD1B54A32D192ED03ull) ^
                               (j * 0x9E3779B97F4A7C15ull));
    std::string m(len, '\0');
    for (std::size_t i = 0; i < len; ++i)
      m[i] = i < 8 ? static_cast<char>((j >> (8 * i)) & 0xff)
                   : static_cast<char>(rng.next_word() & 0xff);
    return m;
  }

  Spec spec_;
  std::uint64_t seed_;
  int offset_ = 0;
  std::vector<int> order_;
};

// ----------------------------------------------------------------- stack

engine::SamplerRegistry::Options registry_options(const std::string& dir) {
  engine::SamplerRegistry::Options o;
  o.cache_dir = dir;
  return o;
}

falcon::VerificationOptions checker_options() {
  falcon::VerificationOptions o;
  o.num_threads = 1;
  return o;
}

struct PoolItem {
  std::string message;
  falcon::Signature sig;
};

struct SetupTimes {
  double dispatcher_s = 0, keygen_s = 0, first_touch_s = 0, total_s = 0;
};

/// The serving stack of one process: registry, dispatcher, completion
/// pool, server, one client connection, the tenant keys and the verify
/// inputs. Construction is the whole set-up; setup_s ends when it returns.
class Stack {
 public:
  Stack(const Spec& spec, const Inputs& in, const std::string& cache_dir,
        const std::string& kv_dir)
      : spec_(spec), registry_(registry_options(cache_dir)), checker_(checker_options()) {
    auto t = Clock::now();
    const falcon::FalconParams params =
        spec.degree ? falcon::FalconParams::for_degree(spec.degree)
                    : falcon::FalconParams{};
    for (int i = 0; i < spec.tenants; ++i) {
      prng::ChaCha20Source rng(in.key_seed(i));
      keys_.push_back(falcon::keygen(params, rng));
    }
    times_.keygen_s = seconds_between(t, Clock::now());

    t = Clock::now();
    serve::DispatcherOptions o;
    o.sign_lanes = o.verify_lanes = o.gauss_lanes = kLanesPerClass;
    o.verify_steal_workers = kVerifyStealWorkers;
    o.signing.num_threads = kSigningThreads;
    o.verification.num_threads = kVerifyThreads;
    o.gaussian.num_threads = kGaussThreads;
    if (spec.w == Workload::kTenantChurn) {
      o.signing.tree_cache.max_entries = kChurnBudget;
      o.verification.key_cache.max_entries = kChurnBudget;
      o.key_state.dir = kv_dir;
    }
    dispatcher_ = std::make_unique<serve::Dispatcher>(registry_, o);
    times_.dispatcher_s = seconds_between(t, Clock::now());

    for (const auto& kp : keys_) key_ids_.push_back(dispatcher_->add_key(kp));
    completions_ = std::make_unique<serve::CompletionPool>(kCompletionThreads);
    net::ServerOptions so;
    so.reactors = kReactors;
    server_ = std::make_unique<net::Server>(
        [this](net::ResponseToken token, std::vector<std::uint8_t> frame) {
          serve::route_frame(*dispatcher_, *completions_, std::move(token),
                             std::move(frame));
        },
        so);
    client_ = std::make_unique<net::Client>(server_->port());

    t = Clock::now();
    first_touch(in);
    times_.first_touch_s = seconds_between(t, Clock::now());
    times_.total_s = seconds_between(g_process_start, Clock::now());
  }

  ~Stack() {
    client_.reset();
    server_->shutdown();
    dispatcher_->shutdown();
    completions_->join();  // parked tokens belong to the server
  }

  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;

  const Spec& spec() const { return spec_; }
  engine::SamplerRegistry& registry() { return registry_; }
  serve::Dispatcher& dispatcher() { return *dispatcher_; }
  net::Server& server() { return *server_; }
  net::Client& client() { return *client_; }
  const falcon::KeyPair& key(int tenant) const {
    return keys_[static_cast<std::size_t>(tenant)];
  }
  std::uint64_t key_id(int tenant) const {
    return key_ids_[static_cast<std::size_t>(tenant)];
  }
  const PoolItem& pool_item(int tenant, int k) const {
    return pool_[static_cast<std::size_t>(tenant)][static_cast<std::size_t>(k)];
  }
  const SetupTimes& times() const { return times_; }

  /// The signature a verify request carries (tampered or not) and the
  /// message it claims.
  PoolItem verify_input(const Op& op) const {
    PoolItem item = pool_item(op.tenant, op.pool);
    if (op.tampered) {
      if (op.bend_s1)
        item.sig.s1[static_cast<std::size_t>(op.pool) % item.sig.s1.size()] += 1;
      else
        item.message += " (tampered)";
    }
    return item;
  }

  bool signature_ok(int tenant, std::string_view message,
                    const falcon::Signature& sig) {
    const auto& kp = key(tenant);
    return checker_.verify(kp.h, kp.params, message, sig);
  }

 private:
  /// Touch every key and target once, so the timed window never builds
  /// key state or compiles a kernel. For tenant_churn this also signs the
  /// verify inputs, writing every tenant's tree and NTT key to the store.
  void first_touch(const Inputs& in) {
    if (spec_.w == Workload::kGaussBulk) {
      for (const auto& t : kTargets) {
        auto sub = dispatcher_->submit(
            serve::GaussRequest{.sigma = t.sigma, .center = t.center,
                                .n = kGaussSamples});
        if (!sub.ok() || sub.future.get().size() != kGaussSamples)
          throw std::runtime_error("gauss first touch failed");
      }
      return;
    }
    const int per_tenant = spec_.w == Workload::kTenantChurn ? kVerifyPool : 1;
    pool_.resize(keys_.size());
    for (int i = 0; i < spec_.tenants; ++i) {
      for (int k = 0; k < per_tenant; ++k) {
        PoolItem item{in.pool_message(i, k), {}};
        auto sub = dispatcher_->submit(
            serve::SignRequest{.key_id = key_id(i), .message = item.message});
        if (!sub.ok()) throw std::runtime_error("set-up sign not admitted");
        item.sig = sub.future.get();
        if (!signature_ok(i, item.message, item.sig))
          throw std::runtime_error("set-up signature does not verify");
        pool_[static_cast<std::size_t>(i)].push_back(std::move(item));
      }
      if (spec_.w != Workload::kTenantChurn) continue;
      const PoolItem& item = pool_item(i, 0);
      auto sub = dispatcher_->submit(serve::VerifyRequest{
          .key_id = key_id(i), .message = item.message, .sig = item.sig});
      if (!sub.ok() || !sub.future.get())
        throw std::runtime_error("set-up verify rejected a good signature");
    }
  }

  Spec spec_;
  engine::SamplerRegistry registry_;
  falcon::VerificationService checker_;  // checks returned signatures
  std::vector<falcon::KeyPair> keys_;
  std::vector<std::uint64_t> key_ids_;
  std::vector<std::vector<PoolItem>> pool_;
  std::unique_ptr<serve::Dispatcher> dispatcher_;
  std::unique_ptr<serve::CompletionPool> completions_;
  std::unique_ptr<net::Server> server_;
  std::unique_ptr<net::Client> client_;
  SetupTimes times_;
};

// ------------------------------------------------------------ recording

/// One timed call into a public entry point. Requests share `request`
/// across depths, which is how a deeper replay becomes a child span.
struct Span {
  const char* name;
  std::uint64_t id, parent, request;
  Clock::time_point start, end;
};

std::uint64_t span_id(int depth, std::uint64_t n) {
  return (static_cast<std::uint64_t>(depth) << 40) | n;
}

/// Closed-loop bookkeeping shared by the wire and in-process loops.
struct Recorder {
  Clock::time_point window_start = Clock::time_point::min();
  Clock::time_point window_end = Clock::time_point::max();
  // Trace mode: one span per completed request, and its duration by index.
  const char* span_name = nullptr;
  int depth = 0;
  bool top = false;  // the outermost replay: its spans have no parent
  std::vector<Span>* spans = nullptr;
  std::vector<double>* span_us = nullptr;

  std::vector<double> lat_us;     // completions inside the window
  std::vector<double> done_at_s;  // their offset from window_start
  std::vector<double> weight;     // operations each one completed
  std::uint64_t attempted = 0, failed = 0;

  void complete(std::uint64_t j, Clock::time_point sent, Clock::time_point done,
                double ops, bool ok) {
    ++attempted;
    if (!ok) ++failed;
    if (spans)
      spans->push_back({span_name, span_id(depth, j),
                        top ? 0 : span_id(depth - 1, j), j, sent, done});
    if (span_us) (*span_us)[j] = us_between(sent, done);
    if (sent < window_start || done > window_end) return;
    lat_us.push_back(us_between(sent, done));
    done_at_s.push_back(seconds_between(window_start, done));
    weight.push_back(ops);
  }

  /// Operations per second: the median over fixed sub-windows, so one
  /// stalled half-second moves the figure less than a plain mean would.
  /// Within a sub-window the rate is the work completed after its first
  /// completion over the time from that first completion to its last.
  double rate_per_s() const {
    struct Bin {
      double first = -1, last = 0, ops = 0;
    };
    const double len = seconds_between(window_start, window_end);
    const auto bins = std::max<std::size_t>(
        1, static_cast<std::size_t>(std::floor(len / kRateBinSeconds)));
    std::vector<Bin> bin(bins);
    for (std::size_t i = 0; i < done_at_s.size(); ++i) {  // completion order
      const auto b = static_cast<std::size_t>(done_at_s[i] / kRateBinSeconds);
      if (b >= bins) continue;
      if (bin[b].first < 0) {
        bin[b].first = done_at_s[i];
      } else {
        bin[b].ops += weight[i];
      }
      bin[b].last = done_at_s[i];
    }
    std::vector<double> rates;
    for (const Bin& b : bin)
      if (b.last > b.first && b.first >= 0)
        rates.push_back(b.ops / (b.last - b.first));
    std::printf("rate per %.1f s:", kRateBinSeconds);
    for (double r : rates) std::printf(" %.0f", r);
    std::printf("\n");
    return median(rates);
  }

  /// p99 of each run of kTailChunk consecutive completions (10 samples
  /// beyond each), median over the runs: one host stall moves one chunk's
  /// tail, not the figure.
  double chunked_p99_us() const {
    if (lat_us.size() < kTailChunk) {
      std::printf("warning: fewer than 10 samples beyond p99\n");
      return quantile(lat_us, 0.99);
    }
    std::vector<double> tails;
    for (std::size_t i = 0; i + kTailChunk <= lat_us.size(); i += kTailChunk)
      tails.push_back(quantile(
          std::vector<double>(lat_us.begin() + static_cast<std::ptrdiff_t>(i),
                              lat_us.begin() +
                                  static_cast<std::ptrdiff_t>(i + kTailChunk)),
          0.99));
    return median(tails);
  }
};

/// Keeps the first kGaussCheckSamples of each target for the
/// distribution check after the window.
struct GaussCheck {
  std::array<std::vector<std::int32_t>, 2> kept;
  std::array<std::uint64_t, 2> requests{};  // requests contributing
  void add(int target, const std::vector<std::int32_t>& v) {
    auto& k = kept[static_cast<std::size_t>(target)];
    if (k.size() >= kGaussCheckSamples) return;
    ++requests[static_cast<std::size_t>(target)];
    k.insert(k.end(), v.begin(),
             v.begin() + static_cast<std::ptrdiff_t>(std::min(
                             v.size(), kGaussCheckSamples - k.size())));
  }
  /// Failed requests: every contributing request of a target whose samples
  /// fail stats::accept_convolution.
  std::uint64_t failures(engine::GaussianService& svc) const {
    std::uint64_t failed = 0;
    for (std::size_t t = 0; t < kTargets.size(); ++t) {
      if (kept[t].empty()) continue;
      const auto recipe = svc.plan(kTargets[t].sigma, kTargets[t].center);
      const gauss::ProbMatrix base(recipe.base);
      const auto acc = stats::accept_convolution(kept[t], base, recipe);
      if (!acc.accepted()) {
        std::printf("gauss target %s failed acceptance: %s\n", kTargets[t].tag,
                    acc.describe().c_str());
        failed += requests[t];
      }
    }
    return failed;
  }
};

// ------------------------------------------------------------ load loops

/// Closed loop over the wire: `in_flight` requests pipelined on the one
/// connection; each response is checked, then the next request is sent.
/// Sends inputs [j, j_end) until `stop_at`, then drains.
void drive_wire(Stack& s, const Inputs& in, Recorder& rec, std::uint64_t j,
                std::uint64_t j_end, Clock::time_point stop_at,
                std::size_t in_flight) {
  std::unordered_map<std::uint64_t, Clock::time_point> sent;  // by request id
  net::Client& client = s.client();
  while (true) {
    while (sent.size() < in_flight && j < j_end && Clock::now() < stop_at) {
      const Op op = in.op(j);
      const std::uint64_t id = j + 1;
      std::vector<std::uint8_t> frame;
      if (op.kind == Op::kSign) {
        frame = serve::encode(serve::SignRequestFrame{
            .request_id = id, .key_id = s.key_id(op.tenant),
            .message = in.message(j)});
      } else {
        PoolItem item = s.verify_input(op);
        frame = serve::encode(serve::VerifyRequestFrame::make(
            id, s.key_id(op.tenant), std::move(item.message), item.sig));
      }
      sent.emplace(id, Clock::now());
      client.send(frame);
      ++j;
    }
    if (sent.empty()) return;
    const auto frame = client.read();
    const auto done = Clock::now();
    if (!frame) throw std::runtime_error("server closed the connection");
    std::uint64_t id = 0;
    bool ok = false;
    if (net::is_overloaded(*frame)) {
      id = net::decode_overloaded(*frame).request_id;
    } else if (serial::peek_tag(*frame) == serial::TypeTag::kSignResponse) {
      const auto r = serve::decode_sign_response(*frame);
      id = r.request_id;
      ok = r.ok && s.signature_ok(in.op(id - 1).tenant, in.message(id - 1),
                                  r.to_signature());
    } else {
      const auto r = serve::decode_verify_response(*frame);
      id = r.request_id;
      ok = r.ok && r.accepted == !in.op(id - 1).tampered;
    }
    const auto it = sent.find(id);
    if (it == sent.end()) throw std::runtime_error("response for unknown id");
    rec.complete(id - 1, it->second, done, 1.0, ok);
    sent.erase(it);
  }
}

/// Closed loop through Dispatcher::submit, the same inputs the wire
/// carries (gauss_bulk's only path: the wire has no gauss frame).
void drive_dispatcher(Stack& s, const Inputs& in, Recorder& rec,
                      std::uint64_t j, std::uint64_t j_end,
                      Clock::time_point stop_at, std::size_t in_flight,
                      GaussCheck* check) {
  struct Pending {
    std::uint64_t j;
    Op op;
    Clock::time_point sent;
    std::future<falcon::Signature> sig;
    std::future<bool> verdict;
    std::future<std::vector<std::int32_t>> samples;
    bool ready() const {
      using namespace std::chrono_literals;
      const auto st = sig.valid()       ? sig.wait_for(0s)
                      : verdict.valid() ? verdict.wait_for(0s)
                                        : samples.wait_for(0s);
      return st == std::future_status::ready;
    }
    void wait() const {
      if (sig.valid()) sig.wait();
      else if (verdict.valid()) verdict.wait();
      else samples.wait();
    }
  };
  serve::Dispatcher& d = s.dispatcher();
  std::vector<Pending> pending;
  const auto settle = [&](Pending& p) {
    const auto done = Clock::now();
    bool ok = false;
    double ops = 1.0;
    try {
      if (p.op.kind == Op::kSign) {
        ok = s.signature_ok(p.op.tenant, in.message(p.j), p.sig.get());
      } else if (p.op.kind == Op::kVerify) {
        ok = p.verdict.get() == !p.op.tampered;
      } else {
        const auto v = p.samples.get();
        ok = v.size() == kGaussSamples;
        ops = static_cast<double>(v.size());
        if (ok && check) check->add(p.op.target, v);
      }
    } catch (const std::exception&) {
      ok = false;
    }
    rec.complete(p.j, p.sent, done, ops, ok);
  };
  while (true) {
    while (pending.size() < in_flight && j < j_end && Clock::now() < stop_at) {
      Pending p{j, in.op(j), Clock::now(), {}, {}, {}};
      bool admitted = false;
      if (p.op.kind == Op::kSign) {
        auto sub = d.submit(serve::SignRequest{.key_id = s.key_id(p.op.tenant),
                                               .message = in.message(j)});
        admitted = sub.ok();
        p.sig = std::move(sub.future);
      } else if (p.op.kind == Op::kVerify) {
        PoolItem item = s.verify_input(p.op);
        auto sub = d.submit(serve::VerifyRequest{
            .key_id = s.key_id(p.op.tenant), .message = std::move(item.message),
            .sig = std::move(item.sig)});
        admitted = sub.ok();
        p.verdict = std::move(sub.future);
      } else {
        const GaussTarget& t = kTargets[static_cast<std::size_t>(p.op.target)];
        auto sub = d.submit(serve::GaussRequest{
            .sigma = t.sigma, .center = t.center, .n = kGaussSamples});
        admitted = sub.ok();
        p.samples = std::move(sub.future);
      }
      if (admitted) {
        pending.push_back(std::move(p));
      } else {
        rec.complete(j, p.sent, Clock::now(), 0.0, false);
      }
      ++j;
    }
    if (pending.empty()) return;
    pending.front().wait();
    for (auto it = pending.begin(); it != pending.end();) {
      if (it->ready()) {
        settle(*it);
        it = pending.erase(it);
      } else {
        ++it;
      }
    }
  }
}

// ------------------------------------------------------------------ phases

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics,
                  const std::vector<std::pair<const char*, double>>& extra = {}) {
  JsonWriter json;
  json.begin_object()
      .field("correct", correct)
      .field("attempted", static_cast<std::size_t>(attempted))
      .field("failed", static_cast<std::size_t>(failed));
  for (const auto& [k, v] : extra) json.field(k, v);
  json.begin_object("metrics");
  for (const Metric& m : metrics)
    json.begin_object(m.name.c_str())
        .field("value", std::isfinite(m.value) ? m.value : 0.0)
        .field("unit", m.unit)
        .end_object();
  json.end_object().end_object();
  std::printf("%s\n", json.str().c_str());
}

void prime(const Spec& spec, const std::string& cache_dir) {
  engine::SamplerRegistry registry(registry_options(cache_dir));
  const falcon::SigningOptions signing;  // what every Dispatcher builds
  (void)registry.get(gauss::GaussianParams::sigma_2(signing.precision));
  if (spec.w != Workload::kGaussBulk) return;
  const engine::ServiceOptions gaussian;
  for (const auto& t : kTargets) {
    const auto recipe = registry.get_recipe(t.sigma, t.center,
                                            gaussian.smoothing_eps,
                                            gaussian.base_precision);
    (void)registry.get(recipe.base);
  }
}

int run_timed(const Spec& spec, const Inputs& in, Stack& s, double seconds) {
  Recorder rec;
  const auto start = Clock::now();
  rec.window_start = start + std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double>(kWarmupSeconds));
  rec.window_end = rec.window_start +
                   std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(seconds));
  GaussCheck check;
  constexpr std::uint64_t kUnbounded = ~std::uint64_t{0} >> 1;
  const auto in_flight = static_cast<std::size_t>(spec.in_flight);
  if (spec.w == Workload::kGaussBulk)
    drive_dispatcher(s, in, rec, 0, kUnbounded, rec.window_end, in_flight,
                     &check);
  else
    drive_wire(s, in, rec, 0, kUnbounded, rec.window_end, in_flight);
  if (spec.w == Workload::kGaussBulk)
    rec.failed += check.failures(s.dispatcher().gaussian_service());

  const double rate = rec.rate_per_s();
  const double p50 = quantile(rec.lat_us, 0.50) / 1000.0;
  // p99 is printed, not reported: on a shared host its run-to-run spread
  // exceeds any bound a regression gate could use (README.md).
  std::printf("window: %zu requests timed, %llu attempted, %llu failed; "
              "p99 %.3f ms\n",
              rec.lat_us.size(),
              static_cast<unsigned long long>(rec.attempted),
              static_cast<unsigned long long>(rec.failed),
              rec.chunked_p99_us() / 1000.0);
  const bool correct = rec.failed == 0;
  print_result(correct, rec.attempted, rec.failed,
               {{"rate_per_s", rate, "1/s"},
                {"p50_ms", p50, "ms"},
                {"peak_rss_mb", vm_hwm_mb(), "MB"}},
               {{"setup_s", s.times().total_s}});
  return correct ? 0 : 1;
}

// ------------------------------------------------------------------ trace

/// Per-request durations at each depth, indexed by input j; NaN = absent.
struct Depths {
  explicit Depths(std::size_t n)
      : top(n, NAN), dispatcher(n, NAN), service(n, NAN), engine(n, 0.0) {}
  std::vector<double> top;         // wire round trip (wire workloads only)
  std::vector<double> dispatcher;  // Dispatcher::submit -> future ready
  std::vector<double> service;     // the service call that served j
  std::vector<double> engine;      // SamplerEngine::sample under it
};

std::vector<double> present(const std::vector<double>& v) {
  std::vector<double> out;
  for (double x : v)
    if (!std::isnan(x)) out.push_back(x);
  return out;
}

/// p50 over requests of (a[j] - b[j]).
double p50_diff(const std::vector<double>& a, const std::vector<double>& b) {
  std::vector<double> d;
  for (std::size_t j = 0; j < a.size(); ++j)
    if (!std::isnan(a[j]) && !std::isnan(b[j])) d.push_back(a[j] - b[j]);
  return median(d);
}

double hit_ratio(const obs::CacheStats& before, const obs::CacheStats& after,
                 double* lookups) {
  const double hits = static_cast<double>(after.hits - before.hits);
  const double misses = static_cast<double>(after.misses - before.misses);
  *lookups = hits + misses;
  return *lookups > 0 ? hits / *lookups : 0.0;
}

int run_trace(const Spec& spec, const Inputs& in, Stack& s,
              const std::string& spans_path) {
  const std::uint64_t n = spec.trace_requests;
  const bool wire = spec.w != Workload::kGaussBulk;
  serve::Dispatcher& d = s.dispatcher();
  std::vector<Span> spans;
  Depths depth(n);
  std::uint64_t attempted = 0, failed = 0;
  const auto tally = [&](const Recorder& r) {
    attempted += r.attempted;
    failed += r.failed;
  };
  const auto never = Clock::time_point::max();

  const auto full = static_cast<std::size_t>(spec.in_flight);
  const auto pass = [&](Recorder& r, bool at_wire, std::uint64_t first,
                        std::uint64_t last, std::size_t in_flight) {
    if (at_wire)
      drive_wire(s, in, r, first, last, never, in_flight);
    else
      drive_dispatcher(s, in, r, first, last, never, in_flight, nullptr);
  };

  // Warm-up on inputs past the replayed range.
  Recorder warm;
  pass(warm, wire, n, n + n / 4, full);

  // Untraced passes run before and after the traced one, so drift over
  // the run does not read as tracing overhead.
  Recorder untraced;
  pass(untraced, wire, 0, n, full);

  // The traced top level (the wire; for gauss_bulk the dispatcher), with
  // the layer counters read around it.
  const serve::MetricsSnapshot m0 = d.metrics();
  const net::ServerStats n0 = s.server().stats();
  Recorder traced_top;
  traced_top.spans = &spans;
  traced_top.top = true;
  traced_top.span_us = wire ? &depth.top : &depth.dispatcher;
  traced_top.span_name = wire ? "wire" : "dispatcher";
  traced_top.depth = wire ? 1 : 2;
  pass(traced_top, wire, 0, n, full);
  const serve::MetricsSnapshot m1 = d.metrics();
  const net::ServerStats n1 = s.server().stats();
  pass(untraced, wire, 0, n, full);

  // Depth 2: the same inputs through Dispatcher::submit.
  Recorder disp;
  if (wire) {
    disp.spans = &spans;
    disp.span_us = &depth.dispatcher;
    disp.span_name = "dispatcher";
    disp.depth = 2;
    pass(disp, false, 0, n, full);
  }

  // net's own cost: under a full closed loop both depths above are
  // queueing, and their difference is throughput noise. With one request
  // in flight, the wire span minus the dispatcher span is what net adds.
  const std::uint64_t n_alone = n / 10;
  std::vector<double> wire_alone(n_alone, NAN), disp_alone(n_alone, NAN);
  Recorder wire1, disp1;
  if (wire) {
    wire1.span_us = &wire_alone;
    disp1.span_us = &disp_alone;
    pass(wire1, true, 0, n_alone, 1);
    pass(disp1, false, 0, n_alone, 1);
  }
  for (const Recorder* r : {&warm, &untraced, &traced_top, &disp, &wire1, &disp1})
    tally(*r);

  // Depth 3: the service calls a lane would make, grouped at the observed
  // batch size. Depth 4: SamplerEngine::sample for the same work.
  using Lanes = std::vector<serve::LaneSnapshot>;
  using Field = std::uint64_t serve::LaneSnapshot::*;
  // Growth of one lane counter between the two snapshots around depth 1.
  const auto grew = [&](Lanes serve::MetricsSnapshot::* lanes, Field f) {
    std::uint64_t a = 0, b = 0;
    for (const auto& l : m0.*lanes) a += l.*f;
    for (const auto& l : m1.*lanes) b += l.*f;
    return static_cast<double>(b - a);
  };
  const auto occupancy = [&](Lanes serve::MetricsSnapshot::* lanes) {
    const double batches = grew(lanes, &serve::LaneSnapshot::batches);
    return batches > 0 ? grew(lanes, &serve::LaneSnapshot::batched) / batches
                       : 0.0;
  };
  const auto all_lanes = [&](Field f) {
    return grew(&serve::MetricsSnapshot::sign_lanes, f) +
           grew(&serve::MetricsSnapshot::verify_lanes, f) +
           grew(&serve::MetricsSnapshot::gauss_lanes, f);
  };
  const double occ_sign = occupancy(&serve::MetricsSnapshot::sign_lanes);
  const double occ_verify = occupancy(&serve::MetricsSnapshot::verify_lanes);
  const double occ_gauss = occupancy(&serve::MetricsSnapshot::gauss_lanes);

  std::uint64_t group_seq = 0;
  const auto group_span = [&](const char* name, std::uint64_t first_j,
                              Clock::time_point a, Clock::time_point b) {
    const std::uint64_t id = span_id(3, group_seq++);
    spans.push_back({name, id, span_id(2, first_j), first_j, a, b});
    return id;
  };
  struct SignGroup {
    std::vector<std::uint64_t> js;
    std::uint64_t span;
  };
  std::vector<SignGroup> sign_groups;
  falcon::SignStats sign_stats;
  double sign_us_total = 0, verify_us_total = 0;
  std::uint64_t sigs = 0, verifies = 0;
  std::array<double, 2> gauss_us{};
  std::array<std::uint64_t, 2> gauss_reqs{};

  if (wire) {
    const auto chunk = [](double occ) {
      return static_cast<std::size_t>(std::max(1.0, std::round(occ)));
    };
    // One service call per key group, each group the size the lanes
    // formed at depth 1 (requests per engine call), filled in input order.
    for (const Op::Kind kind : {Op::kSign, Op::kVerify}) {
      const std::size_t b = chunk(kind == Op::kSign ? occ_sign : occ_verify);
      const auto call = [&](int tenant, const std::vector<std::uint64_t>& js) {
        const falcon::KeyPair& kp = s.key(tenant);
        std::vector<std::string> msgs;
        std::vector<falcon::Signature> vsigs;
        for (std::uint64_t j : js) {
          if (kind == Op::kSign) {
            msgs.push_back(in.message(j));
          } else {
            PoolItem item = s.verify_input(in.op(j));
            msgs.push_back(std::move(item.message));
            vsigs.push_back(std::move(item.sig));
          }
        }
        const std::vector<std::string_view> views(msgs.begin(), msgs.end());
        const auto a = Clock::now();
        std::vector<falcon::Signature> out_sigs;
        std::vector<std::uint8_t> verdicts;
        if (kind == Op::kSign)
          out_sigs = d.signing_service().sign_many(kp, views, &sign_stats);
        else
          verdicts = d.verification_service().verify_many(kp.h, kp.params,
                                                          views, vsigs);
        const auto z = Clock::now();
        const double us = us_between(a, z);
        const std::uint64_t id = group_span(
            kind == Op::kSign ? "sign_many" : "verify_many", js.front(), a, z);
        for (std::size_t i = 0; i < js.size(); ++i) {
          depth.service[js[i]] = us;
          const bool ok = kind == Op::kSign
                              ? s.signature_ok(tenant, msgs[i], out_sigs[i])
                              : (verdicts[i] != 0) == !in.op(js[i]).tampered;
          ++attempted;
          failed += ok ? 0 : 1;
        }
        if (kind == Op::kSign) {
          sign_us_total += us;
          sigs += js.size();
          sign_groups.push_back({js, id});
        } else {
          verify_us_total += us;
          verifies += js.size();
        }
      };
      std::map<int, std::vector<std::uint64_t>> pending;  // by tenant
      for (std::uint64_t j = 0; j < n; ++j) {
        const Op op = in.op(j);
        if (op.kind != kind) continue;
        auto& js = pending[op.tenant];
        js.push_back(j);
        if (js.size() == b) {
          call(op.tenant, js);
          js.clear();
        }
      }
      for (const auto& [tenant, js] : pending)
        if (!js.empty()) call(tenant, js);
    }
  } else {
    std::vector<std::int32_t> out(kGaussSamples);
    for (std::uint64_t j = 0; j < n; ++j) {
      const int t = in.op(j).target;
      const GaussTarget& g = kTargets[static_cast<std::size_t>(t)];
      const auto a = Clock::now();
      d.gaussian_service().sample(g.sigma, g.center, out);
      const auto z = Clock::now();
      spans.push_back({"gaussian.sample", span_id(3, j), span_id(2, j), j, a, z});
      depth.service[j] = us_between(a, z);
      gauss_us[static_cast<std::size_t>(t)] += depth.service[j];
      ++gauss_reqs[static_cast<std::size_t>(t)];
    }
  }

  const double attempts_per_sig =
      sigs ? static_cast<double>(sign_stats.attempts) / static_cast<double>(sigs)
           : 0.0;
  const double base_per_sig =
      sigs ? static_cast<double>(sign_stats.base_samples) /
                 static_cast<double>(sigs)
           : 0.0;
  double engine_ns_per_sample = 0;
  std::string backend = "none";
  if (wire) {
    // The signing base (sigma = 2) on the backend signing selected, fed in
    // the same 1024-sample refills EngineBlockSource makes.
    const auto& so = d.signing_service().options();
    engine::EngineOptions eo;
    eo.backend = d.signing_service().backend();
    eo.num_threads = 1;
    eo.root_seed = in.seed();
    engine::SamplerEngine eng(
        s.registry().get(gauss::GaussianParams::sigma_2(so.precision)), eo);
    backend = engine::backend_name(eng.backend());
    std::vector<std::int32_t> block(so.block);
    double total_ns = 0, total_samples = 0;
    for (const SignGroup& g : sign_groups) {
      const auto blocks = std::max<std::size_t>(
          1, static_cast<std::size_t>(std::lround(
                 static_cast<double>(g.js.size()) * base_per_sig /
                 static_cast<double>(so.block))));
      const auto a = Clock::now();
      for (std::size_t b = 0; b < blocks; ++b) eng.sample(block);
      const auto z = Clock::now();
      spans.push_back({"engine.sample", span_id(4, g.span & 0xFFFFFFFFFFull),
                       g.span, g.js.front(), a, z});
      for (std::uint64_t j : g.js) depth.engine[j] = us_between(a, z);
      total_ns += 1000.0 * us_between(a, z);
      total_samples += static_cast<double>(blocks * so.block);
    }
    engine_ns_per_sample = total_samples > 0 ? total_ns / total_samples : 0;
  } else {
    // Each convolved sample draws two base samples (x1 + k * x2).
    std::vector<std::int32_t> buf(kGaussSamples);
    for (std::size_t t = 0; t < kTargets.size(); ++t) {
      const auto recipe = d.gaussian_service().plan(kTargets[t].sigma,
                                                    kTargets[t].center);
      engine::EngineOptions eo;
      eo.num_threads = 1;
      eo.root_seed = in.seed();
      engine::SamplerEngine eng(s.registry().get(recipe.base), eo);
      backend = engine::backend_name(eng.backend());
      for (std::uint64_t j = 0; j < n; ++j) {
        if (in.op(j).target != static_cast<int>(t)) continue;
        const auto a = Clock::now();
        eng.sample(buf);
        eng.sample(buf);
        const auto z = Clock::now();
        spans.push_back(
            {"engine.sample", span_id(4, j), span_id(3, j), j, a, z});
        depth.engine[j] = us_between(a, z);
      }
    }
  }

  // store.warm_start_us: one sign on the least recently used tenant (its
  // tree evicted under the budget) minus one on the tenant just used.
  double warm_start_us = 0;
  if (spec.w == Workload::kTenantChurn) {
    std::vector<double> diffs;
    const std::uint64_t last_burst = (n - 1) / kChurnBurst;
    for (int r = 1; r <= 2 * kChurnTenants; ++r) {
      const int tenant = in.op((last_burst + static_cast<std::uint64_t>(r)) *
                               kChurnBurst).tenant;
      const std::string msg = in.message(n + static_cast<std::uint64_t>(r));
      const std::string_view one[] = {msg};
      const auto a = Clock::now();
      (void)d.signing_service().sign_many(s.key(tenant), one);
      const auto b = Clock::now();
      (void)d.signing_service().sign_many(s.key(tenant), one);
      const auto c = Clock::now();
      diffs.push_back(us_between(a, b) - us_between(b, c));
    }
    warm_start_us = median(diffs);
  }

  // Self times, per request, then their medians.
  const std::vector<double>& top = wire ? depth.top : depth.dispatcher;
  const double net_self_ms =
      wire ? p50_diff(wire_alone, disp_alone) / 1000 : 0.0;
  const double wait_ms = p50_diff(depth.dispatcher, depth.service) / 1000;
  const double mid_ms = p50_diff(depth.service, depth.engine) / 1000;
  const double engine_ms = median(present(depth.engine)) / 1000;
  const double top_p50_ms = median(present(top)) / 1000;
  const double unattributed_ms =
      top_p50_ms - (net_self_ms + wait_ms + mid_ms + engine_ms);
  // Traced against untraced: the same inputs at the same depth.
  const double untraced_p50_ms = quantile(untraced.lat_us, 0.5) / 1000;

  const double sign_us = sigs ? sign_us_total / static_cast<double>(sigs) : 0;
  const double ops_top = static_cast<double>(n);
  double tree_lookups = 0, ntt_lookups = 0;
  const double tree_ratio =
      hit_ratio(m0.ffldl_tree_cache, m1.ffldl_tree_cache, &tree_lookups);
  const double ntt_ratio = hit_ratio(m0.ntt_key_cache, m1.ntt_key_cache,
                                     &ntt_lookups);
  const auto delta = [](std::uint64_t a, std::uint64_t b) {
    return static_cast<double>(b - a);
  };
  const serve::MetricsSnapshot m_end = d.metrics();
  const double resident_mb =
      static_cast<double>(m_end.ffldl_tree_cache.bytes +
                          m_end.ntt_key_cache.bytes) /
      (1024.0 * 1024.0);
  const double verify_us =
      verifies ? verify_us_total / static_cast<double>(verifies) : 0;
  const auto per_sample_ns = [&](std::size_t t) {
    return gauss_reqs[t] ? 1000.0 * gauss_us[t] /
                               static_cast<double>(gauss_reqs[t] * kGaussSamples)
                         : 0.0;
  };

  std::printf("trace: %llu inputs per depth, engine backend %s, batch "
              "sign %.2f verify %.2f gauss %.2f\n",
              static_cast<unsigned long long>(n), backend.c_str(), occ_sign,
              occ_verify, occ_gauss);

  // Spans are kept in memory and written out only now, at exit.
  if (!spans_path.empty()) {
    std::ofstream out(spans_path);
    for (const Span& sp : spans)
      out << "{\"name\": \"" << sp.name << "\", \"id\": " << sp.id
          << ", \"parent\": " << sp.parent << ", \"request\": " << sp.request
          << ", \"start_ns\": " << ns_since_start(sp.start)
          << ", \"end_ns\": " << ns_since_start(sp.end) << "}\n";
  }

  const SetupTimes& st = s.times();
  const bool correct = failed == 0;
  print_result(
      correct, attempted, failed,
      {
          {"net.self_ms", net_self_ms, "ms"},
          {"net.bytes_per_op",
           wire ? (delta(n0.bytes_read, n1.bytes_read) +
                   delta(n0.bytes_written, n1.bytes_written)) / ops_top
                : 0.0,
           "bytes"},
          {"serve.wait_ms", wait_ms, "ms"},
          {"serve.occupancy.sign", occ_sign, "requests"},
          {"serve.occupancy.verify", occ_verify, "requests"},
          {"serve.occupancy.gauss", occ_gauss, "requests"},
          {"serve.rejected", all_lanes(&serve::LaneSnapshot::rejected),
           "count"},
          {"serve.expired", all_lanes(&serve::LaneSnapshot::expired), "count"},
          {"falcon.sign_us", sign_us, "us"},
          {"falcon.verify_us", verify_us, "us"},
          {"falcon.attempts_per_sig", attempts_per_sig, "count"},
          {"falcon.base_samples_per_sig", base_per_sig, "count"},
          {"engine.ns_per_sample", engine_ns_per_sample, "ns"},
          {"engine.sign_share",
           sign_us > 0 ? base_per_sig * engine_ns_per_sample / (1000 * sign_us)
                       : 0.0,
           "ratio"},
          {"gauss.ns_per_sample.s4", per_sample_ns(0), "ns"},
          {"gauss.ns_per_sample.s19", per_sample_ns(1), "ns"},
          {"store.tree_hit_ratio", tree_ratio, "ratio"},
          {"store.tree_lookups", tree_lookups, "count"},
          {"store.ntt_hit_ratio", ntt_ratio, "ratio"},
          {"store.ntt_lookups", ntt_lookups, "count"},
          {"store.warm_starts",
           delta(m0.ffldl_tree_cache.warm_starts + m0.ntt_key_cache.warm_starts,
                 m1.ffldl_tree_cache.warm_starts + m1.ntt_key_cache.warm_starts),
           "count"},
          {"store.evictions",
           delta(m0.ffldl_tree_cache.evictions + m0.ntt_key_cache.evictions,
                 m1.ffldl_tree_cache.evictions + m1.ntt_key_cache.evictions),
           "count"},
          {"store.resident_mb", resident_mb, "MB"},
          {"store.warm_start_us", warm_start_us, "us"},
          {"setup.dispatcher_s", st.dispatcher_s, "s"},
          {"setup.keygen_s", st.keygen_s, "s"},
          {"setup.first_touch_s", st.first_touch_s, "s"},
          {"trace.unattributed_ms", unattributed_ms, "ms"},
          {"trace.traced_p50_ms", top_p50_ms, "ms"},
          {"trace.traced_p99_ms", traced_top.chunked_p99_us() / 1000, "ms"},
          {"trace.untraced_p50_ms", untraced_p50_ms, "ms"},
      });
  return correct ? 0 : 1;
}

// ------------------------------------------------------------------ main

struct Args {
  std::string workload, phase, cache_dir, kv_dir, spans;
  std::uint64_t seed = 1;
  double seconds = 10;
};

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") a.workload = v;
    else if (k == "--phase") a.phase = v;
    else if (k == "--cache-dir") a.cache_dir = v;
    else if (k == "--kv-dir") a.kv_dir = v;
    else if (k == "--spans") a.spans = v;
    else if (k == "--seed") a.seed = std::strtoull(v.c_str(), nullptr, 10);
    else if (k == "--seconds") a.seconds = std::strtod(v.c_str(), nullptr);
    else throw std::runtime_error("unknown argument " + k);
  }
  return a;
}

int run(int argc, char** argv) {
  const Args args = parse(argc, argv);
  const Spec* spec = nullptr;
  for (const Spec& s : kSpecs)
    if (args.workload == s.name) spec = &s;
  if (spec == nullptr) throw std::runtime_error("unknown workload");
  if (args.cache_dir.empty() || args.kv_dir.empty())
    throw std::runtime_error("--cache-dir and --kv-dir are required");
  if (!(args.seconds >= 1)) throw std::runtime_error("--seconds must be >= 1");

  const long nproc = ::sysconf(_SC_NPROCESSORS_ONLN);
  if (kGeneratorThreads > nproc || kConnections > nproc)
    throw std::runtime_error("more generator threads or connections than cpus");

  if (args.phase == "prime") {
    prime(*spec, args.cache_dir);
    std::printf("{\"primed\": true}\n");
    return 0;
  }
  std::printf("host: cpu \"%s\", nproc %ld, isa %s\n",
              cpuinfo_field("model name").c_str(), nproc, isa_flags().c_str());
  std::printf("config: workload %s, seed %llu, reactors %d, lanes/class %d, "
              "signing threads %d, verify threads %d, gauss threads %d, "
              "verify steal workers %d, completion threads %d, generator "
              "threads %d, connections %d, in flight %d\n",
              spec->name, static_cast<unsigned long long>(args.seed), kReactors,
              kLanesPerClass, kSigningThreads, kVerifyThreads, kGaussThreads,
              kVerifyStealWorkers, kCompletionThreads, kGeneratorThreads,
              kConnections, spec->in_flight);

  const Inputs in(*spec, args.seed);
  Stack stack(*spec, in, args.cache_dir, args.kv_dir);
  std::printf("setup: %.3f s (dispatcher %.3f, keygen %.3f, first touch "
              "%.3f); signing backend %s\n",
              stack.times().total_s, stack.times().dispatcher_s,
              stack.times().keygen_s, stack.times().first_touch_s,
              engine::backend_name(
                  stack.dispatcher().signing_service().backend()));
  if (args.phase == "setup") {
    std::printf("{\"setup_s\": %.9g}\n", stack.times().total_s);
    return 0;
  }
  if (args.phase == "run") return run_timed(*spec, in, stack, args.seconds);
  if (args.phase == "trace") return run_trace(*spec, in, stack, args.spans);
  throw std::runtime_error("unknown phase " + args.phase);
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "servebench: %s\n", e.what());
    return 2;
  }
}
