// The full signature lifecycle over a real socket: the multi-reactor
// server (net::Server) multiplexing every wire request type into the
// Dispatcher's lanes through the shared serve::route_frame switch, and
// concurrent pipelining clients (net::Client) that each onboard a tenant
// key through the keygen lane, sign a burst of messages, then ask the
// verify lane for verdicts — one good and one tampered verify per
// signature, expecting accept and reject respectively. Exits nonzero on
// any failure (this example doubles as a ctest smoke test for the
// mixed-traffic path, including shutdown drain).
//
// The dispatcher and the server share one obs::Registry, so a
// kStatsRequest frame (or the cgs_stats CLI) sees serving-lane,
// transport and cache metrics in a single exposition. After the client
// storm the server prints that exposition — before shutdown, because
// shutdown unregisters the callback-backed gauges (queue depths, open
// connections, cache bridges).
//
// Usage: protocol_server [degree] [clients] [requests_per_client]
//                        [--stats-exec <path-to-cgs_stats>]
//                        [--stats-interval <seconds>]
//
// --stats-exec runs `<path> <port> --check` against the live server and
// fails the run unless the scrape exits 0 — the ctest scrape smoke.
// --stats-interval dumps the Prometheus exposition to stderr every
// <seconds> while serving (the poor operator's sidecar scraper).

#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "engine/registry.h"
#include "falcon/verify.h"
#include "net/client.h"
#include "net/server.h"
#include "obs/export.h"
#include "obs/registry.h"
#include "serve/dispatcher.h"
#include "serve/router.h"
#include "serve/wire.h"

namespace {

using namespace cgs;

struct ClientOutcome {
  bool keygen_ok = false;
  bool health_ok = false;
  int signed_ok = 0;
  int local_verified = 0;
  int good_accepted = 0;
  int tampered_rejected = 0;
  int protocol_errors = 0;
};

// keygen -> pipelined signs -> local verify -> pipelined verifies (one
// good, one tampered per signature) -> half-close and drain. Transport
// failures (timeouts, resets) throw ClientError; the caller counts them.
ClientOutcome run_client(std::uint16_t port, std::size_t degree,
                         int client_idx, int requests) {
  ClientOutcome outcome;
  net::Client client(port);

  serve::KeygenRequestFrame kg;
  kg.request_id = 1;
  kg.degree = degree;
  kg.seed = 0xC0FFEE00u + static_cast<std::uint64_t>(client_idx);
  const auto key = serve::decode<serve::KeygenResponseFrame>(
      client.request(serve::encode(kg)));
  if (!key.ok) {
    std::fprintf(stderr, "client %d: keygen failed: %s\n", client_idx,
                 key.error.c_str());
    return outcome;
  }
  outcome.keygen_ok = true;
  const falcon::Verifier verifier(key.h,
                                  falcon::FalconParams::for_degree(degree));

  // One health probe per client: answered inline by the router (never
  // queued), and a freshly keyed, lightly loaded server must be ready.
  serve::HealthRequestFrame hq;
  hq.request_id = 2;
  const auto health = serve::decode<serve::HealthResponseFrame>(
      client.request(serve::encode(hq)));
  outcome.health_ok = health.ok && health.healthy && !health.components.empty();
  if (!outcome.health_ok)
    std::fprintf(stderr, "client %d: health probe not ready (%zu components)\n",
                 client_idx, health.components.size());

  // Pipeline the whole sign burst, then read the responses back.
  std::vector<std::string> messages;
  for (int i = 0; i < requests; ++i) {
    messages.push_back("client " + std::to_string(client_idx) + " message " +
                       std::to_string(i));
    serve::SignRequestFrame req;
    req.request_id = 100 + static_cast<std::uint64_t>(i);
    req.key_id = key.key_id;
    req.message = messages.back();
    // Exercise the optional wire trace context on a slice of the burst:
    // a caller-supplied id forces sampling, so these requests land in the
    // slow ring / exemplars tagged with an id we chose client-side.
    if (i % 4 == 0)
      req.trace_id = (static_cast<std::uint64_t>(client_idx + 1) << 32) |
                     static_cast<std::uint64_t>(i + 1);
    client.send(serve::encode(req));
  }
  std::map<std::uint64_t, falcon::Signature> sigs;
  for (int i = 0; i < requests; ++i) {
    const auto frame = client.read();
    if (!frame) return outcome;
    const auto resp = serve::decode<serve::SignResponseFrame>(*frame);
    if (!resp.ok) {
      ++outcome.protocol_errors;
      continue;
    }
    ++outcome.signed_ok;
    falcon::Signature sig = resp.to_signature();
    if (verifier.verify(messages[resp.request_id - 100], sig))
      ++outcome.local_verified;
    sigs.emplace(resp.request_id - 100, std::move(sig));
  }

  // Two verify requests per signature: the genuine article and a tamper
  // (alternating message and s1 tampering), pipelined together.
  int expect_good = 0, expect_tampered = 0;
  for (const auto& [idx, sig] : sigs) {
    client.send(serve::encode(serve::VerifyRequestFrame::make(
        200 + idx, key.key_id, messages[idx], sig)));
    ++expect_good;
    if (idx % 2 == 0) {
      client.send(serve::encode(serve::VerifyRequestFrame::make(
          300 + idx, key.key_id, messages[idx] + " (tampered)", sig)));
    } else {
      falcon::Signature bent = sig;
      bent.s1[static_cast<std::size_t>(idx) % bent.s1.size()] += 1;
      client.send(serve::encode(serve::VerifyRequestFrame::make(
          300 + idx, key.key_id, messages[idx], bent)));
    }
    ++expect_tampered;
  }
  client.half_close();
  while (auto frame = client.read()) {
    const auto resp = serve::decode<serve::VerifyResponseFrame>(*frame);
    if (!resp.ok) {
      ++outcome.protocol_errors;
      continue;
    }
    if (resp.request_id >= 300) {
      if (!resp.accepted) ++outcome.tampered_rejected;
    } else {
      if (resp.accepted) ++outcome.good_accepted;
    }
  }
  if (outcome.good_accepted != expect_good ||
      outcome.tampered_rejected != expect_tampered)
    std::fprintf(stderr,
                 "client %d: verdicts off: %d/%d good accepted, %d/%d "
                 "tampered rejected\n",
                 client_idx, outcome.good_accepted, expect_good,
                 outcome.tampered_rejected, expect_tampered);
  return outcome;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<const char*> positional;
  const char* stats_exec = nullptr;
  long stats_interval_s = 0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--stats-exec") == 0 && i + 1 < argc) {
      stats_exec = argv[++i];
    } else if (std::strcmp(argv[i], "--stats-interval") == 0 && i + 1 < argc) {
      stats_interval_s = std::strtol(argv[++i], nullptr, 10);
    } else {
      positional.push_back(argv[i]);
    }
  }
  const std::size_t degree =
      positional.size() > 0 ? std::strtoull(positional[0], nullptr, 10) : 128;
  const int num_clients = positional.size() > 1 ? std::atoi(positional[1]) : 4;
  const int per_client = positional.size() > 2 ? std::atoi(positional[2]) : 6;

  // One registry for everything: serving lanes, tracing, caches and the
  // transport all expose through it, so one scrape sees the whole stack.
  obs::Registry registry;

  serve::DispatcherOptions opts;
  opts.max_batch = 32;
  opts.max_linger_us = 2000;
  opts.sign_lanes = 2;
  opts.verify_lanes = 2;
  opts.signing.root_seed = 0x5E7F0;
  opts.obs_registry = &registry;
  serve::Dispatcher dispatcher(engine::SamplerRegistry::global(), opts);

  serve::CompletionPool pool(2);
  net::ServerOptions sopts;
  sopts.registry = &registry;
  net::Server server(
      [&](net::ResponseToken token, std::vector<std::uint8_t> frame) {
        serve::route_frame(dispatcher, pool, std::move(token),
                           std::move(frame));
      },
      sopts);
  std::printf("== serving full protocol on 127.0.0.1:%u "
              "(%d reactors%s; %d clients x %d requests, N = %zu) ==\n",
              server.port(), server.reactors(),
              server.reuse_port() ? ", SO_REUSEPORT" : ", hand-off",
              num_clients, per_client, degree);

  // --stats-interval: periodic exposition dumps to stderr while serving —
  // what an operator tailing the box would see between scrapes. Runs for
  // the whole storm and stops before shutdown (same callback-lifetime
  // rule as the final dump below).
  std::atomic<bool> stats_dumping{stats_interval_s > 0};
  std::thread stats_dumper;
  if (stats_interval_s > 0) {
    stats_dumper = std::thread([&] {
      auto next = std::chrono::steady_clock::now() +
                  std::chrono::seconds(stats_interval_s);
      while (stats_dumping.load(std::memory_order_relaxed)) {
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
        if (std::chrono::steady_clock::now() < next) continue;
        next += std::chrono::seconds(stats_interval_s);
        std::fprintf(stderr, "-- periodic stats --\n%s",
                     obs::prometheus_text(registry).c_str());
      }
    });
  }

  std::vector<std::thread> clients;
  std::mutex outcomes_mu;
  std::vector<ClientOutcome> outcomes;
  for (int c = 0; c < num_clients; ++c) {
    clients.emplace_back([&, c] {
      ClientOutcome outcome;
      try {
        outcome = run_client(server.port(), degree, c, per_client);
      } catch (const std::exception& e) {
        // An unexpected frame or a torn stream is a failed client, not a
        // process abort: the final checks report it.
        std::fprintf(stderr, "client %d: protocol error: %s\n", c, e.what());
        ++outcome.protocol_errors;
      }
      std::lock_guard<std::mutex> lock(outcomes_mu);
      outcomes.push_back(outcome);
    });
  }
  for (auto& t : clients) t.join();

  // Live scrape against the still-serving socket: fork/exec the cgs_stats
  // probe in --check mode and require a clean exit. Runs after the storm
  // so lane, trace and cache counters are populated.
  bool stats_ok = true;
  if (stats_exec != nullptr) {
    const std::string port_str = std::to_string(server.port());
    const pid_t pid = ::fork();
    if (pid == 0) {
      ::execl(stats_exec, stats_exec, port_str.c_str(), "--check",
              static_cast<char*>(nullptr));
      std::fprintf(stderr, "protocol_server: exec %s failed\n", stats_exec);
      std::_Exit(127);
    }
    int wstatus = 0;
    if (pid < 0 || ::waitpid(pid, &wstatus, 0) != pid ||
        !WIFEXITED(wstatus) || WEXITSTATUS(wstatus) != 0) {
      std::fprintf(stderr, "protocol_server: stats scrape failed\n");
      stats_ok = false;
    }
  }

  if (stats_dumper.joinable()) {
    stats_dumping.store(false, std::memory_order_relaxed);
    stats_dumper.join();
  }

  // The exposition must print before shutdown: shutting down unregisters
  // the callback-backed instruments (queue depths, cache bridges, open
  // connections), which would otherwise vanish from the dump.
  std::printf("\n== final metrics (prometheus exposition) ==\n%s",
              obs::prometheus_text(registry).c_str());

  const std::size_t force_closed = server.shutdown();
  dispatcher.shutdown();
  // All futures are now resolved; run the last completion tasks (their
  // token sends land on the shut-down-but-alive server) and park the
  // workers before `server` can go out of scope.
  pool.join();

  int keygens = 0, healths = 0, signed_ok = 0, local_verified = 0,
      good_accepted = 0, tampered_rejected = 0, protocol_errors = 0;
  for (const ClientOutcome& o : outcomes) {
    keygens += o.keygen_ok ? 1 : 0;
    healths += o.health_ok ? 1 : 0;
    signed_ok += o.signed_ok;
    local_verified += o.local_verified;
    good_accepted += o.good_accepted;
    tampered_rejected += o.tampered_rejected;
    protocol_errors += o.protocol_errors;
  }

  const serve::MetricsSnapshot m = dispatcher.metrics();
  std::printf("\n== results ==\n");
  std::printf("keygens: %d/%d  health probes ok: %d/%d  signed: %d  "
              "locally verified: %d\n",
              keygens, num_clients, healths, num_clients, signed_ok,
              local_verified);
  std::printf("server verdicts: %d good accepted, %d tampered rejected\n",
              good_accepted, tampered_rejected);
  std::printf("frames: %llu in / %llu out, force-closed conns: %zu\n",
              static_cast<unsigned long long>(server.frames_received()),
              static_cast<unsigned long long>(server.frames_sent()),
              force_closed);
  std::printf("sign lanes: occupancy %.1f, p99 %.0fus | verify lanes: "
              "occupancy %.1f, p99 %.0fus | keygens completed: %llu\n",
              m.sign_occupancy(), m.sign_latency.p99_us, m.verify_occupancy(),
              m.verify_latency.p99_us,
              static_cast<unsigned long long>(m.keygen_completed()));
  std::printf("cached trees: %zu, cached verify keys: %zu\n",
              dispatcher.signing_service().num_cached_trees(),
              dispatcher.verification_service().num_cached_keys());

  const int total = num_clients * per_client;
  const bool ok = keygens == num_clients && healths == num_clients &&
                  signed_ok == total &&
                  local_verified == total && good_accepted == total &&
                  tampered_rejected == total && protocol_errors == 0 &&
                  force_closed == 0 && stats_ok;
  std::printf("\n%s\n", ok ? "all checks passed" : "A CHECK FAILED");
  return ok ? 0 : 1;
}
