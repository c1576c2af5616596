// The multi-reactor server core: framed echo round trips over real
// sockets, pipelining under concurrent clients, ResponseToken reply-debt
// settlement from foreign threads, the drain accounting behind graceful
// shutdown, and the whole connection-hygiene surface — idle eviction,
// slowloris read-progress deadlines, connection/owed/write caps — each
// answering with a typed kOverloaded frame, never a silent close. The
// server tests run across 1, 2 and 4 reactors (SO_REUSEPORT and hand-off
// accept modes both covered) under the TSan CI job: reactor threads,
// client threads and deferred token settlers all touch the server.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/check.h"
#include "engine/registry.h"
#include "falcon/keygen.h"
#include "net/client.h"
#include "net/framing.h"
#include "net/overload.h"
#include "net/server.h"
#include "net/timer_wheel.h"
#include "obs/registry.h"
#include "prng/chacha20.h"
#include "serial/serial.h"
#include "serve/dispatcher.h"
#include "serve/router.h"
#include "serve/wire.h"

namespace cgs::net {
namespace {

std::vector<std::uint8_t> payload_of(const std::string& s) {
  return std::vector<std::uint8_t>(s.begin(), s.end());
}

std::string to_string(const std::vector<std::uint8_t>& bytes) {
  return std::string(bytes.begin(), bytes.end());
}

void wait_for_no_connections(const Server& server) {
  for (int i = 0; i < 400 && server.active_connections() > 0; ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
}

TEST(Framing, LengthPrefixRoundTrip) {
  const auto msg = length_prefixed(payload_of("hello"));
  ASSERT_EQ(msg.size(), 9u);
  EXPECT_EQ(msg[0], 5u);  // little-endian length
  EXPECT_EQ(msg[1], 0u);
  EXPECT_EQ(to_string({msg.begin() + 4, msg.end()}), "hello");
}

TEST(Overload, CodecRoundTripAndPeek) {
  OverloadedFrame shed;
  shed.retry_after_ms = 750;
  shed.reason = "connection cap";
  const auto encoded = encode_overloaded(shed);
  // On the wire it is length-prefixed like everything else; the decode
  // side sees the frame without the prefix (the stream layer ate it).
  const std::vector<std::uint8_t> frame(encoded.begin() + 4, encoded.end());
  EXPECT_TRUE(is_overloaded(frame));
  const OverloadedFrame back = decode_overloaded(frame);
  EXPECT_EQ(back.retry_after_ms, 750u);
  EXPECT_EQ(back.reason, "connection cap");
  EXPECT_EQ(back.request_id, 0u);  // id-less transport shed
  // A non-overload frame and garbage both peek false, never throw.
  EXPECT_FALSE(is_overloaded(payload_of("not a frame")));
  EXPECT_FALSE(is_overloaded({}));
}

TEST(Overload, OptionalRequestIdRoundTripsAndStaysByteCompatible) {
  // id = 0 encodes byte-identically to the pre-id frame (old peers
  // interoperate unchanged)...
  OverloadedFrame idless;
  idless.retry_after_ms = 10;
  idless.reason = "queue-full";
  OverloadedFrame zero = idless;
  zero.request_id = 0;
  EXPECT_EQ(encode_overloaded(idless), encode_overloaded(zero));
  // ...and a set id rides as a trailing field an old decoder would have
  // simply never read.
  OverloadedFrame named = idless;
  named.request_id = 0xfeedfacecafe0123ull;
  const auto encoded = encode_overloaded(named);
  EXPECT_EQ(encoded.size(), encode_overloaded(idless).size() + 8);
  const OverloadedFrame back =
      decode_overloaded(std::span(encoded).subspan(4));
  EXPECT_EQ(back.retry_after_ms, 10u);
  EXPECT_EQ(back.reason, "queue-full");
  EXPECT_EQ(back.request_id, 0xfeedfacecafe0123ull);
}

TEST(TimerWheelTest, FiresAtDeadlineAndNotBefore) {
  TimerWheel wheel(1000, 16);  // 1ms tick, 16 slots
  std::vector<std::uint64_t> fired;
  wheel.schedule(7, 5000);
  wheel.advance(4000, [&](std::uint64_t k) { fired.push_back(k); });
  EXPECT_TRUE(fired.empty());
  EXPECT_EQ(wheel.size(), 1u);
  wheel.advance(5000, [&](std::uint64_t k) { fired.push_back(k); });
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_EQ(fired[0], 7u);
  EXPECT_EQ(wheel.size(), 0u);
}

TEST(TimerWheelTest, EntriesBeyondOneRevolutionWait) {
  TimerWheel wheel(1000, 8);  // revolution = 8ms
  std::vector<std::uint64_t> fired;
  wheel.schedule(1, 3000);
  wheel.schedule(2, 3000 + 8000);  // same slot, one revolution later
  wheel.advance(4000, [&](std::uint64_t k) { fired.push_back(k); });
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_EQ(fired[0], 1u);
  wheel.advance(12000, [&](std::uint64_t k) { fired.push_back(k); });
  ASSERT_EQ(fired.size(), 2u);
  EXPECT_EQ(fired[1], 2u);
}

TEST(TimerWheelTest, CallbackMayRescheduleDuringAdvance) {
  // The lazy-cancellation protocol: the callback re-files a new deadline
  // for the same key while the wheel is mid-sweep.
  TimerWheel wheel(1000, 16);
  wheel.schedule(3, 1000);
  int fires = 0;
  wheel.advance(2000, [&](std::uint64_t) {
    ++fires;
    wheel.schedule(3, 9000);  // future deadline: must not fire this sweep
  });
  EXPECT_EQ(fires, 1);
  EXPECT_EQ(wheel.size(), 1u);
  wheel.advance(9000, [&](std::uint64_t) { ++fires; });
  EXPECT_EQ(fires, 2);
}

TEST(ServerOptionsTest, ValidateRejectsNonsense) {
  ServerOptions bad;
  bad.limits.max_frame = 2;
  EXPECT_THROW(bad.validate(), Error);
  bad = {};
  bad.limits.max_connections = 0;
  EXPECT_THROW(bad.validate(), Error);
  bad = {};
  bad.timeouts.idle = std::chrono::milliseconds(0);
  EXPECT_THROW(bad.validate(), Error);
  EXPECT_NO_THROW(ServerOptions{}.validate());
}

// ------------------------------------------------------------------------
// Server tests parameterized over the reactor count. Every case runs with
// 1 (the old single-loop shape), 2 and 4 event loops.

class MultiReactor : public ::testing::TestWithParam<int> {
 protected:
  ServerOptions options() const {
    ServerOptions o;
    o.reactors = GetParam();
    return o;
  }
};

TEST_P(MultiReactor, EchoRoundTripAndCounters) {
  Server server(
      [](ResponseToken token, std::vector<std::uint8_t> frame) {
        token.send(length_prefixed(std::move(frame)));
      },
      options());
  ASSERT_GT(server.port(), 0);
  EXPECT_EQ(server.reactors(), GetParam());

  Client client(server.port());
  for (int i = 0; i < 5; ++i)
    client.send(length_prefixed(payload_of("ping " + std::to_string(i))));
  for (int i = 0; i < 5; ++i) {
    const auto frame = client.read();
    ASSERT_TRUE(frame.has_value());
    EXPECT_EQ(to_string(*frame), "ping " + std::to_string(i));
  }
  client.half_close();
  EXPECT_FALSE(client.read().has_value());  // server closed after drain

  EXPECT_EQ(server.shutdown(), 0u);
  EXPECT_EQ(server.frames_received(), 5u);
  EXPECT_EQ(server.frames_sent(), 5u);
  EXPECT_EQ(server.active_connections(), 0u);
  EXPECT_EQ(server.stats().sheds_total(), 0u);
}

TEST_P(MultiReactor, ManyConcurrentPipeliningClients) {
  Server server(
      [](ResponseToken token, std::vector<std::uint8_t> frame) {
        token.send(length_prefixed(std::move(frame)));
      },
      options());

  constexpr int kClients = 8, kFrames = 50;
  std::atomic<int> echoed{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      Client client(server.port());
      for (int i = 0; i < kFrames; ++i)
        client.send(length_prefixed(
            payload_of(std::to_string(c) + ":" + std::to_string(i))));
      client.half_close();
      int got = 0;
      while (auto frame = client.read()) {
        EXPECT_EQ(to_string(*frame),
                  std::to_string(c) + ":" + std::to_string(got));
        ++got;
      }
      echoed += got;
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(echoed.load(), kClients * kFrames);
  EXPECT_EQ(server.shutdown(), 0u);
  EXPECT_EQ(server.frames_received(),
            static_cast<std::uint64_t>(kClients * kFrames));
}

TEST_P(MultiReactor, ConnIdsCarryTheReactorIndex) {
  std::mutex mu;
  std::set<std::uint64_t> reactor_bits;
  Server server(
      [&](ResponseToken token, std::vector<std::uint8_t> frame) {
        {
          std::lock_guard<std::mutex> lock(mu);
          reactor_bits.insert(token.conn_id() >> 48);
        }
        token.send(length_prefixed(std::move(frame)));
      },
      options());

  std::vector<std::thread> clients;
  for (int c = 0; c < 12; ++c)
    clients.emplace_back([&] {
      Client client(server.port());
      client.send(length_prefixed(payload_of("id?")));
      EXPECT_TRUE(client.read().has_value());
    });
  for (auto& t : clients) t.join();
  server.shutdown();
  std::lock_guard<std::mutex> lock(mu);
  for (std::uint64_t bits : reactor_bits) {
    EXPECT_GE(bits, 1u);  // never collides with listener/wake ids
    EXPECT_LE(bits, static_cast<std::uint64_t>(GetParam()));
  }
}

TEST_P(MultiReactor, ShutdownDrainsDeferredTokens) {
  // The handler hands its token to another thread that answers after a
  // delay — exactly the dispatcher-future shape. shutdown() must wait
  // for every owed response and flush it before closing (force-closed
  // count 0).
  std::vector<std::thread> responders;
  std::mutex responders_mu;
  Server server(
      [&](ResponseToken token, std::vector<std::uint8_t> frame) {
        std::lock_guard<std::mutex> lock(responders_mu);
        responders.emplace_back(
            [token = std::move(token), frame = std::move(frame)]() mutable {
              std::this_thread::sleep_for(std::chrono::milliseconds(150));
              token.send(length_prefixed(std::move(frame)));
            });
      },
      options());

  constexpr int kFrames = 10;
  Client client(server.port());
  for (int i = 0; i < kFrames; ++i)
    client.send(length_prefixed(payload_of("deferred")));
  client.half_close();

  // Give the loop a moment to deliver the frames to the handler, then
  // start the drain while every response is still pending (the
  // responders' sleep dwarfs this) — shutdown must block on them.
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  std::thread reader([&] {
    int got = 0;
    while (client.read()) ++got;
    EXPECT_EQ(got, kFrames);
  });
  EXPECT_EQ(server.shutdown(), 0u);  // waited for all deferred sends
  reader.join();
  {
    std::lock_guard<std::mutex> lock(responders_mu);
    for (auto& t : responders) t.join();
  }
  EXPECT_EQ(server.frames_sent(), static_cast<std::uint64_t>(kFrames));
  EXPECT_EQ(server.stats().sheds_dropped_token, 0u);
}

TEST_P(MultiReactor, IdleConnectionEvictedWithTypedFrame) {
  ServerOptions o = options();
  o.timeouts.idle = std::chrono::milliseconds(100);
  o.timeouts.shed_linger = std::chrono::milliseconds(300);
  Server server(
      [](ResponseToken token, std::vector<std::uint8_t> frame) {
        token.send(length_prefixed(std::move(frame)));
      },
      o);

  ClientOptions copts;
  copts.read_timeout = std::chrono::milliseconds(5000);
  Client client(server.port(), copts);
  // Prove the connection works, then go silent.
  client.send(length_prefixed(payload_of("hi")));
  ASSERT_TRUE(client.read().has_value());

  // The eviction must arrive as a typed frame, not an RST.
  const auto frame = client.read();
  ASSERT_TRUE(frame.has_value());
  ASSERT_TRUE(is_overloaded(*frame));
  EXPECT_EQ(decode_overloaded(*frame).reason, "idle timeout");
  // ... and the connection closes once the linger deadline passes.
  EXPECT_FALSE(client.read().has_value());

  wait_for_no_connections(server);
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.idle_evictions, 1u);
  EXPECT_EQ(stats.open_connections, 0u);
  server.shutdown();
}

TEST_P(MultiReactor, SlowlorisTripsReadProgressDeadline) {
  ServerOptions o = options();
  o.timeouts.idle = std::chrono::milliseconds(10000);  // idle must not fire
  o.timeouts.read_progress = std::chrono::milliseconds(120);
  o.timeouts.shed_linger = std::chrono::milliseconds(300);
  std::atomic<int> delivered{0};
  Server server(
      [&](ResponseToken token, std::vector<std::uint8_t> frame) {
        ++delivered;
        token.send(length_prefixed(std::move(frame)));
      },
      o);

  ClientOptions copts;
  copts.read_timeout = std::chrono::milliseconds(5000);
  Client client(server.port(), copts);
  // A length prefix promising 100 bytes, then a trickle that stalls.
  const std::vector<std::uint8_t> partial = {100, 0, 0, 0, 1, 2, 3};
  client.send(partial);

  const auto frame = client.read();
  ASSERT_TRUE(frame.has_value());
  ASSERT_TRUE(is_overloaded(*frame));
  EXPECT_EQ(decode_overloaded(*frame).reason, "read-progress timeout");
  EXPECT_FALSE(client.read().has_value());
  EXPECT_EQ(delivered.load(), 0);

  wait_for_no_connections(server);
  EXPECT_EQ(server.stats().read_timeout_evictions, 1u);
  server.shutdown();
}

TEST_P(MultiReactor, ConnectionCapShedsTypedNeverSilent) {
  ServerOptions o = options();
  o.limits.max_connections = 2;
  o.timeouts.shed_linger = std::chrono::milliseconds(500);
  Server server(
      [](ResponseToken token, std::vector<std::uint8_t> frame) {
        token.send(length_prefixed(std::move(frame)));
      },
      o);

  // Two established connections (echo proves they are fully adopted).
  Client a(server.port()), b(server.port());
  a.send(length_prefixed(payload_of("a")));
  ASSERT_TRUE(a.read().has_value());
  b.send(length_prefixed(payload_of("b")));
  ASSERT_TRUE(b.read().has_value());

  // Every connection over the cap must observe the typed shed frame —
  // zero silent closes.
  for (int i = 0; i < 3; ++i) {
    ClientOptions copts;
    copts.read_timeout = std::chrono::milliseconds(5000);
    Client over(server.port(), copts);
    const auto frame = over.read();
    ASSERT_TRUE(frame.has_value()) << "over-cap conn " << i << " got no frame";
    ASSERT_TRUE(is_overloaded(*frame));
    const OverloadedFrame shed = decode_overloaded(*frame);
    EXPECT_EQ(shed.reason, "connection cap");
    EXPECT_GT(shed.retry_after_ms, 0u);
    EXPECT_FALSE(over.read().has_value());  // closed, after the frame
  }
  EXPECT_EQ(server.stats().sheds_accept_cap, 3u);

  // The established connections were never disturbed.
  a.send(length_prefixed(payload_of("still here")));
  EXPECT_TRUE(a.read().has_value());
  server.shutdown();
}

TEST_P(MultiReactor, OwedResponsesCapShedsPerFrame) {
  ServerOptions o = options();
  o.limits.max_owed_responses = 4;
  std::mutex tokens_mu;
  std::vector<ResponseToken> parked;
  Server server(
      [&](ResponseToken token, std::vector<std::uint8_t> frame) {
        std::lock_guard<std::mutex> lock(tokens_mu);
        parked.push_back(std::move(token));
      },
      o);

  Client client(server.port());
  // Pipeline 8 requests in one burst: whatever the arrival chunking,
  // exactly 4 can be owed at once — the rest shed per frame.
  std::vector<std::uint8_t> burst;
  for (int i = 0; i < 8; ++i) {
    const auto one = length_prefixed(payload_of("req " + std::to_string(i)));
    burst.insert(burst.end(), one.begin(), one.end());
  }
  client.send(burst);

  // The four sheds answer immediately.
  for (int i = 0; i < 4; ++i) {
    const auto frame = client.read();
    ASSERT_TRUE(frame.has_value());
    ASSERT_TRUE(is_overloaded(*frame));
    EXPECT_EQ(decode_overloaded(*frame).reason, "owed-responses cap");
  }
  // The sheds flush during admission, before the handler delivery loop
  // runs — wait for all four tokens to actually land in the handler.
  for (int i = 0; i < 400; ++i) {
    {
      std::lock_guard<std::mutex> lock(tokens_mu);
      if (parked.size() == 4) break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  // Settle the parked debt; the echoes follow.
  {
    std::lock_guard<std::mutex> lock(tokens_mu);
    ASSERT_EQ(parked.size(), 4u);
    for (auto& token : parked)
      token.send(length_prefixed(payload_of("late answer")));
    parked.clear();
  }
  for (int i = 0; i < 4; ++i) {
    const auto frame = client.read();
    ASSERT_TRUE(frame.has_value());
    EXPECT_EQ(to_string(*frame), "late answer");
  }
  EXPECT_EQ(server.stats().sheds_owed_cap, 4u);
  server.shutdown();
}

TEST_P(MultiReactor, QueuedWriteBytesCapShedsPerFrame) {
  ServerOptions o = options();
  o.limits.max_queued_write_bytes = 32 * 1024;
  o.limits.sndbuf_bytes = 4096;  // keep kernel buffering out of the way
  Server server(
      [](ResponseToken token, std::vector<std::uint8_t> frame) {
        token.send(length_prefixed(std::move(frame)));
      },
      o);

  // A raw socket with a tiny receive buffer (set before connect so the
  // window stays small): the server's 16KiB echoes have nowhere to go
  // while we stay quiet, so its per-connection out-queue fills.
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  ASSERT_GE(fd, 0);
  const int rcvbuf = 4096;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof rcvbuf);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(server.port());
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr), 0);

  constexpr int kFrames = 24;
  const std::vector<std::uint8_t> big(16 * 1024, 0xAB);
  for (int i = 0; i < kFrames; ++i) {
    ASSERT_TRUE(write_frame(fd, length_prefixed(big)));
    // Space the frames out so each one sees the queue the previous
    // echoes built up.
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ::shutdown(fd, SHUT_WR);

  int echoes = 0, sheds = 0;
  while (auto frame = read_frame(fd)) {
    if (is_overloaded(*frame)) {
      EXPECT_EQ(decode_overloaded(*frame).reason, "queued-write-bytes cap");
      ++sheds;
    } else {
      EXPECT_EQ(frame->size(), big.size());
      ++echoes;
    }
  }
  ::close(fd);
  // One answer per frame — a shed response still settles the debt.
  EXPECT_EQ(echoes + sheds, kFrames);
  EXPECT_GE(sheds, 1);
  EXPECT_EQ(server.stats().sheds_write_cap,
            static_cast<std::uint64_t>(sheds));
  EXPECT_EQ(server.shutdown(), 0u);
}

TEST_P(MultiReactor, DroppedTokenAutoSheds) {
  Server server(
      [](ResponseToken token, std::vector<std::uint8_t> frame) {
        // Dropped on the floor: the destructor must settle the debt.
      },
      options());

  Client client(server.port());
  client.send(length_prefixed(payload_of("anyone home?")));
  const auto frame = client.read();
  ASSERT_TRUE(frame.has_value());
  ASSERT_TRUE(is_overloaded(*frame));
  EXPECT_EQ(decode_overloaded(*frame).reason, "response dropped");
  EXPECT_EQ(server.stats().sheds_dropped_token, 1u);
  server.shutdown();
}

TEST_P(MultiReactor, ExplicitShedReachesRequestAsOverloaded) {
  Server server(
      [](ResponseToken token, std::vector<std::uint8_t> frame) {
        token.shed("try later");
      },
      options());

  Client client(server.port());
  try {
    client.request(length_prefixed(payload_of("work?")));
    FAIL() << "request() must surface the shed";
  } catch (const ClientError& e) {
    EXPECT_EQ(e.kind(), ClientError::Kind::kOverloaded);
    EXPECT_GT(e.retry_after_ms(), 0u);
  }
  server.shutdown();
}

INSTANTIATE_TEST_SUITE_P(Reactors, MultiReactor, ::testing::Values(1, 2, 4),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return std::to_string(info.param) + "reactors";
                         });

// ------------------------------------------------------------------------

TEST(MultiReactorServer, HandoffAcceptModeServes) {
  ServerOptions o;
  o.reactors = 4;
  o.accept_mode = ServerOptions::AcceptMode::kHandoff;
  Server server(
      [](ResponseToken token, std::vector<std::uint8_t> frame) {
        token.send(length_prefixed(std::move(frame)));
      },
      o);
  EXPECT_FALSE(server.reuse_port());

  std::mutex mu;
  std::set<std::uint64_t> reactors_seen;
  std::vector<std::thread> clients;
  for (int c = 0; c < 16; ++c)
    clients.emplace_back([&, c] {
      Client client(server.port());
      for (int i = 0; i < 10; ++i) {
        const auto echo = client.request(
            length_prefixed(payload_of(std::to_string(c * 100 + i))));
        EXPECT_EQ(to_string(echo), std::to_string(c * 100 + i));
      }
    });
  for (auto& t : clients) t.join();
  EXPECT_EQ(server.shutdown(), 0u);
  EXPECT_EQ(server.frames_received(), 160u);
}

TEST(MultiReactorServer, MetricsExposeThroughSharedRegistry) {
  obs::Registry registry;
  ServerOptions o;
  o.reactors = 2;
  o.registry = &registry;
  Server server(
      [](ResponseToken token, std::vector<std::uint8_t> frame) {
        token.send(length_prefixed(std::move(frame)));
      },
      o);
  Client client(server.port());
  client.send(length_prefixed(payload_of("count me")));
  ASSERT_TRUE(client.read().has_value());

  std::set<std::string> names;
  for (const auto& sample : registry.collect()) names.insert(sample.name);
  EXPECT_TRUE(names.count("cgs_net_connections_open"));
  EXPECT_TRUE(names.count("cgs_net_connections_accepted_total"));
  EXPECT_TRUE(names.count("cgs_net_frames_decoded_total"));
  EXPECT_TRUE(names.count("cgs_net_overload_sheds_total"));
  EXPECT_TRUE(names.count("cgs_net_reactors"));

  server.shutdown();
  // Callback instruments are gone after shutdown (their state died with
  // the reactors); owned instruments stay, frozen.
  names.clear();
  for (const auto& sample : registry.collect()) names.insert(sample.name);
  EXPECT_FALSE(names.count("cgs_net_connections_open"));
  EXPECT_TRUE(names.count("cgs_net_write_stall_us"));
  // stats() survives shutdown.
  EXPECT_EQ(server.stats().frames_received, 1u);
}

TEST(MultiReactorServer, OversizedLengthPrefixClosesConnectionHard) {
  std::atomic<int> frames_seen{0};
  ServerOptions o;
  o.reactors = 2;
  o.limits.max_frame = 1024;
  Server server(
      [&](ResponseToken token, std::vector<std::uint8_t> frame) {
        ++frames_seen;
        token.send(length_prefixed(std::move(frame)));
      },
      o);

  Client client(server.port());
  // A length prefix lying far beyond the cap: unrecoverable framing —
  // this is the one case that still closes without an answer.
  client.send(std::vector<std::uint8_t>{0xff, 0xff, 0xff, 0x7f, 1, 2, 3});
  try {
    EXPECT_FALSE(client.read().has_value());
  } catch (const ClientError& e) {
    EXPECT_EQ(e.kind(), ClientError::Kind::kPeerClosed);
  }
  wait_for_no_connections(server);
  EXPECT_EQ(server.active_connections(), 0u);
  EXPECT_EQ(frames_seen.load(), 0);
  EXPECT_EQ(server.stats().frames_corrupt, 1u);
  server.shutdown();
}

TEST(MultiReactorServer, SettlingTokenForGoneConnectionReturnsFalse) {
  std::mutex mu;
  std::vector<ResponseToken> parked;
  ServerOptions o;
  o.reactors = 2;
  Server server(
      [&](ResponseToken token, std::vector<std::uint8_t> frame) {
        std::lock_guard<std::mutex> lock(mu);
        parked.push_back(std::move(token));
      },
      o);

  // A raw socket so we can RST on close (SO_LINGER, timeout 0): a clean
  // FIN would leave the connection waiting for its owed response, but a
  // reset tears it down immediately — the parked token then points at a
  // connection that no longer exists.
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(server.port());
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr), 0);
  ASSERT_TRUE(write_frame(fd, length_prefixed(payload_of("x"))));
  // Wait until the handler owns the token, then vanish with an RST.
  for (int i = 0; i < 400; ++i) {
    {
      std::lock_guard<std::mutex> lock(mu);
      if (!parked.empty()) break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  const linger hard = {1, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_LINGER, &hard, sizeof hard);
  ::close(fd);

  wait_for_no_connections(server);
  EXPECT_EQ(server.active_connections(), 0u);
  std::lock_guard<std::mutex> lock(mu);
  ASSERT_EQ(parked.size(), 1u);
  EXPECT_FALSE(parked[0].send(length_prefixed(payload_of("too late"))));
  EXPECT_FALSE(parked[0].valid());  // settled either way
  server.shutdown();
}

TEST(MultiReactorServer, AbruptClientDisconnectIsHarmless) {
  ServerOptions o;
  o.reactors = 2;
  Server server(
      [](ResponseToken token, std::vector<std::uint8_t> frame) {
        token.send(length_prefixed(std::move(frame)));
      },
      o);
  for (int round = 0; round < 10; ++round) {
    Client client(server.port());
    client.send(length_prefixed(payload_of("going away")));
    // Destructor closes the socket outright; the server may or may not
    // manage to write the echo back — either way it must stay healthy.
  }
  wait_for_no_connections(server);
  EXPECT_EQ(server.active_connections(), 0u);
  EXPECT_EQ(server.shutdown(), 0u);
}

TEST(ClientErrors, ConnectRefusedIsTyped) {
  ClientOptions copts;
  copts.connect_timeout = std::chrono::milliseconds(500);
  try {
    Client client(1, copts);  // port 1: nothing listens there
    FAIL() << "connect must fail";
  } catch (const ClientError& e) {
    EXPECT_EQ(e.kind(), ClientError::Kind::kConnect);
  }
}

// -------------------------------------------------------- router wire ----
// The router's overload wire semantics, end to end over real sockets:
// every shed — admission reject, lapsed deadline, unsupported tag — is
// the same typed kOverloaded frame the transport sheds with, and it
// names the request it answers so pipelining clients can settle by id.

engine::SamplerRegistry& sampler_registry() {
  // In-process memo only: these tests must not depend on (or pollute) the
  // user's on-disk cache state.
  static engine::SamplerRegistry reg({.cache_dir = "", .use_disk = false});
  return reg;
}

const falcon::KeyPair& wire_key() {
  static const falcon::KeyPair kp = [] {
    prng::ChaCha20Source rng(31337);
    return falcon::keygen(falcon::FalconParams::for_degree(64), rng);
  }();
  return kp;
}

serve::DispatcherOptions router_options() {
  serve::DispatcherOptions opts;
  opts.signing.backend = engine::Backend::kWide;
  opts.signing.num_threads = 2;
  opts.signing.precision = 64;
  opts.signing.root_seed = 7;
  opts.gaussian.backend = engine::Backend::kWide;
  opts.gaussian.num_threads = 1;
  opts.gaussian.root_seed = 7;
  opts.max_linger_us = 20'000;
  return opts;
}

// A live protocol stack: Dispatcher behind route_frame behind a Server,
// torn down in the one safe order (stop accepting, drain lanes, then
// join the settlers once no future can still land).
struct RouterStack {
  serve::Dispatcher dispatcher;
  serve::CompletionPool pool;
  Server server;

  RouterStack()
      : dispatcher(sampler_registry(), router_options()),
        pool(2),
        server([this](ResponseToken token, std::vector<std::uint8_t> frame) {
          serve::route_frame(dispatcher, pool, std::move(token),
                             std::move(frame));
        }) {}

  ~RouterStack() {
    server.shutdown();
    dispatcher.shutdown();
    pool.join();
  }
};

TEST(RouterWire, AdmissionShedIsTypedAndNamesTheRequest) {
  RouterStack stack;
  const std::uint64_t key_id = stack.dispatcher.add_key(wire_key());
  stack.dispatcher.shutdown();  // every submit now sheds kShutdown

  serve::SignRequestFrame req;
  req.request_id = 0xabcd;
  req.key_id = key_id;
  req.message = "after close";
  Client client(stack.server.port());
  client.send(serve::encode(req));
  const auto frame = client.read();
  ASSERT_TRUE(frame.has_value());
  ASSERT_TRUE(is_overloaded(*frame));
  const OverloadedFrame shed = decode_overloaded(*frame);
  EXPECT_EQ(shed.reason, "shutdown");
  EXPECT_EQ(shed.retry_after_ms, 0u);  // no drain hint: retrying won't help
  EXPECT_EQ(shed.request_id, 0xabcdu);
}

TEST(RouterWire, ExpiredDeadlineShedsTypedOnTheWire) {
  RouterStack stack;
  const std::uint64_t key_id = stack.dispatcher.add_key(wire_key());
  serve::SignRequestFrame req;
  req.request_id = 77;
  req.key_id = key_id;
  req.message = "too late";
  req.deadline_us = 1;  // lapses long before the batch can close
  Client client(stack.server.port());
  client.send(serve::encode(req));
  const auto frame = client.read();
  ASSERT_TRUE(frame.has_value());
  ASSERT_TRUE(is_overloaded(*frame));
  const OverloadedFrame shed = decode_overloaded(*frame);
  EXPECT_EQ(shed.reason, "deadline-expired");
  EXPECT_EQ(shed.request_id, 77u);
}

TEST(RouterWire, UnsupportedTagAnswersTypedOverloadNotVerifyFailure) {
  RouterStack stack;
  // A perfectly well-formed frame that is just not a request: a response
  // tag arriving at the server. The old router answered with a
  // VerifyResponse for id 0 — poison for a client mid sign decode.
  Client client(stack.server.port());
  client.send(
      serve::encode(serve::SignResponseFrame::failure(0x1234, "backwards")));
  const auto frame = client.read();
  ASSERT_TRUE(frame.has_value());
  ASSERT_TRUE(is_overloaded(*frame));
  const OverloadedFrame shed = decode_overloaded(*frame);
  EXPECT_EQ(shed.reason, "unsupported request type");
  EXPECT_EQ(shed.request_id, 0x1234u);  // read out of the frame prefix
}

TEST(RouterWire, UndecodableFrameStillNamesItsRequestId) {
  RouterStack stack;
  const std::uint64_t key_id = stack.dispatcher.add_key(wire_key());
  serve::SignRequestFrame req;
  req.request_id = 0x99;
  req.key_id = key_id;
  req.message = "about to be torn";
  auto msg = serve::encode(req);
  msg.back() ^= 0xff;  // tear the payload tail: the hash check rejects it
  Client client(stack.server.port());
  client.send(msg);
  const auto frame = client.read();
  ASSERT_TRUE(frame.has_value());
  const auto resp = serve::decode<serve::SignResponseFrame>(*frame);
  EXPECT_FALSE(resp.ok);
  EXPECT_EQ(resp.request_id, 0x99u);  // recovered from the intact prefix
}

TEST(RouterWire, UndecodableStatsRequestAnswersStatsFailure) {
  // Every request type answers a torn frame in its own response type: a
  // scraper mid stats decode must get a StatsResponse it can parse.
  RouterStack stack;
  serve::StatsRequestFrame req;
  req.request_id = 0x5747;
  req.format = serve::StatsFormat::kJson;
  auto msg = serve::encode(req);
  msg.back() ^= 0xff;  // tear the payload tail: the hash check rejects it
  Client client(stack.server.port());
  client.send(msg);
  const auto frame = client.read();
  ASSERT_TRUE(frame.has_value());
  const auto resp = serve::decode<serve::StatsResponseFrame>(*frame);
  EXPECT_FALSE(resp.ok);
  EXPECT_EQ(resp.request_id, 0x5747u);
}

TEST(ClientErrors, ReadDeadlineIsTypedTimeout) {
  std::mutex mu;
  std::vector<ResponseToken> parked;
  Server server([&](ResponseToken token, std::vector<std::uint8_t> frame) {
    std::lock_guard<std::mutex> lock(mu);
    parked.push_back(std::move(token));  // never answers (until shutdown)
  });
  ClientOptions copts;
  copts.read_timeout = std::chrono::milliseconds(100);
  Client client(server.port(), copts);
  client.send(length_prefixed(payload_of("hello?")));
  try {
    client.read();
    FAIL() << "read must time out";
  } catch (const ClientError& e) {
    EXPECT_EQ(e.kind(), ClientError::Kind::kTimeout);
  }
  {
    std::lock_guard<std::mutex> lock(mu);
    for (auto& token : parked) token.shed("test over");
    parked.clear();
  }
  server.shutdown();
}

}  // namespace
}  // namespace cgs::net
