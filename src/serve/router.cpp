#include "serve/router.h"

#include <memory>
#include <string>
#include <utility>

#include "net/overload.h"
#include "obs/export.h"
#include "serial/serial.h"
#include "serve/wire.h"

namespace cgs::serve {

CompletionPool::CompletionPool(int threads) {
  for (int i = 0; i < threads; ++i) workers_.emplace_back([this] { run(); });
}

CompletionPool::~CompletionPool() { join(); }

void CompletionPool::join() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_)
    if (w.joinable()) w.join();
}

void CompletionPool::post(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    tasks_.push_back(std::move(task));
  }
  cv_.notify_one();
}

void CompletionPool::run() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stopping_ || !tasks_.empty(); });
      if (tasks_.empty()) return;  // stopping and drained
      task = std::move(tasks_.front());
      tasks_.pop_front();
    }
    task();
  }
}

namespace {

// An admission shed on the wire: the same typed kOverloaded frame the
// transport itself sheds with, not a response-type-specific failure
// string — one frame kind means "back off", whoever shed it. It names
// the request (pipelining clients settle by id) and carries the
// dispatcher's drain-time retry hint.
std::vector<std::uint8_t> overloaded(std::uint64_t request_id,
                                     std::string reason,
                                     std::uint32_t retry_after_ms) {
  net::OverloadedFrame shed;
  shed.retry_after_ms = retry_after_ms;
  shed.reason = std::move(reason);
  shed.request_id = request_id;
  return net::encode_overloaded(shed);
}

// The shared tail of every queued request type: reject unadmitted
// submissions now, otherwise park (token, future) on the pool and answer
// when the future lands, `ok` encoding a success and the request's own
// `Response::failure` an error. The token travels through std::function
// via shared_ptr (the pool's tasks must be copyable, the token is
// move-only).
template <typename Response, typename R, typename Ok>
void settle_async(CompletionPool& pool, net::ResponseToken token,
                  Submission<R> sub, std::uint64_t request_id, Ok ok) {
  if (!sub.ok()) {
    token.send(
        overloaded(request_id, to_string(sub.status), sub.retry_after_ms));
    return;
  }
  auto tok = std::make_shared<net::ResponseToken>(std::move(token));
  auto fut = std::make_shared<std::future<R>>(std::move(sub.future));
  pool.post([tok, fut, request_id, ok] {
    try {
      tok->send(ok(request_id, fut->get()));
    } catch (const DeadlineExpired& e) {
      // The budget lapsed while queued — a load answer, not a failure of
      // the operation. retry_after 0: only the client knows whether the
      // deadline itself can move.
      tok->send(overloaded(request_id, e.what(), 0));
    } catch (const std::exception& e) {
      tok->send(encode(Response::failure(request_id, e.what())));
    }
  });
}

// Best-effort request id recovery from a frame we could not (or will not)
// decode. Every request payload leads with `request_id u64 LE` right
// after the serial header, so even a frame whose tail is corrupted
// usually still names itself — the id only stays 0 when the frame is too
// short to contain one. Never throws.
std::uint64_t readable_request_id(std::span<const std::uint8_t> frame) {
  constexpr std::size_t kHeader = serial::kFrameHeaderBytes;
  if (frame.size() < kHeader + 8) return 0;
  std::uint64_t id = 0;
  for (int i = 7; i >= 0; --i)
    id = (id << 8) | frame[kHeader + static_cast<std::size_t>(i)];
  return id;
}

// The answer to a frame that failed anywhere between decode and submit:
// the failure of the request's own response type, found by tag over
// WireFrames, so the client's current decode phase can parse it. A frame
// whose header names no request type gets the one frame kind every
// decode phase accepts: a typed shed.
std::vector<std::uint8_t> failure_reply(std::span<const std::uint8_t> frame,
                                        const std::string& error) {
  const std::uint64_t id = readable_request_id(frame);
  std::vector<std::uint8_t> resp;
  try {
    WireFrames::with_tag(
        serial::peek_tag(frame), [&]<typename F>(std::type_identity<F>) {
          if constexpr (requires { typename F::Response; })
            resp = encode(F::Response::failure(id, error));
        });
  } catch (const serial::SerialError&) {
    // Unreadable header: fall through to the shed.
  }
  return resp.empty() ? overloaded(id, error, 0) : resp;
}

}  // namespace

void route_frame(Dispatcher& dispatcher, CompletionPool& pool,
                 net::ResponseToken token, std::vector<std::uint8_t> frame) {
  try {
    switch (serial::peek_tag(frame)) {
      case serial::TypeTag::kKeygenRequest: {
        const auto req = decode<KeygenRequestFrame>(frame);
        KeygenRequest env;
        env.params = falcon::FalconParams::for_degree(
            static_cast<std::size_t>(req.degree));
        env.seed = req.seed;
        env.request_id = req.request_id;
        env.trace_id = req.trace_id;
        env.deadline_us = req.deadline_us;
        settle_async<KeygenResponseFrame>(
            pool, std::move(token), dispatcher.submit(std::move(env)),
            req.request_id, [](std::uint64_t id, const KeygenResult& r) {
              return encode(KeygenResponseFrame::success(
                  id, r.key_id, r.public_h, r.params.n));
            });
        return;
      }
      case serial::TypeTag::kSignRequest: {
        auto req = decode<SignRequestFrame>(frame);
        if (dispatcher.key(req.key_id) == nullptr) {
          token.send(encode(
              SignResponseFrame::failure(req.request_id, "unknown key")));
          return;
        }
        SignRequest env;
        env.key_id = req.key_id;
        env.message = std::move(req.message);
        env.request_id = req.request_id;
        env.trace_id = req.trace_id;
        env.deadline_us = req.deadline_us;
        settle_async<SignResponseFrame>(
            pool, std::move(token), dispatcher.submit(std::move(env)),
            req.request_id,
            [](std::uint64_t id, const falcon::Signature& sig) {
              return encode(SignResponseFrame::success(id, sig));
            });
        return;
      }
      case serial::TypeTag::kVerifyRequest: {
        auto req = decode<VerifyRequestFrame>(frame);
        if (dispatcher.key(req.key_id) == nullptr) {
          token.send(encode(
              VerifyResponseFrame::failure(req.request_id, "unknown key")));
          return;
        }
        VerifyRequest env;
        env.key_id = req.key_id;
        env.sig = req.to_signature();
        env.message = std::move(req.message);
        env.request_id = req.request_id;
        env.trace_id = req.trace_id;
        env.deadline_us = req.deadline_us;
        settle_async<VerifyResponseFrame>(
            pool, std::move(token), dispatcher.submit(std::move(env)),
            req.request_id, [](std::uint64_t id, bool accepted) {
              return encode(VerifyResponseFrame::verdict(id, accepted));
            });
        return;
      }
      case serial::TypeTag::kStatsRequest: {
        // Answered inline on the loop thread: a registry walk is cheap.
        const auto req = decode<StatsRequestFrame>(frame);
        const obs::Registry& registry = dispatcher.obs_registry();
        std::string text = req.format == StatsFormat::kJson
                               ? obs::json_text(registry)
                               : obs::prometheus_text(registry);
        token.send(encode(StatsResponseFrame::success(
            req.request_id, req.format, std::move(text))));
        return;
      }
      case serial::TypeTag::kHealthRequest: {
        // Answered inline like stats — never queued, so health stays
        // answerable while every dispatch lane is saturated (which is
        // exactly when a load balancer needs the answer).
        const auto req = decode<HealthRequestFrame>(frame);
        std::vector<HealthComponentFrame> components;
        for (const HealthComponent& c : dispatcher.health()) {
          HealthComponentFrame f;
          f.name = c.name;
          f.ok = c.ok;
          f.value = c.value;
          f.detail = c.detail;
          components.push_back(std::move(f));
        }
        // Transport readiness: the reactors publish their worst recent
        // loop lag as a gauge (net::Server's timer-wheel probe); fold it
        // in when a server registered one against this registry.
        for (const obs::Sample& s : dispatcher.obs_registry().collect()) {
          if (s.name == "cgs_net_loop_lag_us" && s.labels.empty()) {
            HealthComponentFrame f;
            f.name = "net_loop_lag";
            f.value = s.value;
            f.ok = s.value < 100'000;  // a loop 100ms behind is not ready
            f.detail = "worst reactor loop lag (us)";
            components.push_back(std::move(f));
          }
        }
        token.send(encode(HealthResponseFrame::success(
            req.request_id, std::move(components))));
        return;
      }
      default:
        // A well-formed frame whose tag is not a request (a response
        // tag, say): failure_reply answers it with the typed shed.
        throw serial::SerialError("unsupported request type");
    }
  } catch (const std::exception& e) {
    // Undecodable frame: still answer, since the transport owes one
    // response per delivered frame. The id is recovered best-effort from
    // the frame prefix: a torn tail should not anonymize the response and
    // wedge a pipelining client waiting on that id.
    if (token.valid()) token.send(failure_reply(frame, e.what()));
  }
}

}  // namespace cgs::serve
