#pragma once
// The wire front end's frame -> lane plumbing, shared by every server
// binary (examples/protocol_server, servebench): one switch that
// decodes a request frame by tag, builds the matching typed Dispatcher
// envelope, submits it, and settles the net::ResponseToken when the
// future lands. Admission failures (kQueueFull / kShutdown) answer
// immediately with a typed kOverloaded shed, undecodable requests with
// the failure of their own response type — the token is settled on every
// path, so the transport's reply-debt accounting (and its drain-true
// shutdown) holds no matter what the application layer does.
//
// Completion runs off the event loop: route_frame() hands the future +
// token pair to a CompletionPool, whose workers block on future.get()
// and send the response from their own thread (ResponseToken routes
// itself to the owning reactor). The pool must be joined before the
// Server is destroyed — pending tasks hold live tokens.

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "net/server.h"
#include "serve/dispatcher.h"

namespace cgs::serve {

/// Waits on dispatcher futures off the event loop and settles the
/// response tokens — the reactor threads themselves never block.
class CompletionPool {
 public:
  explicit CompletionPool(int threads);
  ~CompletionPool();

  CompletionPool(const CompletionPool&) = delete;
  CompletionPool& operator=(const CompletionPool&) = delete;

  /// Drain the queue and join the workers. Idempotent. Call before the
  /// net::Server whose tokens the queued tasks hold is destroyed.
  void join();

  void post(std::function<void()> task);

 private:
  void run();

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> tasks_;
  std::vector<std::thread> workers_;
  bool stopping_ = false;
};

/// One frame in, one settled token out: decode by tag, submit the typed
/// envelope to its lane, let `pool` answer when the future lands. An
/// unknown key or an undecodable request answers with the failure of the
/// request's own response type; an admission shed, a lapsed deadline or a
/// frame that is no request answers with a typed kOverloaded shed. The
/// token never escapes unsettled.
void route_frame(Dispatcher& dispatcher, CompletionPool& pool,
                 net::ResponseToken token, std::vector<std::uint8_t> frame);

}  // namespace cgs::serve
