// net::Transport over real sockets.
//
// The blocking facade that lets the existing Browser / TrainingFleet /
// CookiePicker stack run unmodified against the epoll service tier: each
// dispatch posts to the AsyncHttpClient's loop and parks the calling
// thread on a future until the response lands. dispatchBatch() issues the
// whole batch at once — with a pipelining-enabled client the batch rides
// per-host pooled connections back-to-back — and collects results in
// request order. ownsRetryTiming() is true: round trips are real time, so
// the browser sleeps its hidden-fetch backoffs as well as charging them to
// the virtual clock. The browser's hidden fetch is one dispatch() per
// attempt; it never calls dispatchBatch().
#pragma once

#include <future>
#include <vector>

#include "net/transport.h"
#include "serve/async_client.h"

namespace cookiepicker::serve {

class SocketTransport : public net::Transport {
 public:
  explicit SocketTransport(AsyncHttpClient& client) : client_(client) {}

  net::Exchange dispatch(const net::HttpRequest& request) override {
    std::promise<net::Exchange> promise;
    std::future<net::Exchange> future = promise.get_future();
    client_.fetch(request, [&promise](net::Exchange exchange) {
      promise.set_value(std::move(exchange));
    });
    return future.get();
  }

  std::vector<net::Exchange> dispatchBatch(
      const std::vector<net::HttpRequest>& requests) override {
    std::vector<std::promise<net::Exchange>> promises(requests.size());
    for (std::size_t i = 0; i < requests.size(); ++i) {
      client_.fetch(requests[i],
                    [&promises, i](net::Exchange exchange) {
                      promises[i].set_value(std::move(exchange));
                    });
    }
    std::vector<net::Exchange> exchanges;
    exchanges.reserve(requests.size());
    for (auto& promise : promises) {
      exchanges.push_back(promise.get_future().get());
    }
    return exchanges;
  }

  bool ownsRetryTiming() const override { return true; }

  AsyncHttpClient& client() { return client_; }

 private:
  AsyncHttpClient& client_;
};

}  // namespace cookiepicker::serve
