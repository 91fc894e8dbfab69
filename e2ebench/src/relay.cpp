#include "relay.h"

namespace e2ebench {

using mahimahi::steady_now_micros;
using mahimahi::net::TcpConnectionPtr;
using mahimahi::net::TcpListener;

namespace {
constexpr TimeMicros kDialRetry = 20'000;
}  // namespace

FrameRelay::FrameRelay(std::uint32_t validators, DelayFn delay)
    : n_(validators),
      delay_(std::move(delay)),
      link_ports_(static_cast<std::size_t>(validators) * validators, 0),
      destinations_(validators, 0) {
  // The loop is not running yet, so registering listeners from this thread
  // is safe; the relay thread owns them from here on.
  for (ValidatorId from = 0; from < n_; ++from) {
    for (ValidatorId to = 0; to < n_; ++to) {
      if (from == to) continue;
      listeners_.push_back(std::make_unique<TcpListener>(
          loop_, 0, [this, from, to](TcpConnectionPtr connection) {
            on_accept(from, to, std::move(connection));
          }));
      link_ports_[from * n_ + to] = listeners_.back()->port();
    }
  }
  thread_ = std::thread([this] {
    loop_.run();
    // Teardown on the loop thread: connections deregister from this loop.
    const std::vector<PairPtr> pairs = pairs_;
    for (const PairPtr& pair : pairs) close_pair(pair);
    listeners_.clear();
  });
  // EventLoop::run() clears a stop request made before it started, so stop()
  // is only safe once the loop is running.
  while (!loop_.running()) std::this_thread::yield();
}

FrameRelay::~FrameRelay() { stop(); }

void FrameRelay::stop() {
  if (!thread_.joinable()) return;
  loop_.stop();
  thread_.join();
}

void FrameRelay::set_destination(ValidatorId to, std::uint16_t port) {
  loop_.post([this, to, port] {
    destinations_[to] = port;
    std::vector<PairPtr> ready;
    std::erase_if(waiting_, [&](const PairPtr& pair) {
      if (pair->to != to) return false;
      ready.push_back(pair);
      return true;
    });
    for (const PairPtr& pair : ready) dial(pair);
  });
}

void FrameRelay::on_accept(ValidatorId from, ValidatorId to, TcpConnectionPtr connection) {
  auto pair = std::make_shared<Pair>();
  pair->from = from;
  pair->to = to;
  pair->forward.delay = delay_(from, to);
  pair->backward.delay = delay_(to, from);
  pair->upstream = std::move(connection);
  pairs_.push_back(pair);
  const std::weak_ptr<Pair> weak = pair;
  pair->upstream->start(
      [this, weak](mahimahi::BytesView frame) {
        if (PairPtr p = weak.lock()) enqueue(p, /*forward=*/true, frame);
      },
      [this, weak] {
        if (PairPtr p = weak.lock()) close_pair(p);
      });
  if (destinations_[to] == 0) {
    waiting_.push_back(pair);
  } else {
    dial(pair);
  }
}

void FrameRelay::dial(const PairPtr& pair) {
  const std::weak_ptr<Pair> weak = pair;
  mahimahi::net::tcp_connect(
      loop_, "127.0.0.1", destinations_[pair->to], [this, weak](TcpConnectionPtr connection) {
        PairPtr p = weak.lock();
        if (p == nullptr || p->closed) {
          if (connection) connection->close();
          return;
        }
        if (connection == nullptr) {
          loop_.schedule(kDialRetry, [this, weak] {
            PairPtr retry = weak.lock();
            if (retry != nullptr && !retry->closed) dial(retry);
          });
          return;
        }
        p->downstream = std::move(connection);
        p->downstream->start(
            [this, weak](mahimahi::BytesView frame) {
              if (PairPtr q = weak.lock()) enqueue(q, /*forward=*/false, frame);
            },
            [this, weak] {
              if (PairPtr q = weak.lock()) close_pair(q);
            });
        // Frames that came due while the dial was in flight go out now.
        flush(p, /*forward=*/true);
      });
}

void FrameRelay::enqueue(const PairPtr& pair, bool forward, mahimahi::BytesView frame) {
  if (pair->closed) return;
  Direction& direction = forward ? pair->forward : pair->backward;
  direction.queue.emplace_back(steady_now_micros() + direction.delay,
                               mahimahi::net::make_shared_frame(
                                   mahimahi::Bytes(frame.begin(), frame.end())));
  if (!direction.timer_armed) flush(pair, forward);
}

void FrameRelay::flush(const PairPtr& pair, bool forward) {
  Direction& direction = forward ? pair->forward : pair->backward;
  const TcpConnectionPtr& target = forward ? pair->downstream : pair->upstream;
  if (pair->closed || target == nullptr) return;  // dial completion flushes
  const TimeMicros now = steady_now_micros();
  while (!direction.queue.empty() && direction.queue.front().first <= now) {
    target->send_frame(std::move(direction.queue.front().second));
    direction.queue.pop_front();
    frames_forwarded_.fetch_add(1, std::memory_order_relaxed);
    if (pair->closed) return;  // the send failed and closed the pair
  }
  direction.timer_armed = !direction.queue.empty();
  if (!direction.timer_armed) return;
  const std::weak_ptr<Pair> weak = pair;
  loop_.schedule(direction.queue.front().first - now, [this, weak, forward] {
    PairPtr p = weak.lock();
    if (p == nullptr) return;
    (forward ? p->forward : p->backward).timer_armed = false;
    flush(p, forward);
  });
}

void FrameRelay::close_pair(PairPtr pair) {
  if (pair->closed) return;
  pair->closed = true;
  pair->forward.queue.clear();
  pair->backward.queue.clear();
  if (pair->upstream) pair->upstream->close();
  if (pair->downstream) pair->downstream->close();
  std::erase(pairs_, pair);
  std::erase(waiting_, pair);
}

}  // namespace e2ebench
