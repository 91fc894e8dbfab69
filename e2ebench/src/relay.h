// In-process WAN emulation for a localhost NodeRuntime cluster.
//
// Every validator i is configured so that peers[j] (j != i) is the relay's
// port for the link i->j. The relay accepts that connection, dials validator
// j's real listen port, and forwards every length-prefixed frame unchanged,
// FIFO, no earlier than delay(i, j) after it read the frame. Frames flowing
// the other way on the same pair use delay(j, i). When either side closes,
// the relay closes the other side too, so a validator that loses its peer
// sees the same disconnect it would see without the relay and re-dials.
//
// Everything runs on one EventLoop thread, built only from the library's
// public transport (net::EventLoop, TcpListener, tcp_connect).
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "common/time.h"
#include "net/event_loop.h"
#include "net/tcp.h"
#include "types/ids.h"

namespace e2ebench {

using mahimahi::TimeMicros;
using mahimahi::ValidatorId;

class FrameRelay {
 public:
  using DelayFn = std::function<TimeMicros(ValidatorId from, ValidatorId to)>;

  // Binds one loopback listener per ordered pair (i, j), i != j, and starts
  // the relay thread.
  FrameRelay(std::uint32_t validators, DelayFn delay);
  ~FrameRelay();

  FrameRelay(const FrameRelay&) = delete;
  FrameRelay& operator=(const FrameRelay&) = delete;

  // The port validator `from` must dial to reach validator `to`.
  std::uint16_t link_port(ValidatorId from, ValidatorId to) const {
    return link_ports_[from * n_ + to];
  }

  // Where validator `to` really listens. Connections accepted for links
  // into `to` before this is known wait, then dial. Thread-safe.
  void set_destination(ValidatorId to, std::uint16_t port);

  // Closes every relayed connection and joins the relay thread. Idempotent.
  void stop();

  std::uint64_t frames_forwarded() const {
    return frames_forwarded_.load(std::memory_order_relaxed);
  }

 private:
  struct Direction {
    TimeMicros delay = 0;
    std::deque<std::pair<TimeMicros, mahimahi::net::SharedFrame>> queue;
    bool timer_armed = false;
  };
  // One accepted connection from `from`, spliced to a dialed connection to
  // `to`. Loop thread only.
  struct Pair {
    ValidatorId from = 0;
    ValidatorId to = 0;
    mahimahi::net::TcpConnectionPtr upstream;    // accepted from `from`
    mahimahi::net::TcpConnectionPtr downstream;  // dialed to `to`
    Direction forward;                           // upstream -> downstream
    Direction backward;                          // downstream -> upstream
    bool closed = false;
  };
  using PairPtr = std::shared_ptr<Pair>;

  void on_accept(ValidatorId from, ValidatorId to,
                 mahimahi::net::TcpConnectionPtr connection);
  void dial(const PairPtr& pair);
  void enqueue(const PairPtr& pair, bool forward, mahimahi::BytesView frame);
  void flush(const PairPtr& pair, bool forward);
  void close_pair(PairPtr pair);

  const std::uint32_t n_;
  DelayFn delay_;
  std::vector<std::uint16_t> link_ports_;
  std::atomic<std::uint64_t> frames_forwarded_{0};

  // Loop-thread state.
  mahimahi::net::EventLoop loop_;
  std::vector<std::unique_ptr<mahimahi::net::TcpListener>> listeners_;
  std::vector<std::uint16_t> destinations_;  // 0 = not known yet
  std::vector<PairPtr> pairs_;
  std::vector<PairPtr> waiting_;  // accepted, destination unknown

  // Declared last: the thread uses every member above.
  std::thread thread_;
};

}  // namespace e2ebench
