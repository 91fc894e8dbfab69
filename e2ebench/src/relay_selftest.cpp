// Self-test of the WAN relay (relay.h):
//   1. frames arrive byte-identical and in order, in both directions;
//   2. no frame arrives earlier than delay(i, j) after it was sent;
//   3. when either side closes, the relay closes the other side.
//
// A client (as validator 0) dials the relay's 0->1 port; a server (as
// validator 1) is the relay's destination and echoes every frame back.
// Exit code 0 and a PASS line when every check holds.
//
// Build & run: python3 e2ebench/run.py --selftest
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "common/rng.h"
#include "relay.h"

using namespace mahimahi;
using namespace mahimahi::net;

namespace {

constexpr TimeMicros kForwardDelay = 30'000;   // 0 -> 1
constexpr TimeMicros kBackwardDelay = 50'000;  // 1 -> 0
constexpr std::uint32_t kFrames = 200;

// Frame `seq`: [u32 seq][i64 send stamp][seeded filler]. Sizes vary from a
// few bytes to 1 MiB so frames straddle socket reads.
Bytes make_frame(std::uint32_t seq, TimeMicros sent) {
  Rng rng(seq + 1);
  const std::size_t size = seq % 50 == 7 ? (1u << 20) : 12 + rng.uniform(4096);
  Bytes frame(size);
  for (std::size_t i = 12; i < size; ++i) frame[i] = static_cast<std::uint8_t>(rng.next_u64());
  std::memcpy(frame.data(), &seq, 4);
  std::memcpy(frame.data() + 4, &sent, 8);
  return frame;
}

struct Check {
  std::vector<std::string> failures;
  void expect(bool ok, const std::string& what) {
    if (!ok && failures.size() < 20) failures.push_back(what);
  }
};

// Checks one received frame against the regenerated original; returns its
// send stamp.
TimeMicros check_frame(Check& check, BytesView frame, std::uint32_t expected_seq,
                       const char* side) {
  if (frame.size() < 12) {
    check.expect(false, std::string(side) + ": short frame");
    return 0;
  }
  std::uint32_t seq = 0;
  TimeMicros sent = 0;
  std::memcpy(&seq, frame.data(), 4);
  std::memcpy(&sent, frame.data() + 4, 8);
  check.expect(seq == expected_seq, std::string(side) + ": frame " + std::to_string(seq) +
                                        " arrived where " + std::to_string(expected_seq) +
                                        " was due");
  const Bytes original = make_frame(seq, sent);
  check.expect(original.size() == frame.size() &&
                   std::memcmp(original.data(), frame.data(), frame.size()) == 0,
               std::string(side) + ": frame " + std::to_string(seq) + " changed in transit");
  return sent;
}

}  // namespace

int main() {
  Check check;
  EventLoop loop;
  e2ebench::FrameRelay relay(2, [](ValidatorId from, ValidatorId) {
    return from == 0 ? kForwardDelay : kBackwardDelay;
  });

  std::vector<TcpConnectionPtr> accepted;
  std::uint32_t server_seen = 0;
  std::uint32_t client_seen = 0;
  int phase = 1;  // 1: traffic, 2: client closes, 3: server closes
  bool server_closed_seen = false;
  bool client_closed_seen = false;
  TcpConnectionPtr client;

  auto finish = [&] { loop.stop(); };
  std::function<void()> dial_client;

  TcpListener server(loop, 0, [&](TcpConnectionPtr connection) {
    accepted.push_back(connection);
    std::weak_ptr<TcpConnection> weak = connection;
    connection->start(
        [&, weak](BytesView frame) {
          if (phase != 1) return;  // the close phases only need the splice
          const TimeMicros sent = check_frame(check, frame, server_seen, "0->1");
          check.expect(steady_now_micros() - sent >= kForwardDelay,
                       "0->1: frame " + std::to_string(server_seen) + " arrived early");
          ++server_seen;
          if (auto c = weak.lock()) c->send_frame(frame);  // echo back
        },
        [&] {
          server_closed_seen = true;
          if (phase == 2) {
            // Phase 3: a fresh pair, closed from the server side this time.
            phase = 3;
            dial_client();
          }
        });
  });
  relay.set_destination(1, server.port());

  dial_client = [&] {
    tcp_connect(loop, "127.0.0.1", relay.link_port(0, 1), [&](TcpConnectionPtr connection) {
      if (connection == nullptr) {
        check.expect(false, "could not dial the relay");
        finish();
        return;
      }
      client = connection;
      if (phase == 1) {
        client->start(
            [&](BytesView frame) {
              const TimeMicros sent = check_frame(check, frame, client_seen, "1->0 echo");
              check.expect(steady_now_micros() - sent >= kForwardDelay + kBackwardDelay,
                           "echo of frame " + std::to_string(client_seen) + " arrived early");
              if (++client_seen == kFrames) {
                phase = 2;
                client->close();  // the relay must close the server side
              }
            },
            [] {});
        for (std::uint32_t seq = 0; seq < kFrames; ++seq) {
          client->send_frame(make_frame(seq, steady_now_micros()));
        }
      } else {
        client->start([](BytesView) {}, [&] {
          client_closed_seen = true;
          finish();
        });
        // Wait until the relay has spliced the new pair, then close the
        // server side of it.
        client->send_frame(make_frame(0, steady_now_micros()));
        loop.schedule(200'000, [&] {
          if (!accepted.empty()) accepted.back()->close();
        });
      }
    });
  };
  loop.post([&] { dial_client(); });
  loop.schedule(20'000'000, [&] {
    check.expect(false, "timed out (phase " + std::to_string(phase) + ")");
    finish();
  });
  loop.run();
  // The teardown closes belong to this loop's thread: it is the one that ran.
  if (client) client->close();
  for (auto& c : accepted) c->close();
  relay.stop();

  check.expect(server_seen >= kFrames, "server received " + std::to_string(server_seen) +
                                           " of " + std::to_string(kFrames) + " frames");
  check.expect(client_seen == kFrames, "client received " + std::to_string(client_seen) +
                                           " of " + std::to_string(kFrames) + " echoes");
  check.expect(server_closed_seen, "client close did not reach the server");
  check.expect(client_closed_seen, "server close did not reach the client");
  for (const std::string& f : check.failures) std::printf("relay_selftest: FAIL %s\n", f.c_str());
  std::printf("relay_selftest: %s (%u frames each way, %llu relayed)\n",
              check.failures.empty() ? "PASS" : "FAIL", client_seen,
              static_cast<unsigned long long>(relay.frames_forwarded()));
  return check.failures.empty() ? 0 : 1;
}
