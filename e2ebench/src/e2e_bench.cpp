// e2e_bench: socket-level end-to-end benchmark of a localhost NodeRuntime
// cluster.
//
//   e2e_bench --workload <wan-mm5|wan-mm4|lan-durable|lan-kv> --seed <n>
//             --seconds <s> --trace <0|1> --workdir <dir>
//
// One process runs the whole cluster: n NodeRuntime validators over loopback
// TCP, an open-loop Poisson client on this (main) thread that sends every
// batch through NodeRuntime::submit, and — for the WAN workloads — one relay
// thread that delays every frame by the GeoLatency matrix (relay.h). Commits
// are observed through each validator's commit handler.
//
// --trace 0 prints the end-to-end metrics; --trace 1 prints the per-layer
// metrics: counters the benchmark keeps around its own calls, window deltas
// of the nodes' registries, and a replay of validator 0's captured committed
// blocks through each layer's public functions. The last stdout line is one
// JSON object {correct, attempted, failed, metrics}. README.md in this
// directory describes the workloads and metrics.
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "checkpoint/checkpoint.h"
#include "checkpoint/segmented_wal.h"
#include "client/kv_batches.h"
#include "common/rng.h"
#include "core/committer.h"
#include "dag/dag.h"
#include "exec/engine.h"
#include "mempool/mempool.h"
#include "net/node_runtime.h"
#include "obs/metrics.h"
#include "relay.h"
#include "sim/latency.h"
#include "types/validation.h"
#include "validator/validator.h"

namespace e2ebench {
namespace {

using namespace mahimahi;
namespace fs = std::filesystem;

// ---------------------------------------------------------------------------
// Workloads

struct Workload {
  std::string name;
  std::uint32_t validators = 4;
  bool wan = false;              // frames go through the GeoLatency relay
  CommitterOptions committer;
  TimeMicros min_round_delay = 0;
  double batches_per_second = 0;
  std::uint32_t tx_per_batch = 1;  // opaque txs, or KV commands per batch
  bool kv = false;                 // client::synth_kv_batch payloads, executed (execute_app)
  bool durable = false;            // segmented WAL + certified checkpoints
};

constexpr Round kGcDepth = 50;
constexpr std::uint32_t kTxBytes = 512;
constexpr std::uint32_t kClientsPerValidator = 4;
constexpr int kSetups = 3;  // setup_s is the median of this many cluster starts
constexpr TimeMicros kSlice = 1'000'000;   // window slice; traced/untraced interleave
// finality_p99_ms is the median of the p99 of each run of this many slices:
// one leader skip or checkpoint stall must not swing a whole run's p99.
constexpr std::size_t kTailSlices = 5;
constexpr TimeMicros kWarmup = 2'000'000;  // load before the window opens
constexpr TimeMicros kDrain = 10'000'000;  // deadline after the window for its batches
// Validator 0's committed sub-DAGs kept for replay (--trace 1), whichever
// cap is reached first.
constexpr std::size_t kCaptureBlocks = 1200;
constexpr std::uint64_t kCaptureBytes = 64ull << 20;

Workload make_workload(const std::string& name) {
  Workload w;
  w.name = name;
  if (name == "wan-mm5" || name == "wan-mm4") {
    w.validators = 10;
    w.wan = true;
    w.committer = name == "wan-mm5" ? mahi_mahi_5(2) : mahi_mahi_4(2);
    w.batches_per_second = 1000;  // 10k tx/s
    w.tx_per_batch = 10;
  } else if (name == "lan-durable") {
    w.committer = mahi_mahi_5(2);
    w.min_round_delay = millis(20);
    w.batches_per_second = 1250;  // 50k tx/s
    w.tx_per_batch = 40;
    w.durable = true;
  } else if (name == "lan-kv") {
    w.committer = mahi_mahi_5(2);
    w.min_round_delay = millis(20);
    w.batches_per_second = 20000;  // 160k commands/s
    w.tx_per_batch = 8;
    w.kv = true;
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  w.committer.gc_depth = kGcDepth;
  return w;
}

// ---------------------------------------------------------------------------
// Small helpers

TimeMicros now_us() { return steady_now_micros(); }

double cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

void sleep_until_us(TimeMicros deadline) {
  // steady_clock is CLOCK_MONOTONIC on Linux.
  timespec ts{};
  ts.tv_sec = deadline / 1'000'000;
  ts.tv_nsec = (deadline % 1'000'000) * 1000;
  while (clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr) == EINTR) {
  }
}

template <typename T>
double percentile(std::vector<T> values, double p) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double rank = p * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const auto hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return static_cast<double>(values[lo]) * (1 - frac) + static_cast<double>(values[hi]) * frac;
}

double median(std::vector<double> values) { return percentile(std::move(values), 0.5); }

double ratio(double num, double den) { return den == 0 ? 0 : num / den; }

// Batch ids: (stream << 40) | sequence, stream = origin * kClientsPerValidator
// + client. The mempool shards by id >> 32, so each client stream keeps FIFO.
constexpr std::uint64_t kSeqMask = (1ull << 40) - 1;
std::uint64_t stream_of(std::uint64_t id) { return id >> 40; }
std::uint64_t seq_of(std::uint64_t id) { return id & kSeqMask; }

// ---------------------------------------------------------------------------
// Per-validator commit observer

// The window and tracing switches the commit handlers read. Set by the
// generator thread before the first batch that could fall in the window.
struct RunClock {
  std::atomic<TimeMicros> w0{INT64_MAX};
  std::atomic<TimeMicros> w1{INT64_MAX};
  bool trace = false;

  bool in_window(TimeMicros t) const {
    return t >= w0.load(std::memory_order_relaxed) && t < w1.load(std::memory_order_relaxed);
  }
  // Index of the window slice holding t (t must be in the window).
  std::size_t slice_of(TimeMicros t) const {
    return static_cast<std::size_t>((t - w0.load(std::memory_order_relaxed)) / kSlice);
  }
  // Slice class inside the window: 1 = traced slice, 0 = untraced. Outside
  // the window and in --trace 0 runs everything is class 0.
  int slice_class(TimeMicros t) const {
    if (!trace || !in_window(t)) return 0;
    return static_cast<int>(slice_of(t) % 2);
  }
};

struct OriginSample {
  TimeMicros due = 0;
  TimeMicros committed = 0;
  TimeMicros block_created = 0;
};

struct Recorder {
  ValidatorId id = 0;
  const net::NodeRuntime* node = nullptr;
  const RunClock* clock = nullptr;
  const std::vector<std::atomic<std::uint64_t>>* submitted = nullptr;  // per stream
  std::uint32_t streams = 0;
  std::uint32_t tx_per_batch = 1;
  bool capture = false;  // validator 0 in --trace 1: keep sub-DAGs for replay

  std::atomic<bool> first_commit{false};
  std::atomic<std::uint64_t> batches_committed{0};
  std::atomic<std::uint64_t> window_batches{0};   // due in window, at origin
  // Transactions committed at their origin, per window slice of commit time.
  std::vector<std::atomic<std::uint64_t>> slice_tx;

  std::mutex mutex;  // guards everything below (loop thread vs. reader)
  std::vector<std::pair<SlotId, Digest>> slots;
  std::vector<OriginSample> samples;              // batches due in the window
  std::vector<std::vector<std::uint8_t>> seen;    // origin dedup, per local stream
  std::string failure;
  // --trace 1 records.
  double finality_sum_us = 0;                     // all batches, commits in window
  double finality_weight = 0;
  std::vector<std::int64_t> depth_rounds;         // traced slices
  std::vector<TimeMicros> proposal_to_commit;     // own blocks, traced slices
  // v0: (round, author, created_at, batches) of every committed block.
  std::vector<std::tuple<Round, ValidatorId, TimeMicros, std::size_t>> committed_blocks;
  std::vector<TimeMicros> subdag_commit_times;    // v0, every sub-DAG
  std::vector<CommittedSubDag> captured;          // v0 replay input
  std::size_t captured_blocks = 0;
  std::uint64_t captured_bytes = 0;

  std::string name() const {
    std::string out = "validator ";
    out += std::to_string(id);
    return out;
  }

  void fail(std::string why) {
    if (failure.empty()) failure = std::move(why);
  }

  void on_commit(const CommittedSubDag& sub_dag) {
    const TimeMicros now = now_us();
    const bool traced = clock->slice_class(now) == 1;
    const bool now_in_window = clock->in_window(now);
    const auto round = static_cast<std::int64_t>(node->highest_round());
    std::lock_guard<std::mutex> lock(mutex);
    slots.emplace_back(sub_dag.slot,
                       sub_dag.leader ? sub_dag.leader->digest() : Digest{});
    if (capture) {
      subdag_commit_times.push_back(now);
      if (captured_blocks < kCaptureBlocks && captured_bytes < kCaptureBytes) {
        captured.push_back(sub_dag);
        captured_blocks += sub_dag.blocks.size();
        for (const BlockPtr& block : sub_dag.blocks) captured_bytes += block->wire_bytes();
      }
    }
    std::uint64_t batches = 0;
    std::uint64_t own_tx = 0;
    for (const BlockPtr& block : sub_dag.blocks) {
      if (capture) {
        committed_blocks.emplace_back(block->round(), block->author(), block->created_at(),
                                      block->batches().size());
      }
      if (traced) {
        depth_rounds.push_back(round - static_cast<std::int64_t>(block->round()));
        if (block->author() == id && block->created_at() > 0) {
          proposal_to_commit.push_back(now - block->created_at());
        }
      }
      for (const TxBatch& batch : block->batches()) {
        ++batches;
        const std::uint64_t stream = stream_of(batch.id);
        const std::uint64_t seq = seq_of(batch.id);
        if (stream >= streams ||
            seq >= (*submitted)[stream].load(std::memory_order_acquire) ||
            batch.count != tx_per_batch) {
          fail(name() + " committed a batch that was never submitted (id " +
               std::to_string(batch.id) + ")");
          continue;
        }
        if (clock->trace && now_in_window && batch.submitted_at > 0) {
          finality_sum_us += static_cast<double>(now - batch.submitted_at) * batch.count;
          finality_weight += batch.count;
        }
        if (stream / kClientsPerValidator != id) continue;
        // Committed at its origin: exactly once.
        auto& bits = seen[stream % kClientsPerValidator];
        if (bits.size() <= seq) bits.resize(std::max<std::size_t>(seq + 1, bits.size() * 2), 0);
        if (bits[seq] != 0) {
          fail(name() + " committed batch " + std::to_string(batch.id) + " twice");
          continue;
        }
        bits[seq] = 1;
        if (now_in_window) own_tx += batch.count;
        if (clock->in_window(batch.submitted_at)) {
          window_batches.fetch_add(1, std::memory_order_relaxed);
          samples.push_back({batch.submitted_at, now, block->created_at()});
        }
      }
    }
    batches_committed.fetch_add(batches, std::memory_order_relaxed);
    if (now_in_window) slice_tx[clock->slice_of(now)].fetch_add(own_tx, std::memory_order_relaxed);
    first_commit.store(true, std::memory_order_release);
  }
};

// ---------------------------------------------------------------------------
// Cluster

struct Cluster {
  std::unique_ptr<FrameRelay> relay;
  std::vector<std::unique_ptr<Recorder>> recorders;
  std::vector<std::unique_ptr<net::NodeRuntime>> nodes;
  std::vector<std::string> wal_dirs;

  bool stopped = false;

  void stop() {
    if (stopped) return;
    stopped = true;
    for (auto& node : nodes) node->stop();
    if (relay) relay->stop();
  }
  ~Cluster() { stop(); }
};

std::vector<std::uint16_t> claim_ports(std::uint32_t n) {
  // Pre-claim ephemeral ports with short-lived listeners: every node needs
  // the whole mesh up front.
  std::vector<std::uint16_t> ports;
  net::EventLoop probe_loop;
  std::vector<std::unique_ptr<net::TcpListener>> probes;
  for (std::uint32_t i = 0; i < n; ++i) {
    probes.push_back(std::make_unique<net::TcpListener>(probe_loop, 0, [](net::TcpConnectionPtr) {}));
    ports.push_back(probes.back()->port());
  }
  return ports;
}

std::unique_ptr<Cluster> build_cluster(const Workload& w, const Committee::TestSetup& setup,
                                       const RunClock& clock,
                                       const std::vector<std::atomic<std::uint64_t>>& submitted,
                                       const fs::path& wal_root, std::size_t slices,
                                       bool capture) {
  auto cluster = std::make_unique<Cluster>();
  const std::uint32_t n = w.validators;
  std::vector<net::NodeAddress> direct(n);
  if (w.wan) {
    const GeoLatency geo;
    cluster->relay = std::make_unique<FrameRelay>(
        n, [geo](ValidatorId from, ValidatorId to) { return geo.base(from, to); });
  } else {
    const auto ports = claim_ports(n);
    for (std::uint32_t i = 0; i < n; ++i) direct[i].port = ports[i];
  }
  for (ValidatorId v = 0; v < n; ++v) {
    net::NodeRuntimeConfig config;
    config.validator.id = v;
    config.validator.committer = w.committer;
    config.validator.min_round_delay = w.min_round_delay;
    config.validator.execute_app = w.kv;
    config.peers = direct;
    if (w.wan) {
      for (ValidatorId j = 0; j < n; ++j) {
        config.peers[j].port = j == v ? 0 : cluster->relay->link_port(v, j);
      }
    }
    if (w.durable) {
      config.wal_path = (wal_root / ("v" + std::to_string(v))).string();
      config.validator.wal_group_commit = true;
      config.validator.checkpoint_interval = 50;
      cluster->wal_dirs.push_back(config.wal_path);
    }
    auto recorder = std::make_unique<Recorder>();
    recorder->id = v;
    recorder->clock = &clock;
    recorder->submitted = &submitted;
    recorder->streams = n * kClientsPerValidator;
    recorder->tx_per_batch = w.tx_per_batch;
    recorder->seen.resize(kClientsPerValidator);
    recorder->slice_tx = std::vector<std::atomic<std::uint64_t>>(slices);
    recorder->capture = capture && v == 0;
    auto node = std::make_unique<net::NodeRuntime>(setup.committee,
                                                   setup.keypairs[v].private_key, config);
    recorder->node = node.get();
    Recorder* observer = recorder.get();
    node->set_commit_handler([observer](const CommittedSubDag& sub_dag) {
      observer->on_commit(sub_dag);
    });
    cluster->recorders.push_back(std::move(recorder));
    cluster->nodes.push_back(std::move(node));
  }
  for (auto& node : cluster->nodes) node->start();
  if (w.wan) {
    for (ValidatorId v = 0; v < n; ++v) {
      cluster->relay->set_destination(v, cluster->nodes[v]->listen_port());
    }
  }
  return cluster;
}

bool wait_first_commits(const Cluster& cluster, TimeMicros deadline) {
  for (;;) {
    bool all = true;
    for (const auto& r : cluster.recorders) all = all && r->first_commit.load(std::memory_order_acquire);
    if (all) return true;
    if (now_us() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::microseconds(500));
  }
}

// ---------------------------------------------------------------------------
// Load generator

class Generator {
 public:
  Generator(const Workload& w, std::uint64_t seed,
            std::vector<std::atomic<std::uint64_t>>& submitted)
      : w_(w), rng_(seed), submitted_(submitted),
        mean_gap_us_(1e6 / w.batches_per_second) {
    if (!w.kv) {
      // Opaque 512-B transactions: slices of one seeded random pool, with the
      // batch id stamped in front so every payload is distinct.
      pool_.resize(1 << 20);
      for (auto& byte : pool_) byte = static_cast<std::uint8_t>(rng_.next_u64());
    }
    kv_.conflict_percent = 25;
    kv_.commands_per_batch = w.tx_per_batch;
    kv_.value_bytes = 16;
  }

  void start(TimeMicros t) { next_due_ = static_cast<double>(t); }
  TimeMicros next_due() const { return static_cast<TimeMicros>(next_due_); }

  // Builds the next batch (due at next_due()) and advances the schedule.
  std::pair<ValidatorId, TxBatch> next() {
    const TimeMicros due = next_due();
    next_due_ += rng_.exponential(mean_gap_us_);
    const auto origin = static_cast<ValidatorId>(rng_.uniform(w_.validators));
    const std::uint64_t stream = origin * kClientsPerValidator + rng_.uniform(kClientsPerValidator);
    const std::uint64_t seq = submitted_[stream].load(std::memory_order_relaxed);
    TxBatch batch;
    if (w_.kv) {
      batch = client::synth_kv_batch(kv_, stream, seq, rng_, due);
    } else {
      batch.id = (stream << 40) | seq;
      batch.submitted_at = due;
      batch.count = w_.tx_per_batch;
      batch.tx_bytes = kTxBytes;
      const std::size_t len = static_cast<std::size_t>(w_.tx_per_batch) * kTxBytes;
      const std::size_t offset = rng_.uniform(pool_.size() - len);
      batch.payload.assign(pool_.begin() + static_cast<std::ptrdiff_t>(offset),
                           pool_.begin() + static_cast<std::ptrdiff_t>(offset + len));
      std::memcpy(batch.payload.data(), &batch.id, sizeof(batch.id));
    }
    // Published before the batch can reach any validator.
    submitted_[stream].store(seq + 1, std::memory_order_release);
    return {origin, std::move(batch)};
  }

 private:
  const Workload& w_;
  Rng rng_;
  std::vector<std::atomic<std::uint64_t>>& submitted_;
  double mean_gap_us_;
  double next_due_ = 0;
  Bytes pool_;
  client::KvWorkload kv_;
};

// ---------------------------------------------------------------------------
// Window snapshots of the nodes' own counters

struct NodeSnapshot {
  obs::MetricsSnapshot metrics;
  net::NodeRuntime::IoPlaneReport io;
  std::uint64_t committed_blocks = 0;
  std::uint64_t checkpoints = 0;
  std::uint64_t certs = 0;
  exec::ExecStats exec;
  Round round = 0;
};

std::vector<NodeSnapshot> snapshot_nodes(const Cluster& cluster, bool full) {
  std::vector<NodeSnapshot> out;
  for (const auto& node : cluster.nodes) {
    NodeSnapshot s;
    s.round = node->highest_round();
    if (full) {
      s.metrics = node->metrics_registry().dump();
      s.io = node->io_plane_report();
      s.committed_blocks = node->committed_blocks();
      s.checkpoints = node->checkpoints_written();
      s.certs = node->checkpoint_certs();
      s.exec = node->execution_stats();
    }
    out.push_back(std::move(s));
  }
  return out;
}

// Mean of a registry histogram over the window, across validators.
double window_hist_mean(const std::vector<NodeSnapshot>& a, const std::vector<NodeSnapshot>& b,
                        const char* name) {
  double sum = 0;
  double count = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const auto ha = a[i].metrics.histogram(name);
    const auto hb = b[i].metrics.histogram(name);
    sum += static_cast<double>(hb.sum - ha.sum);
    count += static_cast<double>(hb.count() - ha.count());
  }
  return ratio(sum, count);
}

// ---------------------------------------------------------------------------
// Results

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out.push_back(c);
  }
  return out;
}

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics, const std::string& failure) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              correct ? "true" : "false", static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.12g, \"unit\": \"%s\"}", i ? ", " : "",
                metrics[i].name.c_str(), v, metrics[i].unit);
  }
  std::printf("}");
  if (!failure.empty()) std::printf(", \"failure\": \"%s\"", json_escape(failure).c_str());
  std::printf("}\n");
  std::fflush(stdout);
}

// ---------------------------------------------------------------------------
// Replay of validator 0's captured blocks through each layer (--trace 1)

struct ReplayResult {
  double serde_encode_us = 0, serde_decode_us = 0, crypto_us = 0, structural_us = 0;
  double dag_insert_us = 0, scan_us = 0, on_blocks_us = 0;
  double direct_commit_frac = 0, skipped_slot_frac = 0;
  double admit_us = 0, drain_us = 0;
  double wal_append_us = 0, wal_bytes_per_tx = 0, checkpoint_ms = 0;
  double exec_apply_us = 0;
  std::size_t blocks = 0;
  std::string failure;
};

template <typename F>
double time_us(F&& f) {
  const auto t0 = std::chrono::steady_clock::now();
  f();
  return std::chrono::duration<double, std::micro>(std::chrono::steady_clock::now() - t0).count();
}

ReplayResult replay(const Workload& w, const Committee::TestSetup& setup,
                    const std::vector<CommittedSubDag>& captured,
                    const std::vector<std::pair<SlotId, Digest>>& live_slots,
                    const fs::path& scratch) {
  ReplayResult out;
  const Committee& committee = setup.committee;
  // Round order mimics a DAG growing round by round; one round is one
  // ingestion group.
  std::vector<BlockPtr> blocks;
  for (const auto& sub : captured) {
    for (const BlockPtr& b : sub.blocks) {
      // Genesis blocks are built locally, never sent: nothing to replay.
      if (b->round() > 0) blocks.push_back(b);
    }
  }
  std::stable_sort(blocks.begin(), blocks.end(), [](const BlockPtr& a, const BlockPtr& b) {
    return a->round() < b->round();
  });
  std::vector<std::vector<BlockPtr>> rounds;
  for (const BlockPtr& b : blocks) {
    if (rounds.empty() || rounds.back().front()->round() != b->round()) rounds.emplace_back();
    rounds.back().push_back(b);
  }
  out.blocks = blocks.size();
  if (blocks.empty()) {
    out.failure = "replay: nothing captured";
    return out;
  }
  const double nblocks = static_cast<double>(blocks.size());

  // serde: three passes, median of the per-pass means.
  {
    std::vector<double> enc, dec;
    for (int pass = 0; pass < 3; ++pass) {
      double te = 0, td = 0;
      for (const BlockPtr& b : blocks) {
        Bytes wire;
        te += time_us([&] { wire = b->serialize(); });
        Digest digest;
        td += time_us([&] { digest = Block::deserialize(wire).digest(); });
        if (digest != b->digest()) out.failure = "replay: serde round trip changed a digest";
      }
      enc.push_back(te / nblocks);
      dec.push_back(td / nblocks);
    }
    out.serde_encode_us = median(enc);
    out.serde_decode_us = median(dec);
  }
  // validator structural + crypto (one round = one verify group).
  {
    double ts = 0, tc = 0;
    for (const auto& group : rounds) {
      for (const BlockPtr& b : group) {
        BlockValidity v = BlockValidity::kValid;
        ts += time_us([&] { v = validate_block_structure(*b, committee); });
        if (v != BlockValidity::kValid) out.failure = "replay: committed block fails structure";
      }
      std::vector<BlockValidity> verdicts;
      tc += time_us([&] { verdicts = validate_blocks_crypto(std::span<const BlockPtr>(group), committee); });
      for (auto v : verdicts) {
        if (v != BlockValidity::kValid) out.failure = "replay: committed block fails crypto";
      }
    }
    out.structural_us = ts / nblocks;
    out.crypto_us = tc / nblocks;
  }
  // dag insert, then the commit rule over a second DAG (insert untimed).
  {
    Dag dag(committee);
    double t = 0;
    std::size_t inserted = 0;
    for (const BlockPtr& b : blocks) {
      if (!dag.parents_present(*b)) continue;
      t += time_us([&] { dag.insert(b); });
      ++inserted;
    }
    out.dag_insert_us = ratio(t, static_cast<double>(inserted));

    Dag scan_dag(committee);
    Committer committer(scan_dag, committee, w.committer);
    std::vector<std::pair<SlotId, Digest>> replay_slots;
    double ts = 0;
    for (const auto& group : rounds) {
      for (const BlockPtr& b : group) {
        if (scan_dag.parents_present(*b)) scan_dag.insert(b);
      }
      std::vector<CommittedSubDag> subs;
      ts += time_us([&] { subs = committer.try_commit(); });
      for (const auto& s : subs) replay_slots.emplace_back(s.slot, s.leader->digest());
    }
    out.scan_us = ts / nblocks;
    const CommitStats& stats = committer.stats();
    const double decided = static_cast<double>(stats.committed_slots() + stats.skipped_slots());
    out.direct_commit_frac = ratio(static_cast<double>(stats.direct_commits), decided);
    out.skipped_slot_frac = ratio(static_cast<double>(stats.skipped_slots()), decided);
    // The replayed commit rule must agree with what validator 0 committed live.
    const std::size_t common = std::min(replay_slots.size(), live_slots.size());
    for (std::size_t i = 0; i < common; ++i) {
      if (replay_slots[i] != live_slots[i]) {
        out.failure = "replay: commit rule disagrees with the live commit sequence at slot " +
                      replay_slots[i].first.to_string();
        break;
      }
    }
    if (replay_slots.empty()) out.failure = "replay: commit rule committed nothing";
  }
  // validator core (observer), plus checkpoint capture on it.
  {
    ValidatorConfig vc;
    vc.observer = true;
    vc.committer = w.committer;
    ValidatorCore core(committee, setup.keypairs[0].private_key, vc);
    double t = 0;
    for (const auto& group : rounds) {
      std::vector<IngestBlock> items;
      for (const BlockPtr& b : group) items.push_back({b, b->author(), /*crypto_verified=*/true});
      t += time_us([&] { core.on_blocks(std::move(items), now_us()); });
    }
    out.on_blocks_us = t / nblocks;
    if (w.durable) {
      std::vector<double> ms;
      for (int i = 0; i < 5; ++i) {
        ms.push_back(time_us([&] {
          const Bytes encoded = encode_checkpoint(core.capture_checkpoint());
          if (encoded.empty()) out.failure = "replay: empty checkpoint";
        }) / 1000.0);
      }
      out.checkpoint_ms = median(ms);
    }
  }
  // mempool admission + drain over every captured batch.
  {
    std::vector<TxBatch> batches;
    for (const BlockPtr& b : blocks) batches.insert(batches.end(), b->batches().begin(), b->batches().end());
    ShardedMempool pool;
    double ta = 0;
    for (TxBatch& batch : batches) {
      AdmitResult r = AdmitResult::kAccepted;
      ta += time_us([&] { r = pool.submit(std::move(batch)); });
      if (!admitted(r)) out.failure = std::string("replay: mempool rejected a batch: ") + to_string(r);
    }
    const ValidatorConfig defaults;
    double td = 0;
    std::size_t drained = 0;
    while (!pool.empty()) {
      std::vector<TxBatch> got;
      td += time_us([&] { got = pool.drain(defaults.max_block_batches, defaults.max_block_payload_bytes); });
      drained += got.size();
    }
    out.admit_us = ratio(ta, static_cast<double>(batches.size()));
    out.drain_us = ratio(td, static_cast<double>(drained));
  }
  // WAL: the segmented layout's append + sync, one sync per round group.
  if (w.durable) {
    const fs::path dir = scratch / "replay-wal";
    fs::remove_all(dir);
    double t = 0;
    std::uint64_t tx = 0;
    std::uint64_t bytes = 0;
    {
      SegmentedWal wal(dir.string());
      for (const auto& group : rounds) {
        t += time_us([&] {
          for (const BlockPtr& b : group) wal.append_block(*b, /*own=*/false);
          wal.sync();
        });
        for (const BlockPtr& b : group) tx += b->transaction_count();
      }
      bytes = wal.bytes_written();
    }
    fs::remove_all(dir);
    out.wal_append_us = t / nblocks;
    out.wal_bytes_per_tx = ratio(static_cast<double>(bytes), static_cast<double>(tx));
  }
  // Execution: the serial executor over the captured sub-DAGs in commit order.
  if (w.kv) {
    exec::SerialExecutor executor;
    double t = 0;
    std::uint64_t batches = 0;
    for (const auto& sub : captured) {
      t += time_us([&] { executor.apply_subdag(sub); });
      for (const BlockPtr& b : sub.blocks) batches += b->batches().size();
    }
    out.exec_apply_us = ratio(t, static_cast<double>(batches));
  }
  return out;
}

// ---------------------------------------------------------------------------
// One run

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string workdir = ".";
};

int run(const Args& args) {
  const Workload w = make_workload(args.workload);
  const fs::path workdir = fs::path(args.workdir) / ("run-" + std::to_string(::getpid()));
  fs::remove_all(workdir);
  fs::create_directories(workdir);

  const auto setup = Committee::make_test(w.validators);
  const std::uint32_t streams = w.validators * kClientsPerValidator;
  std::vector<std::atomic<std::uint64_t>> submitted(streams);
  RunClock clock;
  clock.trace = args.trace;
  const auto window_us = static_cast<TimeMicros>(args.seconds * 1e6);
  const auto slices = static_cast<std::size_t>((window_us + kSlice - 1) / kSlice);

  // --- set-up: build the cluster until every validator committed once -----
  std::vector<double> setup_times;
  std::unique_ptr<Cluster> cluster;
  std::string failure;
  for (int attempt = 0; attempt < kSetups; ++attempt) {
    if (cluster) {
      cluster->stop();
      cluster.reset();
    }
    const fs::path wal_root = workdir / ("setup-" + std::to_string(attempt));
    const TimeMicros t0 = now_us();
    cluster = build_cluster(w, setup, clock, submitted, wal_root, slices,
                            args.trace && attempt == kSetups - 1);
    if (!wait_first_commits(*cluster, t0 + 60'000'000)) {
      failure = "set-up: a validator never committed";
      break;
    }
    setup_times.push_back(static_cast<double>(now_us() - t0) / 1e6);
    if (attempt + 1 < kSetups) {
      cluster->stop();
      cluster.reset();
      fs::remove_all(wal_root);
    }
  }
  if (!failure.empty()) {
    cluster.reset();
    fs::remove_all(workdir);
    print_result(false, 1, 1, {}, failure);
    return 0;
  }

  // --- load ------------------------------------------------------------------
  Generator gen(w, args.seed, submitted);
  const TimeMicros load_start = now_us();
  const TimeMicros w0 = load_start + kWarmup;
  const TimeMicros w1 = w0 + window_us;
  const TimeMicros deadline = w1 + kDrain;
  clock.w0.store(w0);
  clock.w1.store(w1);
  gen.start(load_start);

  std::uint64_t due_in_window = 0;
  std::uint64_t total_batches = 0;
  std::vector<double> late_ms;            // generator lateness, window
  std::vector<double> submit_call_us;     // traced slices
  std::vector<double> exec_lag_ms;        // lan-kv, traced slices
  std::uint64_t exec_seen = 0;
  bool exec_primed = false;
  std::vector<double> slice_cpu;          // process CPU seconds per window slice
  double cpu_slice_start = 0;
  TimeMicros next_slice = w0 + kSlice;
  bool in_window = false, window_done = false;
  std::vector<NodeSnapshot> snap0, snap1;
  std::vector<std::vector<TxBatch>> outbox(w.validators);

  for (;;) {
    TimeMicros now = now_us();
    // Emit every batch due by now, grouped per origin validator.
    while (gen.next_due() <= now) {
      auto [origin, batch] = gen.next();
      if (clock.in_window(batch.submitted_at)) ++due_in_window;
      ++total_batches;
      outbox[origin].push_back(std::move(batch));
    }
    for (ValidatorId v = 0; v < w.validators; ++v) {
      if (outbox[v].empty()) continue;
      const TimeMicros sent = now_us();
      if (sent >= w0 && sent < w1) {
        for (const TxBatch& b : outbox[v]) late_ms.push_back(static_cast<double>(sent - b.submitted_at) / 1000.0);
      }
      if (clock.slice_class(sent) == 1) {
        submit_call_us.push_back(time_us([&] { cluster->nodes[v]->submit(std::move(outbox[v])); }));
      } else {
        cluster->nodes[v]->submit(std::move(outbox[v]));
      }
      outbox[v].clear();
    }
    now = now_us();
    if (!in_window && now >= w0) {
      in_window = true;
      snap0 = snapshot_nodes(*cluster, args.trace);
      cpu_slice_start = cpu_seconds();
    }
    if (in_window && !window_done && now >= std::min(next_slice, w1)) {
      const double c = cpu_seconds();
      slice_cpu.push_back(c - cpu_slice_start);
      cpu_slice_start = c;
      next_slice += kSlice;
      if (slice_cpu.size() == slices) {
        window_done = true;
        snap1 = snapshot_nodes(*cluster, args.trace);
      }
    }
    if (args.trace && w.kv && clock.slice_class(now) == 1) {
      // Execution lag at validator 0: commit stamp -> engine retired it. The
      // first poll of a traced slice only sets the baseline.
      const std::uint64_t done = cluster->nodes[0]->execution_stats().subdags;
      Recorder& r0 = *cluster->recorders[0];
      std::lock_guard<std::mutex> lock(r0.mutex);
      for (; exec_seen < done && exec_seen < r0.subdag_commit_times.size(); ++exec_seen) {
        if (exec_primed) {
          exec_lag_ms.push_back(static_cast<double>(now - r0.subdag_commit_times[exec_seen]) / 1000.0);
        }
      }
      exec_primed = true;
    } else {
      exec_primed = false;
    }
    if (window_done) {
      std::uint64_t committed = 0;
      for (const auto& r : cluster->recorders) committed += r->window_batches.load();
      if (committed >= due_in_window || now >= deadline) break;
    }
    TimeMicros wake = std::min<TimeMicros>(gen.next_due(), now + 2000);
    if (!in_window) wake = std::min(wake, w0);
    else if (!window_done) wake = std::min({wake, next_slice, w1});
    if (wake > now) sleep_until_us(wake);
  }
  const TimeMicros drained_at = now_us();

  // --- output checks ------------------------------------------------------------
  const std::uint32_t n = w.validators;
  std::uint64_t rejected = 0;
  for (const auto& node : cluster->nodes) rejected += node->mempool_stats().rejected();
  if (w.kv) {
    // Every validator must commit and apply every admitted batch; then the
    // replicated state must be identical. The commit handler runs before the
    // engine is fed, so the wait is on the engine's own count.
    const std::uint64_t target = total_batches - rejected;
    const TimeMicros quiet_deadline = now_us() + 20'000'000;
    for (;;) {
      bool all = true;
      for (const auto& node : cluster->nodes) all = all && node->execution_stats().batches_executed >= target;
      if (all) break;
      if (now_us() > quiet_deadline) {
        failure = "lan-kv: validators did not all apply every batch before the deadline";
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    // One thread per validator: hashing each store takes most of a second.
    std::vector<std::future<Digest>> digests;
    for (const auto& node : cluster->nodes) {
      digests.push_back(std::async(std::launch::async, [&node] { return node->app_state_digest(); }));
    }
    std::vector<Digest> states;
    for (auto& digest : digests) states.push_back(digest.get());
    for (const auto& node : cluster->nodes) {
      if (states[node->id()] != states[0]) failure = "lan-kv: app state digests differ";
      if (node->execution_stats().access_violations != 0) failure = "lan-kv: access violations";
      if (node->metrics_registry().dump().counter_value("mm_exec_access_violations_total") != 0) {
        failure = "lan-kv: mm_exec_access_violations_total is not 0";
      }
    }
  }
  std::vector<std::vector<std::pair<SlotId, Digest>>> slots(n);
  for (std::uint32_t v = 0; v < n; ++v) {
    Recorder& r = *cluster->recorders[v];
    std::lock_guard<std::mutex> lock(r.mutex);
    slots[v] = r.slots;
    if (!r.failure.empty()) failure = r.failure;
  }
  for (std::uint32_t v = 1; v < n; ++v) {
    const std::size_t common = std::min(slots[0].size(), slots[v].size());
    if (!std::equal(slots[0].begin(), slots[0].begin() + static_cast<std::ptrdiff_t>(common),
                    slots[v].begin())) {
      failure = "validators 0 and " + std::to_string(v) + " disagree on the committed leader sequence";
    }
  }
  cluster->stop();
  if (w.durable) {
    for (const std::string& dir : cluster->wal_dirs) {
      std::uint64_t bytes = 0;
      for (const auto& entry : fs::directory_iterator(dir)) {
        if (entry.is_regular_file()) bytes += entry.file_size();
      }
      if (SegmentedWal::read_manifest(dir) == 0) failure = "lan-durable: no WAL segment was retired in " + dir;
      if (bytes > (1ull << 30)) failure = "lan-durable: WAL directory grew past 1 GiB: " + dir;
    }
  }

  // --- end-to-end figures -----------------------------------------------------
  const double window_s = static_cast<double>(w1 - w0) / 1e6;
  // Per window slice: finality by due time, transactions by commit time.
  std::vector<std::vector<double>> slice_finality_ms(slices);
  std::vector<double> slice_tx(slices, 0);
  std::vector<double> wait_ms;
  std::uint64_t committed_window = 0;
  for (const auto& r : cluster->recorders) {
    std::lock_guard<std::mutex> lock(r->mutex);
    for (const OriginSample& s : r->samples) {
      if (s.committed > deadline) continue;
      ++committed_window;
      slice_finality_ms[clock.slice_of(s.due)].push_back(static_cast<double>(s.committed - s.due) / 1000.0);
      if (clock.slice_class(s.due) == 1 && s.block_created > 0) {
        wait_ms.push_back(static_cast<double>(s.block_created - s.due) / 1000.0);
      }
    }
    for (std::size_t i = 0; i < slices; ++i) slice_tx[i] += static_cast<double>(r->slice_tx[i].load());
  }
  // Class 1 = traced slices, class 0 = untraced (all slices in --trace 0).
  std::vector<double> finality_ms[2];
  double tx_by_class[2] = {0, 0};
  double cpu_by_class[2] = {0, 0};
  for (std::size_t i = 0; i < slices; ++i) {
    const int c = args.trace ? static_cast<int>(i % 2) : 0;
    finality_ms[c].insert(finality_ms[c].end(), slice_finality_ms[i].begin(), slice_finality_ms[i].end());
    tx_by_class[c] += slice_tx[i];
    cpu_by_class[c] += slice_cpu[i];
  }
  const double window_tx = tx_by_class[0] + tx_by_class[1];
  std::vector<double> all_finality = finality_ms[0];
  all_finality.insert(all_finality.end(), finality_ms[1].begin(), finality_ms[1].end());
  const std::uint64_t failed = due_in_window - std::min(due_in_window, committed_window);
  const double cpu_us_per_tx = ratio((cpu_by_class[0] + cpu_by_class[1]) * 1e6, window_tx);
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const double finality_p50 = percentile(all_finality, 0.5);
  // A short remainder of slices joins the last group.
  const std::size_t groups = std::max<std::size_t>(1, slices / kTailSlices);
  std::vector<double> tail_p99;
  for (std::size_t g = 0; g < groups; ++g) {
    const std::size_t end = g + 1 == groups ? slices : (g + 1) * kTailSlices;
    std::vector<double> group;
    for (std::size_t i = g * kTailSlices; i < end; ++i) {
      group.insert(group.end(), slice_finality_ms[i].begin(), slice_finality_ms[i].end());
    }
    tail_p99.push_back(percentile(std::move(group), 0.99));
  }

  std::vector<Metric> metrics;
  if (!args.trace) {
    metrics = {
        {"setup_s", median(setup_times), "s"},
        {"committed_tps", window_tx / window_s, "1/s"},
        {"finality_p50_ms", finality_p50, "ms"},
        {"finality_p99_ms", median(tail_p99), "ms"},
        {"finality_samples", static_cast<double>(all_finality.size()), "count"},
        {"delivered_frac", ratio(static_cast<double>(committed_window), static_cast<double>(due_in_window)), "ratio"},
        {"cpu_us_per_tx", cpu_us_per_tx, "us"},
        {"peak_rss_mb", static_cast<double>(usage.ru_maxrss) / 1024.0, "MB"},
    };
  } else {
    // Window deltas of the nodes' own counters.
    double bytes_sent = 0, syscalls = 0, blocks = 0, busy = 0, cuts = 0, certs = 0, rounds = 0;
    std::int64_t stall_max = 0;
    for (std::uint32_t v = 0; v < n; ++v) {
      const NodeSnapshot& a = snap0[v];
      const NodeSnapshot& b = snap1[v];
      bytes_sent += static_cast<double>(b.io.bytes_sent - a.io.bytes_sent);
      syscalls += static_cast<double>((b.io.submit_syscalls + b.io.wait_syscalls + b.io.wal_flush_syscalls) -
                                      (a.io.submit_syscalls + a.io.wait_syscalls + a.io.wal_flush_syscalls));
      blocks += static_cast<double>(b.committed_blocks - a.committed_blocks);
      busy += static_cast<double>(b.io.loop_busy_micros - a.io.loop_busy_micros);
      cuts += static_cast<double>(b.checkpoints - a.checkpoints);
      certs += static_cast<double>(b.certs - a.certs);
      rounds += static_cast<double>(b.round - a.round);
      stall_max = std::max(stall_max, b.metrics.gauge_value("mm_loop_max_stall_micros"));
    }
    const double nd = n;
    // Benchmark-side finality over every validator's commits in the window,
    // against the registry's mm_finality_micros over the same window.
    double bench_sum = 0, bench_weight = 0, batches_in_blocks = 0, blocks_v0 = 0;
    std::vector<double> depth, p2c;
    for (const auto& r : cluster->recorders) {
      std::lock_guard<std::mutex> lock(r->mutex);
      bench_sum += r->finality_sum_us;
      bench_weight += r->finality_weight;
      depth.insert(depth.end(), r->depth_rounds.begin(), r->depth_rounds.end());
      for (TimeMicros t : r->proposal_to_commit) p2c.push_back(static_cast<double>(t) / 1000.0);
    }
    const double registry_finality_us = window_hist_mean(snap0, snap1, "mm_finality_micros");
    const double bench_finality_us = ratio(bench_sum, bench_weight);
    // Distinct committed authors per round, over rounds created in the window;
    // batches per committed block at validator 0 over the same blocks.
    Recorder& r0 = *cluster->recorders[0];
    std::map<Round, std::set<ValidatorId>> authors;
    {
      std::lock_guard<std::mutex> lock(r0.mutex);
      for (const auto& [round, author, created, batches] : r0.committed_blocks) {
        if (!clock.in_window(created)) continue;
        authors[round].insert(author);
        batches_in_blocks += static_cast<double>(batches);
        blocks_v0 += 1;
      }
    }
    double author_sum = 0;
    for (const auto& [round, set] : authors) author_sum += static_cast<double>(set.size());
    // Traced vs untraced slices of the same window.
    const double p50_u = percentile(finality_ms[0], 0.5);
    const double p50_t = percentile(finality_ms[1], 0.5);
    const double cpu_u = ratio(cpu_by_class[0] * 1e6, tx_by_class[0]);
    const double cpu_t = ratio(cpu_by_class[1] * 1e6, tx_by_class[1]);
    const double fin_overhead = ratio(p50_t - p50_u, p50_u);
    const double cpu_overhead = ratio(cpu_t - cpu_u, cpu_u);
    const double wait_mean = [&] {
      double s = 0;
      for (double x : wait_ms) s += x;
      return ratio(s, static_cast<double>(wait_ms.size()));
    }();
    const double fin_mean_t = [&] {
      double s = 0;
      for (double x : finality_ms[1]) s += x;
      return ratio(s, static_cast<double>(finality_ms[1].size()));
    }();

    std::vector<std::pair<SlotId, Digest>> live_v0;
    std::vector<CommittedSubDag> captured;
    {
      std::lock_guard<std::mutex> lock(r0.mutex);
      live_v0 = r0.slots;
      captured = r0.captured;
    }
    const ReplayResult rp = replay(w, setup, captured, live_v0, workdir);
    if (!rp.failure.empty()) failure = rp.failure;

    const NodeSnapshot& e0 = snap0[0];
    const NodeSnapshot& e1 = snap1[0];
    const double exec_batches = static_cast<double>(e1.exec.batches_executed - e0.exec.batches_executed);
    metrics = {
        {"client.gen_late_p99_ms", percentile(late_ms, 0.99), "ms"},
        {"client.submit_call_us", median(submit_call_us), "us"},
        {"mempool.wait_ms_p50", percentile(wait_ms, 0.5), "ms"},
        {"mempool.wait_ms_p99", percentile(wait_ms, 0.99), "ms"},
        {"mempool.wait_share_frac", ratio(wait_mean, fin_mean_t), "ratio"},
        {"mempool.rejected_frac", ratio(static_cast<double>(rejected), static_cast<double>(total_batches)), "ratio"},
        {"mempool.admit_us_per_batch", rp.admit_us, "us"},
        {"mempool.drain_us_per_batch", rp.drain_us, "us"},
        {"mempool.batches_per_block", ratio(batches_in_blocks, blocks_v0), "count"},
        {"net.rx_lag_ms", window_hist_mean(snap0, snap1, "mm_peer_rx_lag_micros") / 1000.0, "ms"},
        {"net.bytes_sent_per_tx", ratio(bytes_sent, window_tx), "B"},
        {"net.syscalls_per_block", ratio(syscalls, blocks), "count"},
        {"serde.block_encode_us", rp.serde_encode_us, "us"},
        {"serde.block_decode_us", rp.serde_decode_us, "us"},
        {"crypto.verify_us_per_block", rp.crypto_us, "us"},
        {"validator.structural_us_per_block", rp.structural_us, "us"},
        {"validator.on_blocks_us_per_block", rp.on_blocks_us, "us"},
        {"validator.insert_queue_wait_us", window_hist_mean(snap0, snap1, "mm_stage_insert_queue_micros"), "us"},
        {"validator.loop_busy_frac", ratio(busy, window_s * 1e6 * nd), "ratio"},
        {"validator.loop_stall_max_ms", static_cast<double>(stall_max) / 1000.0, "ms"},
        {"dag.insert_us_per_block", rp.dag_insert_us, "us"},
        {"dag.authors_per_round", ratio(author_sum, static_cast<double>(authors.size())), "count"},
        {"core.round_rate_hz", rounds / nd / window_s, "1/s"},
        {"core.commit_depth_rounds_p50", percentile(depth, 0.5), "rounds"},
        {"core.proposal_to_commit_ms_p50", percentile(p2c, 0.5), "ms"},
        {"core.direct_commit_frac", rp.direct_commit_frac, "ratio"},
        {"core.skipped_slot_frac", rp.skipped_slot_frac, "ratio"},
        {"core.scan_us_per_block", rp.scan_us, "us"},
        {"wal.append_us_per_block", rp.wal_append_us, "us"},
        {"wal.bytes_per_tx", rp.wal_bytes_per_tx, "B"},
        {"wal.durable_wait_us", w.durable ? window_hist_mean(snap0, snap1, "mm_stage_wal_durable_micros") : 0.0, "us"},
        {"checkpoint.cuts_per_s", cuts / nd / window_s, "1/s"},
        {"checkpoint.certs_per_cut", ratio(certs, cuts), "count"},
        {"checkpoint.capture_encode_ms", rp.checkpoint_ms, "ms"},
        {"exec.apply_us_per_batch", rp.exec_apply_us, "us"},
        {"exec.lag_ms_p50", percentile(exec_lag_ms, 0.5), "ms"},
        {"exec.parallel_frac", ratio(static_cast<double>(e1.exec.parallel_batches - e0.exec.parallel_batches), exec_batches), "ratio"},
        {"exec.conflict_delayed_frac", ratio(static_cast<double>(e1.exec.conflict_delayed - e0.exec.conflict_delayed), exec_batches), "ratio"},
        {"obs.finality_gap_frac", ratio(registry_finality_us - bench_finality_us, bench_finality_us), "ratio"},
        {"trace.overhead_frac", std::max(fin_overhead, cpu_overhead), "ratio"},
        {"trace.finality_overhead_frac", fin_overhead, "ratio"},
        {"trace.cpu_overhead_frac", cpu_overhead, "ratio"},
        {"replay.blocks", static_cast<double>(rp.blocks), "count"},
    };
  }
  std::fprintf(stderr,
               "e2e_bench: %s seed %llu: %llu batches due in %.1fs window, %llu failed, "
               "drained %.2fs after the window, setup runs %.3f/%.3f/%.3f s\n",
               w.name.c_str(), static_cast<unsigned long long>(args.seed),
               static_cast<unsigned long long>(due_in_window), window_s,
               static_cast<unsigned long long>(failed), static_cast<double>(drained_at - w1) / 1e6, setup_times[0],
               setup_times.size() > 1 ? setup_times[1] : 0.0, setup_times.size() > 2 ? setup_times[2] : 0.0);
  fs::remove_all(workdir);
  // Every cluster thread has been joined by stop(). The cluster is left to
  // the process exit: freeing millions of small DAG, mempool and KV
  // allocations one by one takes seconds and measures nothing.
  (void)cluster.release();
  const bool correct = failure.empty() && failed == 0;
  if (failed != 0 && failure.empty()) failure = std::to_string(failed) + " window batches never committed at their origin";
  print_result(correct, std::max<std::uint64_t>(due_in_window, 1), failed, metrics, failure);
  return 0;
}

}  // namespace
}  // namespace e2ebench

int main(int argc, char** argv) {
  e2ebench::Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") args.workload = value;
    else if (key == "--seed") args.seed = std::stoull(value);
    else if (key == "--seconds") args.seconds = std::stod(value);
    else if (key == "--trace") args.trace = value == "1";
    else if (key == "--workdir") args.workdir = value;
    else {
      std::fprintf(stderr, "e2e_bench: unknown argument %s\n", key.c_str());
      return 2;
    }
  }
  try {
    return e2ebench::run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "e2e_bench: %s\n", e.what());
    return 1;
  }
}
