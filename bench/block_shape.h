// The block shape of the lan-durable end-to-end workload, for the codec
// microbenches (bench_wal, bench_recovery): 4 validators, 7 batches of 40
// transactions of 512 B each with real payload bytes — about 143.8 KB on
// the wire. Building one signs it, so callers cache what they build.
#pragma once

#include <cstdint>
#include <vector>

#include "types/block.h"
#include "types/committee.h"

namespace mahimahi::bench_shape {

constexpr std::size_t kBatchesPerBlock = 7;
constexpr std::uint32_t kTxPerBatch = 40;
constexpr std::uint32_t kTxBytes = 512;

inline const Committee::TestSetup& setup() {
  static const Committee::TestSetup s = Committee::make_test(4);
  return s;
}

// Round-`round` block by `author` over the four genesis blocks; `seed`
// varies the payload bytes.
inline BlockPtr lan_durable_block(ValidatorId author, Round round, std::uint64_t seed) {
  std::vector<BlockRef> parents;
  for (ValidatorId v = 0; v < 4; ++v) {
    parents.push_back(Block::genesis(v, setup().committee.coin()).ref());
  }
  std::vector<TxBatch> batches;
  std::uint64_t x = seed * 0x9e3779b97f4a7c15ull + 1;
  for (std::size_t i = 0; i < kBatchesPerBlock; ++i) {
    TxBatch batch;
    batch.id = seed * kBatchesPerBlock + i;
    batch.submitted_at = 1'700'000'000'000'000 + static_cast<TimeMicros>(batch.id);
    batch.count = kTxPerBatch;
    batch.tx_bytes = kTxBytes;
    batch.payload.resize(std::size_t{kTxPerBatch} * kTxBytes);
    for (auto& byte : batch.payload) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      byte = static_cast<std::uint8_t>(x);
    }
    batches.push_back(std::move(batch));
  }
  return std::make_shared<const Block>(
      Block::make(author, round, parents, std::move(batches),
                  setup().committee.coin().share(author, round),
                  setup().keypairs[author].private_key, /*created_at=*/1'700'000'000'000'000));
}

}  // namespace mahimahi::bench_shape
