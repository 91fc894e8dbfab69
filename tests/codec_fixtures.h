// Fixed codec inputs for the golden-bytes tests (test_wal, test_checkpoint).
//
// Every value here is deterministic: test keys and the coin derive from a
// fixed seed and Ed25519 signing is deterministic. The inputs exercise every
// field of the block, WAL, checkpoint and delta encodings, with multi-byte
// varints where a field is a varint. The golden hex in the tests is the
// exact output of the encoders for these inputs; a change to any encoder
// that moves a byte fails them.
#pragma once

#include <cstdint>
#include <vector>

#include "checkpoint/checkpoint.h"
#include "checkpoint/delta.h"
#include "types/committee.h"

namespace mahimahi::codec_fixtures {

inline const Committee::TestSetup& setup() {
  static const Committee::TestSetup s = Committee::make_test(4);
  return s;
}

// Round-1 block by validator 2 over the four genesis blocks: one batch with
// a real payload and declared keys, one payload-less batch.
inline BlockPtr block() {
  static const BlockPtr b = [] {
    const Committee& committee = setup().committee;
    std::vector<BlockRef> parents;
    for (ValidatorId v = 0; v < 4; ++v) {
      parents.push_back(Block::genesis(v, committee.coin()).ref());
    }
    TxBatch with_payload;
    with_payload.id = 7;
    with_payload.submitted_at = 123'456'789;
    with_payload.count = 3;
    with_payload.tx_bytes = 16;
    for (std::uint8_t i = 0; i < 48; ++i) with_payload.payload.push_back(i);
    with_payload.read_keys = {"a", "bb"};
    with_payload.write_keys = {"c"};
    TxBatch bare;
    bare.id = 300;
    bare.count = 200;
    return std::make_shared<const Block>(Block::make(
        2, 1, parents, {with_payload, bare}, committee.coin().share(2, 1),
        setup().keypairs[2].private_key, /*created_at=*/1'700'000'000'000'000));
  }();
  return b;
}

inline Bytes app_state() { return to_bytes("app-state:0123456789"); }

inline CheckpointData checkpoint() {
  CheckpointData data;
  data.sequence = 5;
  data.author = 1;
  data.horizon = 1;
  data.head = SlotId{150, 1};
  data.last_proposed_round = 151;
  CheckpointData::DecidedSlot commit;
  commit.slot = SlotId{148, 0};
  commit.leader = 3;
  commit.kind = SlotDecision::Kind::kCommit;
  commit.via = SlotDecision::Via::kDirect;
  commit.block = block()->ref();
  CheckpointData::DecidedSlot skip;
  skip.slot = SlotId{148, 1};
  skip.leader = 0;
  skip.kind = SlotDecision::Kind::kSkip;
  skip.via = SlotDecision::Via::kIndirect;
  data.decided = {commit, skip};
  data.delivered = {{block()->digest(), 1}};
  data.blocks = {block()};
  data.app_state = app_state();
  data.app_digest = block()->ref().digest;
  return data;
}

inline CheckpointDelta delta() {
  CheckpointDelta delta;
  delta.sequence = 6;
  delta.prev_sequence = 5;
  delta.base_sequence = 5;
  delta.author = 1;
  delta.horizon = 1;
  delta.prev_head = SlotId{150, 1};
  delta.head = SlotId{150, 2};
  delta.last_proposed_round = 200;
  CheckpointData::DecidedSlot skip;
  skip.slot = SlotId{150, 1};
  skip.leader = 1;
  skip.kind = SlotDecision::Kind::kSkip;
  skip.via = SlotDecision::Via::kDirect;
  delta.decided_suffix = {skip};
  delta.delivered = {{block()->digest(), 1}};
  delta.blocks_added = {block()};
  delta.app_delta = to_bytes("app-delta");
  delta.app_digest = block()->digest();
  return delta;
}

}  // namespace mahimahi::codec_fixtures
