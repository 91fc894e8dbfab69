#include "checkpoint/record_codec.h"

#include <string>

#include "common/crc32.h"

namespace mahimahi::record_codec {

namespace {

[[noreturn]] void fail(const char* what, const char* message) {
  throw serde::SerdeError(std::string(what) + ": " + message);
}

std::size_t ref_size(const BlockRef& ref) { return serde::varint_size(ref.round) + 4 + 32; }

}  // namespace

void write_slot(serde::Writer& w, SlotId slot) {
  w.varint(slot.round);
  w.u32(slot.leader_offset);
}

SlotId read_slot(serde::Reader& r) {
  SlotId slot;
  slot.round = r.varint();
  slot.leader_offset = r.u32();
  return slot;
}

std::size_t decided_size(std::span<const CheckpointData::DecidedSlot> decided) {
  std::size_t n = serde::varint_size(decided.size());
  for (const auto& d : decided) {
    n += slot_size(d.slot) + 4 + 1 + 1;
    if (d.kind == SlotDecision::Kind::kCommit) n += ref_size(d.block);
  }
  return n;
}

void write_decided(serde::Writer& w, std::span<const CheckpointData::DecidedSlot> decided) {
  w.varint(decided.size());
  for (const auto& d : decided) {
    write_slot(w, d.slot);
    w.u32(d.leader);
    w.u8(static_cast<std::uint8_t>(d.kind));
    w.u8(static_cast<std::uint8_t>(d.via));
    if (d.kind == SlotDecision::Kind::kCommit) {
      w.varint(d.block.round);
      w.u32(d.block.author);
      w.digest(d.block.digest);
    }
  }
}

std::vector<CheckpointData::DecidedSlot> read_decided(serde::Reader& r, const char* what) {
  const std::uint64_t count = r.varint();
  constexpr std::size_t kMinDecidedBytes = 11;  // slot(1+4) + leader(4) + kind + via
  if (count > r.remaining() / kMinDecidedBytes) fail(what, "decided count exceeds payload");
  std::vector<CheckpointData::DecidedSlot> decided;
  decided.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    CheckpointData::DecidedSlot d;
    d.slot = read_slot(r);
    d.leader = r.u32();
    const std::uint8_t kind = r.u8();
    if (kind > static_cast<std::uint8_t>(SlotDecision::Kind::kSkip)) {
      fail(what, "bad decision kind");
    }
    d.kind = static_cast<SlotDecision::Kind>(kind);
    const std::uint8_t via = r.u8();
    if (via > static_cast<std::uint8_t>(SlotDecision::Via::kIndirect)) {
      fail(what, "bad decision via");
    }
    d.via = static_cast<SlotDecision::Via>(via);
    if (d.kind == SlotDecision::Kind::kCommit) {
      d.block.round = r.varint();
      d.block.author = r.u32();
      d.block.digest = r.digest();
    }
    decided.push_back(d);
  }
  return decided;
}

std::size_t delivered_size(const DeliveredMarks& delivered) {
  std::size_t n = serde::varint_size(delivered.size());
  for (const auto& mark : delivered) n += 32 + serde::varint_size(mark.second);
  return n;
}

void write_delivered(serde::Writer& w, const DeliveredMarks& delivered) {
  w.varint(delivered.size());
  for (const auto& [digest, round] : delivered) {
    w.digest(digest);
    w.varint(round);
  }
}

DeliveredMarks read_delivered(serde::Reader& r, const char* what) {
  const std::uint64_t count = r.varint();
  constexpr std::size_t kMinDeliveredBytes = 33;  // digest(32) + round varint(1)
  if (count > r.remaining() / kMinDeliveredBytes) fail(what, "delivered count exceeds payload");
  DeliveredMarks delivered;
  delivered.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    const Digest digest = r.digest();
    delivered.emplace_back(digest, r.varint());
  }
  return delivered;
}

std::size_t blocks_size(std::span<const BlockPtr> blocks) {
  std::size_t n = serde::varint_size(blocks.size());
  for (const BlockPtr& block : blocks) n += serde::bytes_size(block->encoded_size());
  return n;
}

void write_blocks(serde::Writer& w, std::span<const BlockPtr> blocks) {
  w.varint(blocks.size());
  for (const BlockPtr& block : blocks) {
    w.varint(block->encoded_size());
    block->encode_to(w);
  }
}

std::vector<BlockPtr> read_blocks(serde::Reader& r, const char* what) {
  const std::uint64_t count = r.varint();
  // Each block costs at least its length varint.
  if (count > r.remaining()) fail(what, "block count exceeds payload");
  std::vector<BlockPtr> blocks;
  blocks.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    const std::uint64_t len = r.varint();
    if (len > r.remaining()) fail(what, "block length exceeds payload");
    blocks.push_back(std::make_shared<const Block>(
        Block::deserialize(r.raw(static_cast<std::size_t>(len)))));
  }
  return blocks;
}

BytesView unframe(BytesView encoded, const char* what) {
  serde::Reader framing(encoded);
  const std::uint32_t len = framing.u32();
  const std::uint32_t crc = framing.u32();
  if (len != framing.remaining()) fail(what, "frame length mismatch");
  const BytesView payload = framing.raw(len);
  if (crc32(payload) != crc) fail(what, "CRC mismatch");
  return payload;
}

}  // namespace mahimahi::record_codec
