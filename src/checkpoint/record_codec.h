// Field codecs shared by the base-checkpoint (checkpoint.h) and delta
// (delta.h) records: slots, the decided log, the delivered marks, the block
// list and the CRC frame.
//
// Every *_size() function returns exactly what the matching write_*()
// appends, so an encoder sizes its record once, reserves it once, and
// writes each block's bytes once (Block::encode_to). Every read_*() bounds
// its element count against the bytes actually present before reserving:
// these records arrive off the wire during catch-up. `what` prefixes error
// messages ("checkpoint", "delta").
#pragma once

#include <span>
#include <utility>
#include <vector>

#include "checkpoint/checkpoint.h"
#include "serde/serde.h"

namespace mahimahi::record_codec {

inline std::size_t slot_size(SlotId slot) { return serde::varint_size(slot.round) + 4; }
void write_slot(serde::Writer& w, SlotId slot);
SlotId read_slot(serde::Reader& r);

std::size_t decided_size(std::span<const CheckpointData::DecidedSlot> decided);
void write_decided(serde::Writer& w, std::span<const CheckpointData::DecidedSlot> decided);
std::vector<CheckpointData::DecidedSlot> read_decided(serde::Reader& r, const char* what);

using DeliveredMarks = std::vector<std::pair<Digest, Round>>;
std::size_t delivered_size(const DeliveredMarks& delivered);
void write_delivered(serde::Writer& w, const DeliveredMarks& delivered);
DeliveredMarks read_delivered(serde::Reader& r, const char* what);

// Each block is length-prefixed: [varint len][Block encoding].
std::size_t blocks_size(std::span<const BlockPtr> blocks);
void write_blocks(serde::Writer& w, std::span<const BlockPtr> blocks);
std::vector<BlockPtr> read_blocks(serde::Reader& r, const char* what);

// Checks a record's [u32 len][u32 crc] frame (wal/wal.h framing) and returns
// the payload it covers. Throws serde::SerdeError on a length or CRC
// mismatch.
BytesView unframe(BytesView encoded, const char* what);

}  // namespace mahimahi::record_codec
