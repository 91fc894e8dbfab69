#include "checkpoint/checkpoint.h"

#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <stdexcept>
#include <unordered_set>

#include "checkpoint/cert.h"
#include "checkpoint/delta.h"
#include "checkpoint/record_codec.h"
#include "common/fsio.h"
#include "common/log.h"
#include "serde/serde.h"
#include "validator/crypto_stage.h"
#include "wal/wal.h"

namespace mahimahi {

namespace {

constexpr std::uint32_t kCheckpointMagic = 0x4d4d434b;  // "MMCK"
constexpr std::uint8_t kCheckpointVersion = 1;

}  // namespace

Bytes encode_checkpoint(const CheckpointData& data) {
  using namespace record_codec;
  const std::size_t payload_size =
      4 + 1 + 8 + 4 + serde::varint_size(data.horizon) + slot_size(data.head) +
      serde::varint_size(data.last_proposed_round) + decided_size(data.decided) +
      delivered_size(data.delivered) + blocks_size(data.blocks) +
      serde::bytes_size(data.app_state.size()) + 32;
  serde::Writer w = wal_record_writer(payload_size);
  w.u32(kCheckpointMagic);
  w.u8(kCheckpointVersion);
  w.u64(data.sequence);
  w.u32(data.author);
  w.varint(data.horizon);
  write_slot(w, data.head);
  w.varint(data.last_proposed_round);
  write_decided(w, data.decided);
  write_delivered(w, data.delivered);
  write_blocks(w, data.blocks);
  w.bytes({data.app_state.data(), data.app_state.size()});
  w.digest(data.app_digest);
  return wal_seal_record(std::move(w));
}

CheckpointData decode_checkpoint(BytesView encoded) {
  using namespace record_codec;
  constexpr const char* kWhat = "checkpoint";
  serde::Reader r(unframe(encoded, kWhat));
  if (r.u32() != kCheckpointMagic) throw serde::SerdeError("checkpoint: bad magic");
  if (r.u8() != kCheckpointVersion) throw serde::SerdeError("checkpoint: bad version");

  CheckpointData data;
  data.sequence = r.u64();
  data.author = r.u32();
  data.horizon = r.varint();
  data.head = read_slot(r);
  data.last_proposed_round = r.varint();
  data.decided = read_decided(r, kWhat);
  data.delivered = read_delivered(r, kWhat);
  data.blocks = read_blocks(r, kWhat);
  data.app_state = r.bytes();
  data.app_digest = r.digest();
  r.expect_done();
  return data;
}

std::string verify_checkpoint(const CheckpointData& data, const Committee& committee,
                              const CommitterOptions& options,
                              const ValidationOptions& validation,
                              VerifierCache* cache) {
  // The decided log must be EXACTLY the slot-successor chain from the first
  // slot to the head — a head the log does not account for slot-by-slot is
  // fabricated. (What each decision SAYS below the horizon is the trust gap
  // documented in the header; its shape at least cannot lie.)
  SlotId expected{options.first_slot_round, 0};
  for (const auto& d : data.decided) {
    if (d.kind == SlotDecision::Kind::kUndecided) return "undecided slot in log";
    if (d.slot != expected) return "log is not the contiguous slot chain";
    expected = d.slot.leader_offset + 1 < options.leaders_per_round
                   ? SlotId{d.slot.round, d.slot.leader_offset + 1}
                   : SlotId{d.slot.round + options.wave_stride, 0};
  }
  if (expected != data.head) return "decided log does not reach the head";

  // The suffix: round-ascending, at or above the horizon, structurally valid.
  Round previous = 0;
  for (const BlockPtr& block : data.blocks) {
    if (block->round() < data.horizon || block->round() == 0) {
      return "suffix block below horizon";
    }
    if (block->round() < previous) return "suffix not round-ascending";
    previous = block->round();
    const BlockValidity structural = validate_block_structure(*block, committee);
    if (structural != BlockValidity::kValid) {
      return "suffix block invalid: " + to_string(structural);
    }
  }

  // Every committed slot at or above the horizon must be backed by a block
  // in the suffix — the analogue of checking the snapshot against the
  // committed chain: an installed committer must be able to point at the
  // agreed leader blocks it claims were committed.
  std::unordered_set<Digest, DigestHasher> suffix;
  for (const BlockPtr& block : data.blocks) suffix.insert(block->digest());
  for (const auto& d : data.decided) {
    if (d.kind != SlotDecision::Kind::kCommit) continue;
    if (d.block.round >= data.horizon && !suffix.contains(d.block.digest)) {
      return "committed block missing from suffix";
    }
  }

  // Crypto last (the expensive part): batched coin/signature verification of
  // the whole suffix, exactly what live ingestion would have paid.
  const CryptoStageResult stage =
      run_crypto_stage(data.blocks, committee, validation, cache);
  for (std::size_t i = 0; i < data.blocks.size(); ++i) {
    if (stage.verdicts[i] != BlockValidity::kValid) {
      return "suffix block failed crypto: " + to_string(stage.verdicts[i]);
    }
  }
  return {};
}

// --- CheckpointStore ---------------------------------------------------------

CheckpointStore::CheckpointStore(std::string dir) : dir_(std::move(dir)) {
  std::filesystem::create_directories(dir_);
}

std::string CheckpointStore::checkpoint_path(const std::string& dir,
                                             std::uint64_t sequence) {
  char name[40];
  std::snprintf(name, sizeof(name), "ckpt-%012" PRIu64 ".ckpt", sequence);
  return (std::filesystem::path(dir) / name).string();
}

std::string CheckpointStore::delta_path(const std::string& dir,
                                        std::uint64_t sequence) {
  char name[40];
  std::snprintf(name, sizeof(name), "dlta-%012" PRIu64 ".dlta", sequence);
  return (std::filesystem::path(dir) / name).string();
}

std::string CheckpointStore::cert_path(const std::string& dir,
                                       std::uint64_t sequence) {
  char name[40];
  std::snprintf(name, sizeof(name), "cert-%012" PRIu64 ".cert", sequence);
  return (std::filesystem::path(dir) / name).string();
}

namespace {

std::vector<std::uint64_t> list_indexed(const std::string& dir,
                                        std::string_view prefix,
                                        std::string_view suffix) {
  std::vector<std::uint64_t> sequences;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    const auto sequence = parse_indexed_name(entry.path().filename().string(),
                                             prefix, suffix, /*pad_width=*/12);
    if (sequence.has_value()) sequences.push_back(*sequence);
  }
  std::sort(sequences.begin(), sequences.end());
  return sequences;
}

std::optional<Bytes> read_whole_file(const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) return std::nullopt;
  std::fseek(file, 0, SEEK_END);
  const long size = std::ftell(file);
  std::fseek(file, 0, SEEK_SET);
  Bytes bytes(size > 0 ? static_cast<std::size_t>(size) : 0);
  const bool read_ok =
      std::fread(bytes.data(), 1, bytes.size(), file) == bytes.size();
  std::fclose(file);
  if (!read_ok) return std::nullopt;
  return bytes;
}

}  // namespace

std::vector<std::uint64_t> CheckpointStore::list(const std::string& dir) {
  return list_indexed(dir, "ckpt-", ".ckpt");
}

std::vector<std::uint64_t> CheckpointStore::list_deltas(const std::string& dir) {
  return list_indexed(dir, "dlta-", ".dlta");
}

void CheckpointStore::write(std::uint64_t sequence, BytesView encoded) {
  // The rename inside is the commit point: a crash before it leaves at most
  // a tmp file, which no reader ever looks at. The helper also fsyncs the
  // directory, so the rename itself survives power loss — the subsequent
  // retirement of older checkpoints and WAL segments relies on it.
  write_file_atomic(checkpoint_path(dir_, sequence), encoded, "CheckpointStore");
}

void CheckpointStore::write_delta(std::uint64_t sequence, BytesView encoded) {
  write_file_atomic(delta_path(dir_, sequence), encoded, "CheckpointStore");
}

void CheckpointStore::write_cert(std::uint64_t sequence, BytesView encoded) {
  write_file_atomic(cert_path(dir_, sequence), encoded, "CheckpointStore");
}

std::optional<std::pair<std::uint64_t, Bytes>> CheckpointStore::newest_valid_bytes()
    const {
  auto sequences = list(dir_);
  for (auto it = sequences.rbegin(); it != sequences.rend(); ++it) {
    auto bytes = read_whole_file(checkpoint_path(dir_, *it));
    if (!bytes.has_value()) continue;
    // std::exception, not just SerdeError: a corrupt file can also surface
    // as an allocation failure (e.g. Block::deserialize on garbage), and
    // recovery must fall back a checkpoint, not die.
    try {
      decode_checkpoint({bytes->data(), bytes->size()});  // CRC + shape gate
    } catch (const std::exception& error) {
      MM_LOG(kWarn) << "CheckpointStore: falling back past corrupt checkpoint "
                    << *it << ": " << error.what();
      continue;
    }
    return std::make_pair(*it, std::move(*bytes));
  }
  return std::nullopt;
}

std::vector<CheckpointStore::ChainLink> CheckpointStore::newest_valid_chain()
    const {
  const auto bases = list(dir_);
  const auto deltas = list_deltas(dir_);
  const auto load_cert = [&](std::uint64_t sequence) -> Bytes {
    auto bytes = read_whole_file(cert_path(dir_, sequence));
    if (!bytes.has_value()) return {};
    try {
      decode_checkpoint_certificate({bytes->data(), bytes->size()});
    } catch (const std::exception&) {
      return {};  // a corrupt sidecar degrades to "uncertified", never fails
    }
    return std::move(*bytes);
  };

  for (auto it = bases.rbegin(); it != bases.rend(); ++it) {
    auto base_bytes = read_whole_file(checkpoint_path(dir_, *it));
    if (!base_bytes.has_value()) continue;
    std::uint64_t prev_sequence = *it;
    SlotId prev_head;
    try {
      prev_head = decode_checkpoint({base_bytes->data(), base_bytes->size()}).head;
    } catch (const std::exception& error) {
      MM_LOG(kWarn) << "CheckpointStore: falling back past corrupt checkpoint "
                    << *it << ": " << error.what();
      continue;
    }

    std::vector<ChainLink> chain;
    chain.push_back({*it, std::move(*base_bytes), load_cert(*it)});
    for (std::uint64_t seq = *it + 1;
         std::binary_search(deltas.begin(), deltas.end(), seq); ++seq) {
      auto delta_bytes = read_whole_file(delta_path(dir_, seq));
      if (!delta_bytes.has_value()) break;
      try {
        const CheckpointDelta delta =
            decode_checkpoint_delta({delta_bytes->data(), delta_bytes->size()});
        if (delta.base_sequence != *it || delta.prev_sequence != prev_sequence ||
            delta.prev_head != prev_head) {
          break;  // stray link from another lineage
        }
        prev_head = delta.head;
      } catch (const std::exception& error) {
        // A torn delta tail truncates the chain here: the shorter chain plus
        // WAL segment replay still reconstructs a consistent state.
        MM_LOG(kWarn) << "CheckpointStore: truncating chain at corrupt delta "
                      << seq << ": " << error.what();
        break;
      }
      prev_sequence = seq;
      chain.push_back({seq, std::move(*delta_bytes), load_cert(seq)});
    }
    return chain;
  }
  return {};
}

std::optional<CheckpointData> CheckpointStore::load_newest_valid() const {
  const auto chain = newest_valid_chain();
  if (chain.empty()) return std::nullopt;
  // newest_valid_chain() decoded the base, and a link that decodes but does
  // not apply (e.g. a malformed app delta) shortens the chain in the replay.
  std::vector<BytesView> records;
  records.reserve(chain.size());
  for (const ChainLink& link : chain) records.emplace_back(link.record);
  return replay_checkpoint_chain(records);
}

void CheckpointStore::retire(std::size_t keep) {
  const auto bases = list(dir_);
  if (bases.size() <= keep) return;
  const auto deltas = list_deltas(dir_);
  // Chains are grouped by base: every delta sequence below the oldest kept
  // base belongs to a retired chain. Unlink retired deltas (newest first)
  // BEFORE any base: at every intermediate crash point the newest surviving
  // chain is still loadable — a base whose delta tail is gone is a valid
  // one-link chain, and no live delta ever outlives its base.
  const std::uint64_t keep_from = bases[bases.size() - keep];
  const auto unlink = [](const std::string& path) {
    std::error_code ec;
    std::filesystem::remove(path, ec);
  };
  for (auto it = deltas.rbegin(); it != deltas.rend(); ++it) {
    if (*it >= keep_from) continue;
    unlink(delta_path(dir_, *it));
    unlink(cert_path(dir_, *it));
  }
  for (auto it = bases.rbegin(); it != bases.rend(); ++it) {
    if (*it >= keep_from) continue;
    unlink(checkpoint_path(dir_, *it));
    unlink(cert_path(dir_, *it));
  }
  // One directory fsync covers the whole batch of unlinks (common/fsio):
  // after power loss either view is consistent, since unlink order above
  // keeps every prefix loadable.
  fsync_dir(dir_);
}

}  // namespace mahimahi
