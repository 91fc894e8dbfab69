// Robustness fuzzing of the block wire codec and validation pipeline.
//
// Blocks are the only message type the protocol accepts from the network
// (§2.3), so the deserialize -> validate pipeline is the entire attack
// surface for malformed input. Properties:
//   * any single bit flip is caught — either the decoder throws SerdeError
//     or the decoded block fails signature validation (every byte of the
//     wire image except the trailing signature is covered by the digest,
//     and the signature signs the digest);
//   * any truncation or extension of the wire image throws;
//   * arbitrary random bytes never crash the decoder;
//   * the decoder is canonical: every mutated image that still decodes
//     re-encodes to exactly its own bytes, and its digest is Blake2b of its
//     content span (everything but the trailing signature);
//   * WAL records are CRC-framed, so flipping any byte of a record makes
//     replay stop at a clean prefix instead of delivering garbage.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <optional>

#include "codec_fixtures.h"
#include "common/rng.h"
#include "crypto/blake2b.h"
#include "types/validation.h"
#include "wal/wal.h"

namespace mahimahi {
namespace {

class BlockFuzz : public ::testing::Test {
 protected:
  static Block make_subject(const Committee::TestSetup& setup) {
    std::vector<BlockRef> genesis;
    for (ValidatorId v = 0; v < setup.committee.size(); ++v) {
      genesis.push_back(Block::genesis(v, setup.committee.coin()).ref());
    }
    TxBatch batch;
    batch.id = 77;
    batch.count = 3;
    batch.payload = Bytes{1, 2, 3, 4, 5, 6, 7, 8};
    return Block::make(1, 1, std::move(genesis), {batch},
                       setup.committee.coin().share(1, 1),
                       setup.keypairs[1].private_key);
  }

  BlockFuzz()
      : setup_(Committee::make_test(4)),
        block_(make_subject(setup_)),
        wire_(block_.serialize()) {}

  // True when the mutated image is rejected somewhere in the pipeline.
  bool rejected(const Bytes& image) const {
    try {
      const Block decoded = Block::deserialize({image.data(), image.size()});
      return validate_block(decoded, setup_.committee) != BlockValidity::kValid;
    } catch (const serde::SerdeError&) {
      return true;
    }
  }

  Committee::TestSetup setup_;
  Block block_;
  Bytes wire_;
};

TEST_F(BlockFuzz, PristineImageRoundTripsAndValidates) {
  const Block decoded = Block::deserialize({wire_.data(), wire_.size()});
  EXPECT_EQ(decoded.digest(), block_.digest());
  EXPECT_EQ(validate_block(decoded, setup_.committee), BlockValidity::kValid);
}

TEST_F(BlockFuzz, EveryBitFlipIsRejected) {
  // Exhaustive over bytes, one bit per byte (rotating), plus all 8 bits for
  // a random sample of bytes — full 8x exhaustive would be slow for no
  // extra information.
  for (std::size_t i = 0; i < wire_.size(); ++i) {
    Bytes mutated = wire_;
    mutated[i] ^= static_cast<std::uint8_t>(1u << (i % 8));
    EXPECT_TRUE(rejected(mutated)) << "bit flip at byte " << i << " accepted";
  }
  Rng rng(2024);
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t i = rng.uniform(wire_.size());
    Bytes mutated = wire_;
    mutated[i] ^= static_cast<std::uint8_t>(1u << rng.uniform(8));
    EXPECT_TRUE(rejected(mutated)) << "bit flip at byte " << i;
  }
}

TEST_F(BlockFuzz, EveryTruncationThrows) {
  for (std::size_t length = 0; length < wire_.size(); ++length) {
    Bytes truncated(wire_.begin(), wire_.begin() + length);
    EXPECT_THROW(Block::deserialize({truncated.data(), truncated.size()}),
                 serde::SerdeError)
        << "truncation to " << length << " bytes parsed";
  }
}

TEST_F(BlockFuzz, TrailingGarbageThrows) {
  for (const std::size_t extra : {std::size_t{1}, std::size_t{7}, std::size_t{256}}) {
    Bytes extended = wire_;
    extended.insert(extended.end(), extra, 0xAB);
    EXPECT_THROW(Block::deserialize({extended.data(), extended.size()}),
                 serde::SerdeError);
  }
}

TEST_F(BlockFuzz, RandomBuffersNeverCrash) {
  Rng rng(31337);
  for (int trial = 0; trial < 2000; ++trial) {
    Bytes junk(rng.uniform(512));
    for (auto& byte : junk) byte = static_cast<std::uint8_t>(rng.uniform(256));
    EXPECT_TRUE(rejected(junk)) << "random buffer accepted as a valid block";
  }
}

TEST_F(BlockFuzz, ByteSwapsAreRejected) {
  // Transpositions model reordering corruption rather than flips.
  Rng rng(11);
  for (int trial = 0; trial < 300; ++trial) {
    Bytes mutated = wire_;
    const std::size_t i = rng.uniform(mutated.size());
    const std::size_t j = rng.uniform(mutated.size());
    if (mutated[i] == mutated[j]) continue;  // no-op swap
    std::swap(mutated[i], mutated[j]);
    EXPECT_TRUE(rejected(mutated)) << "swap " << i << "<->" << j;
  }
}

TEST_F(BlockFuzz, EveryDecodedMutationReencodesToItsInput) {
  // The digest of a received block is taken over its bytes, not over a
  // re-encoding. That is sound only if no two byte strings decode to the
  // same block: check that whatever decodes re-encodes to its exact input.
  const BlockPtr rich = codec_fixtures::block();
  const Bytes images[] = {wire_, rich->serialize()};
  Rng rng(4242);
  std::size_t decoded = 0;
  for (const Bytes& image : images) {
    for (int trial = 0; trial < 3000; ++trial) {
      Bytes m = image;
      const std::size_t i = rng.uniform(m.size());
      switch (rng.uniform(5)) {
        case 0:  // one to three bit flips
          for (std::uint64_t k = 0, n = 1 + rng.uniform(3); k < n; ++k) {
            m[rng.uniform(m.size())] ^= static_cast<std::uint8_t>(1u << rng.uniform(8));
          }
          break;
        case 1:  // one byte overwritten
          m[i] = static_cast<std::uint8_t>(rng.uniform(256));
          break;
        case 2:  // a would-be varint terminator padded into an overlong form
          if (m[i] < 0x80) {
            m[i] |= 0x80;
            m.insert(m.begin() + static_cast<std::ptrdiff_t>(i) + 1, 0x00);
          }
          break;
        case 3:  // bytes inserted or removed mid-image
          if (rng.uniform(2) == 0) {
            m.insert(m.begin() + static_cast<std::ptrdiff_t>(i), 1 + rng.uniform(4),
                     static_cast<std::uint8_t>(rng.uniform(256)));
          } else {
            m.erase(m.begin() + static_cast<std::ptrdiff_t>(i),
                    m.begin() + static_cast<std::ptrdiff_t>(
                                    std::min<std::size_t>(m.size(), i + 1 + rng.uniform(4))));
          }
          break;
        default: {  // a span of the image spliced over another spot
          const std::size_t from = rng.uniform(image.size());
          const std::size_t len =
              std::min<std::size_t>({1 + rng.uniform(16), image.size() - from, m.size() - i});
          std::copy_n(image.begin() + static_cast<std::ptrdiff_t>(from), len,
                      m.begin() + static_cast<std::ptrdiff_t>(i));
          break;
        }
      }
      std::optional<Block> block;
      try {
        block = Block::deserialize({m.data(), m.size()});
      } catch (const serde::SerdeError&) {
        continue;
      }
      ++decoded;
      ASSERT_EQ(block->serialize(), m) << "image " << trial << " decodes non-canonically";
      ASSERT_EQ(block->digest(), crypto::Blake2b::hash256(BytesView(m).first(m.size() - 64)));
    }
  }
  // Flips inside payloads and signatures decode: the property was exercised.
  EXPECT_GT(decoded, 500u);
}

// --------------------------------------------------------------------------
// WAL corruption sweep
// --------------------------------------------------------------------------

class WalCorruption : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(WalCorruption, FlipAnywhereYieldsCleanPrefix) {
  const auto setup = Committee::make_test(4);
  const auto path = std::filesystem::temp_directory_path() /
                    ("mahi_fuzz_wal_" + std::to_string(::getpid()) + "_" +
                     std::to_string(GetParam()) + ".wal");
  std::filesystem::remove(path);

  // Write 20 blocks.
  std::vector<Digest> digests;
  {
    FileWal wal(path.string());
    std::vector<BlockRef> parents;
    for (ValidatorId v = 0; v < 4; ++v) {
      parents.push_back(Block::genesis(v, setup.committee.coin()).ref());
    }
    BlockRef own_previous = parents[0];
    for (Round r = 1; r <= 20; ++r) {
      auto block = Block::make(0, r, parents, {}, setup.committee.coin().share(0, r),
                               setup.keypairs[0].private_key);
      digests.push_back(block.digest());
      wal.append_block(block, true);
      // Chain rounds through the own block so refs stay structurally valid.
      own_previous = block.ref();
      parents[0] = own_previous;
    }
    wal.sync();
  }

  // Flip one random byte.
  const auto size = std::filesystem::file_size(path);
  Rng rng(GetParam());
  const std::uint64_t offset = rng.uniform(size);
  {
    std::FILE* file = std::fopen(path.string().c_str(), "r+b");
    ASSERT_NE(file, nullptr);
    std::fseek(file, static_cast<long>(offset), SEEK_SET);
    const int original = std::fgetc(file);
    std::fseek(file, static_cast<long>(offset), SEEK_SET);
    std::fputc((original ^ 0x40) & 0xFF, file);
    std::fclose(file);
  }

  // Replay must deliver a clean prefix of the original digests: no garbage
  // block, no crash, and everything before the corrupted record intact.
  std::vector<Digest> replayed;
  FileWal::Visitor visitor;
  visitor.on_block = [&](BlockPtr block, bool) { replayed.push_back(block->digest()); };
  visitor.on_commit = [](SlotId) {};
  const auto result = FileWal::replay(path.string(), visitor,
                                      /*truncate_corrupt_tail=*/false);

  ASSERT_LE(replayed.size(), digests.size());
  for (std::size_t i = 0; i < replayed.size(); ++i) {
    EXPECT_EQ(replayed[i], digests[i]) << "replayed record " << i << " differs";
  }
  // A flip inside a record's framing or payload costs at least that record.
  EXPECT_TRUE(result.corrupt_tail || replayed.size() == digests.size());

  std::filesystem::remove(path);
}

INSTANTIATE_TEST_SUITE_P(RandomOffsets, WalCorruption,
                         ::testing::Range<std::uint64_t>(1, 25));

}  // namespace
}  // namespace mahimahi
