// Tests for blocks, committees and the §2.3 validity rules.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "types/block.h"
#include "types/committee.h"
#include "types/validation.h"

namespace mahimahi {
namespace {

class BlockTest : public ::testing::Test {
 protected:
  BlockTest() : setup_(Committee::make_test(4)) {}

  // A valid round-1 block by `author` referencing all four genesis blocks.
  Block make_round1(ValidatorId author, std::vector<TxBatch> batches = {}) {
    return Block::make(author, 1, genesis_refs(), std::move(batches),
                       coin().share(author, 1), setup_.keypairs[author].private_key);
  }

  std::vector<BlockRef> genesis_refs() {
    std::vector<BlockRef> refs;
    for (ValidatorId v = 0; v < 4; ++v) {
      refs.push_back(Block::genesis(v, coin()).ref());
    }
    return refs;
  }

  const Committee& committee() const { return setup_.committee; }
  const crypto::ThresholdCoin& coin() const { return setup_.committee.coin(); }

  Committee::TestSetup setup_;
};

TEST_F(BlockTest, CommitteeThresholds) {
  EXPECT_EQ(committee().size(), 4u);
  EXPECT_EQ(committee().f(), 1u);
  EXPECT_EQ(committee().quorum_threshold(), 3u);
  EXPECT_EQ(committee().validity_threshold(), 2u);

  const auto big = Committee::make_test(10);
  EXPECT_EQ(big.committee.f(), 3u);
  EXPECT_EQ(big.committee.quorum_threshold(), 7u);

  const auto fifty = Committee::make_test(50);
  EXPECT_EQ(fifty.committee.f(), 16u);
  EXPECT_EQ(fifty.committee.quorum_threshold(), 33u);
}

TEST_F(BlockTest, MakeTestIsDeterministic) {
  const auto a = Committee::make_test(4, 7);
  const auto b = Committee::make_test(4, 7);
  const auto c = Committee::make_test(4, 8);
  EXPECT_EQ(a.committee.public_key(0), b.committee.public_key(0));
  EXPECT_EQ(a.committee.epoch_seed(), b.committee.epoch_seed());
  EXPECT_NE(a.committee.public_key(0), c.committee.public_key(0));
}

TEST_F(BlockTest, GenesisIsDeterministic) {
  const Block g1 = Block::genesis(2, coin());
  const Block g2 = Block::genesis(2, coin());
  EXPECT_EQ(g1.digest(), g2.digest());
  EXPECT_EQ(g1.round(), 0u);
  EXPECT_TRUE(g1.parents().empty());
  EXPECT_NE(g1.digest(), Block::genesis(3, coin()).digest());
}

TEST_F(BlockTest, DigestCommitsToContent) {
  const Block a = make_round1(0);
  TxBatch batch;
  batch.id = 9;
  const Block b = make_round1(0, {batch});
  EXPECT_NE(a.digest(), b.digest());
}

TEST_F(BlockTest, SerializeDeserializeRoundTrip) {
  TxBatch batch;
  batch.id = 77;
  batch.submitted_at = 123456;
  batch.count = 100;
  batch.tx_bytes = 512;
  batch.payload = to_bytes("actual payload bytes");
  const Block original = make_round1(1, {batch});

  const Bytes wire = original.serialize();
  const Block decoded = Block::deserialize({wire.data(), wire.size()});

  EXPECT_EQ(decoded.digest(), original.digest());
  EXPECT_EQ(decoded.author(), original.author());
  EXPECT_EQ(decoded.round(), original.round());
  EXPECT_EQ(decoded.parents(), original.parents());
  ASSERT_EQ(decoded.batches().size(), 1u);
  EXPECT_EQ(decoded.batches()[0], original.batches()[0]);
  EXPECT_EQ(decoded.signature(), original.signature());
}

TEST_F(BlockTest, DeserializeRejectsGarbage) {
  const Bytes garbage = to_bytes("definitely not a block");
  EXPECT_THROW(Block::deserialize({garbage.data(), garbage.size()}), serde::SerdeError);
}

TEST_F(BlockTest, DeserializeRejectsTruncation) {
  const Bytes wire = make_round1(0).serialize();
  for (const std::size_t cut : {1ul, 10ul, 63ul, wire.size() - 1}) {
    EXPECT_THROW(Block::deserialize({wire.data(), wire.size() - cut}), serde::SerdeError)
        << "cut " << cut;
  }
}

TEST_F(BlockTest, DeserializeRejectsTrailingBytes) {
  Bytes wire = make_round1(0).serialize();
  wire.push_back(0x00);
  EXPECT_THROW(Block::deserialize({wire.data(), wire.size()}), serde::SerdeError);
}

// Varint fields of the block encoding that the overlong test pads.
enum class Pad {
  kNone,
  kRound,
  kCreatedAt,
  kParentCount,
  kParentRound,
  kBatchCount,
  kPayloadLength,
  kReadKeyCount,
  kWriteKeyLength,
};

// Mirrors Block::encode_to field by field, but writes the `pad` varint in an
// overlong form: its value's groups, then one extra zero group (`80 00`
// for 0). Pad::kNone must reproduce serialize() exactly.
Bytes encode_padded(const Block& b, Pad pad) {
  serde::Writer w;
  const auto varint = [&](std::uint64_t v, Pad field) {
    if (field == Pad::kNone || field != pad) {
      w.varint(v);
      return;
    }
    for (; v >= 0x80; v >>= 7) w.u8(static_cast<std::uint8_t>(v) | 0x80);
    w.u8(static_cast<std::uint8_t>(v) | 0x80);
    w.u8(0x00);
  };
  const auto keys = [&](const std::vector<std::string>& list, Pad count, Pad length) {
    varint(list.size(), count);
    for (const std::string& key : list) {
      varint(key.size(), length);
      w.raw(as_bytes_view(key));
    }
  };
  w.raw(as_bytes_view("mahi-mahi/block/v2"));
  w.u32(b.author());
  varint(b.round(), Pad::kRound);
  varint(static_cast<std::uint64_t>(b.created_at()), Pad::kCreatedAt);
  varint(b.parents().size(), Pad::kParentCount);
  for (const BlockRef& parent : b.parents()) {
    varint(parent.round, Pad::kParentRound);
    w.u32(parent.author);
    w.digest(parent.digest);
  }
  w.digest(b.coin_share());
  varint(b.batches().size(), Pad::kBatchCount);
  for (const TxBatch& batch : b.batches()) {
    w.u64(batch.id);
    w.u64(static_cast<std::uint64_t>(batch.submitted_at));
    w.u32(batch.count);
    w.u32(batch.tx_bytes);
    varint(batch.payload.size(), Pad::kPayloadLength);
    w.raw({batch.payload.data(), batch.payload.size()});
    keys(batch.read_keys, Pad::kReadKeyCount, Pad::kNone);
    keys(batch.write_keys, Pad::kNone, Pad::kWriteKeyLength);
  }
  w.raw({b.signature().bytes.data(), b.signature().bytes.size()});
  return std::move(w).take();
}

TEST_F(BlockTest, DeserializeRejectsOverlongVarints) {
  // Only canonical encodings decode, so a decoded block's bytes are exactly
  // its encoding and the digest can be taken over the received content.
  TxBatch batch;
  batch.id = 5;
  batch.payload = Bytes(200, 0x5a);  // two-byte length prefix
  batch.read_keys = {"r"};
  batch.write_keys = {"w"};
  const Block b = Block::make(1, 1, genesis_refs(), {batch}, coin().share(1, 1),
                              setup_.keypairs[1].private_key, /*created_at=*/1'234'567);
  const Bytes canonical = encode_padded(b, Pad::kNone);
  ASSERT_EQ(canonical, b.serialize());
  EXPECT_EQ(canonical.size(), b.encoded_size());
  EXPECT_EQ(Block::deserialize({canonical.data(), canonical.size()}).digest(), b.digest());
  for (const Pad pad : {Pad::kRound, Pad::kCreatedAt, Pad::kParentCount, Pad::kParentRound,
                        Pad::kBatchCount, Pad::kPayloadLength, Pad::kReadKeyCount,
                        Pad::kWriteKeyLength}) {
    const Bytes padded = encode_padded(b, pad);
    ASSERT_GT(padded.size(), canonical.size());
    EXPECT_THROW(Block::deserialize({padded.data(), padded.size()}), serde::SerdeError)
        << "overlong field " << static_cast<int>(pad) << " accepted";
  }
}

TEST_F(BlockTest, EncodedSizeIsExact) {
  // Multi-byte varints everywhere a varint can be: large round, timestamp,
  // payload length and key count.
  TxBatch big;
  big.payload = Bytes(70'000, 0x01);
  for (int i = 0; i < 130; ++i) big.write_keys.push_back("key" + std::to_string(i));
  std::vector<BlockRef> parents = genesis_refs();
  parents[0].round = std::uint64_t{1} << 40;
  for (const Block& b :
       {make_round1(0), make_round1(3, {TxBatch{}, big}),
        Block::make(2, std::uint64_t{1} << 50, parents, {big}, coin().share(2, 9),
                    setup_.keypairs[2].private_key, /*created_at=*/-1),
        Block::make(2, 300, parents, {}, coin().share(2, 9), setup_.keypairs[2].private_key,
                    /*created_at=*/std::int64_t{1} << 62),
        Block::genesis(1, coin())}) {
    EXPECT_EQ(b.serialize().size(), b.encoded_size());
  }
}

TEST_F(BlockTest, TransactionAndWireAccounting) {
  TxBatch simulated;
  simulated.count = 50;
  simulated.tx_bytes = 512;
  TxBatch real;
  real.count = 1;
  real.payload = Bytes(100, 0xaa);
  const Block b = make_round1(2, {simulated, real});
  EXPECT_EQ(b.transaction_count(), 51u);
  EXPECT_GE(b.wire_bytes(), 50u * 512 + 100);
}

// --- Validation rules (§2.3) -----------------------------------------------

TEST_F(BlockTest, ValidBlockPasses) {
  EXPECT_EQ(validate_block(make_round1(0), committee()), BlockValidity::kValid);
}

TEST_F(BlockTest, RejectsUnknownAuthor) {
  // An author index outside the committee.
  const Block b = Block::make(9, 1, genesis_refs(), {}, coin().share(9, 1),
                              setup_.keypairs[0].private_key);
  EXPECT_EQ(validate_block(b, committee()), BlockValidity::kUnknownAuthor);
}

TEST_F(BlockTest, RejectsNetworkGenesis) {
  const Block g = Block::genesis(0, coin());
  EXPECT_EQ(validate_block(g, committee()), BlockValidity::kGenesisFromNetwork);
}

TEST_F(BlockTest, RejectsBadSignature) {
  // Signed with validator 1's key but claims author 0.
  const Block forged = Block::make(0, 1, genesis_refs(), {}, coin().share(0, 1),
                                   setup_.keypairs[1].private_key);
  EXPECT_EQ(validate_block(forged, committee()), BlockValidity::kBadSignature);
}

TEST_F(BlockTest, RejectsBadCoinShare) {
  // Coin share for the wrong round.
  const Block b = Block::make(0, 1, genesis_refs(), {}, coin().share(0, 5),
                              setup_.keypairs[0].private_key);
  EXPECT_EQ(validate_block(b, committee()), BlockValidity::kBadCoinShare);
}

TEST_F(BlockTest, RejectsDuplicateParents) {
  auto refs = genesis_refs();
  refs.push_back(refs[0]);
  const Block b = Block::make(0, 1, refs, {}, coin().share(0, 1),
                              setup_.keypairs[0].private_key);
  EXPECT_EQ(validate_block(b, committee()), BlockValidity::kDuplicateParents);
}

TEST_F(BlockTest, RejectsInsufficientParentQuorum) {
  auto refs = genesis_refs();
  refs.resize(2);  // 2 < 2f+1 = 3
  const Block b = Block::make(0, 1, refs, {}, coin().share(0, 1),
                              setup_.keypairs[0].private_key);
  EXPECT_EQ(validate_block(b, committee()), BlockValidity::kInsufficientParentQuorum);
}

TEST_F(BlockTest, RejectsParentFromFutureRound) {
  auto refs = genesis_refs();
  refs[0].round = 1;  // same round as the block
  const Block b = Block::make(0, 1, refs, {}, coin().share(0, 1),
                              setup_.keypairs[0].private_key);
  EXPECT_EQ(validate_block(b, committee()), BlockValidity::kParentFromFuture);
}

TEST_F(BlockTest, RejectsParentByUnknownAuthor) {
  auto refs = genesis_refs();
  refs[0].author = 17;
  const Block b = Block::make(0, 1, refs, {}, coin().share(0, 1),
                              setup_.keypairs[0].private_key);
  EXPECT_EQ(validate_block(b, committee()), BlockValidity::kParentUnknownAuthor);
}

TEST_F(BlockTest, QuorumCountsDistinctAuthorsNotRefs) {
  // Three refs but only two distinct round-0 authors (one from an older
  // round): must fail the 2f+1 rule at round-1... constructed at round 2.
  const Block base = make_round1(0);
  auto refs = genesis_refs();
  std::vector<BlockRef> parents = {refs[0], refs[1]};  // round 0: 2 authors? -> used at round 1
  parents.push_back(base.ref());                       // round 1 ref for a round-2 block
  const Block b = Block::make(0, 2, parents, {}, coin().share(0, 2),
                              setup_.keypairs[0].private_key);
  EXPECT_EQ(validate_block(b, committee()), BlockValidity::kInsufficientParentQuorum);
}

TEST_F(BlockTest, ValidationOptionsSkipExpensiveChecks) {
  const Block forged = Block::make(0, 1, genesis_refs(), {}, coin().share(0, 5),
                                   setup_.keypairs[1].private_key);
  ValidationOptions lax;
  lax.verify_signature = false;
  lax.verify_coin_share = false;
  EXPECT_EQ(validate_block(forged, committee(), lax), BlockValidity::kValid);
}

TEST_F(BlockTest, ToStringSmoke) {
  EXPECT_EQ(to_string(BlockValidity::kValid), "valid");
  EXPECT_FALSE(to_string(BlockValidity::kBadSignature).empty());
  const BlockRef ref = make_round1(3).ref();
  EXPECT_NE(ref.to_string().find("v3"), std::string::npos);
}

}  // namespace
}  // namespace mahimahi
