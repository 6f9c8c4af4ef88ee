#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <numeric>
#include <vector>

#include "gpusim/coalescing.hpp"
#include "util/error.hpp"
#include "util/prng.hpp"

namespace lgg::gpusim {
namespace {

/// 32 lanes reading consecutive 4-byte words from `base`.
std::vector<std::uint64_t> sequential_warp(std::uint64_t base) {
  std::vector<std::uint64_t> addrs(32);
  for (std::uint32_t l = 0; l < 32; ++l) addrs[l] = base + 4ull * l;
  return addrs;
}

/// Same 128-byte footprint but lanes permuted within each 64-byte half.
std::vector<std::uint64_t> permuted_warp(std::uint64_t base) {
  auto addrs = sequential_warp(base);
  // Swap pairs within each half-warp: a permutation, same segments.
  for (std::uint32_t l = 0; l + 1 < 16; l += 2) std::swap(addrs[l], addrs[l + 1]);
  for (std::uint32_t l = 16; l + 1 < 32; l += 2) std::swap(addrs[l], addrs[l + 1]);
  return addrs;
}

// ---- Table III of the paper, row by row ----

// gtest prints a row as its raw bytes and ctest names each case after that
// text, so the row spells out its padding: no byte is left indeterminate.
struct TableIIIRow {
  ComputeCapability cc;
  bool sequential;
  std::uint8_t pad[3];
  std::size_t want_transactions;
};
static_assert(sizeof(TableIIIRow) == 16, "no implicit padding");

class TableIII : public ::testing::TestWithParam<TableIIIRow> {};

TEST_P(TableIII, TransactionCountsMatchPaper) {
  const auto& row = GetParam();
  const auto addrs =
      row.sequential ? sequential_warp(0) : permuted_warp(0);
  EXPECT_EQ(warp_transaction_count(row.cc, addrs, 4), row.want_transactions);
}

INSTANTIATE_TEST_SUITE_P(
    PaperRows, TableIII,
    ::testing::Values(
        TableIIIRow{ComputeCapability::k10, true, {}, 2},
        TableIIIRow{ComputeCapability::k11, true, {}, 2},
        TableIIIRow{ComputeCapability::k12, true, {}, 2},
        TableIIIRow{ComputeCapability::k13, true, {}, 2},
        TableIIIRow{ComputeCapability::k20, true, {}, 1},
        TableIIIRow{ComputeCapability::k10, false, {}, 32},
        TableIIIRow{ComputeCapability::k11, false, {}, 32},
        TableIIIRow{ComputeCapability::k12, false, {}, 2},
        TableIIIRow{ComputeCapability::k13, false, {}, 2},
        TableIIIRow{ComputeCapability::k20, false, {}, 1}));

// ---- rule details ----

TEST(CoalesceCc10, MisalignedBaseSerialises) {
  // Sequential but shifted by one word: CC 1.0/1.1 cannot coalesce.
  const auto addrs = sequential_warp(4);
  EXPECT_EQ(warp_transaction_count(ComputeCapability::k10, addrs, 4), 32u);
  // CC 1.2 covers each half-warp with two segments (64B span straddling
  // the 64B boundary within a 128B segment may still be 1 or 2).
  EXPECT_LE(warp_transaction_count(ComputeCapability::k12, addrs, 4), 4u);
}

TEST(CoalesceCc10, InactiveLanesAllowed) {
  // Lanes 0..15 except lane 7 read their own word: still one transaction.
  std::vector<LaneAccess> accesses;
  for (std::uint32_t l = 0; l < 16; ++l) {
    if (l == 7) continue;
    accesses.push_back({l, 4ull * l});
  }
  const auto result = coalesce_warp(ComputeCapability::k10, accesses, 4);
  EXPECT_EQ(result.count(), 1u);
  EXPECT_EQ(result.transactions[0].bytes, 64u);
}

TEST(CoalesceCc12, BroadcastSameWordIsOneNarrowTransaction) {
  std::vector<LaneAccess> accesses;
  for (std::uint32_t l = 0; l < 16; ++l) accesses.push_back({l, 256});
  const auto result = coalesce_warp(ComputeCapability::k13, accesses, 4);
  ASSERT_EQ(result.count(), 1u);
  EXPECT_EQ(result.transactions[0].bytes, 32u);  // narrowed to a quarter
}

TEST(CoalesceCc12, NarrowingTo64Bytes) {
  // Half-warp touching only the upper 64B half of a 128B segment.
  std::vector<LaneAccess> accesses;
  for (std::uint32_t l = 0; l < 16; ++l) accesses.push_back({l, 64 + 4ull * l});
  const auto result = coalesce_warp(ComputeCapability::k12, accesses, 4);
  ASSERT_EQ(result.count(), 1u);
  EXPECT_EQ(result.transactions[0].base, 64u);
  EXPECT_EQ(result.transactions[0].bytes, 64u);
}

TEST(CoalesceCc12, ScatteredLanesOneSegmentEach) {
  // 16 lanes in 16 different 128-byte segments.
  std::vector<LaneAccess> accesses;
  for (std::uint32_t l = 0; l < 16; ++l)
    accesses.push_back({l, 1024ull * l});
  const auto result = coalesce_warp(ComputeCapability::k13, accesses, 4);
  EXPECT_EQ(result.count(), 16u);
}

TEST(CoalesceCc20, DistinctLinesCounted) {
  std::vector<LaneAccess> accesses;
  for (std::uint32_t l = 0; l < 32; ++l)
    accesses.push_back({l, (l % 4) * 128ull});  // 4 distinct lines
  const auto result = coalesce_warp(ComputeCapability::k20, accesses, 4);
  EXPECT_EQ(result.count(), 4u);
  EXPECT_EQ(result.bytes(), 4u * 128);
}

TEST(CoalesceCc20, FullWarpNotSplitIntoHalves) {
  // Lanes 0..31 within one 128B line: a single transaction (CC 1.x would
  // use two half-warp transactions).
  const auto addrs = sequential_warp(1024);
  EXPECT_EQ(warp_transaction_count(ComputeCapability::k20, addrs, 4), 1u);
  EXPECT_EQ(warp_transaction_count(ComputeCapability::k13, addrs, 4), 2u);
}

TEST(Coalesce, EmptyAccessListNoTransactions) {
  const auto result =
      coalesce_warp(ComputeCapability::k13, std::vector<LaneAccess>{}, 4);
  EXPECT_EQ(result.count(), 0u);
}

TEST(Coalesce, ValidatesArguments) {
  std::vector<LaneAccess> bad_lane{{32, 0}};
  EXPECT_THROW(coalesce_warp(ComputeCapability::k13, bad_lane, 4), lgg::Error);
  std::vector<LaneAccess> misaligned{{0, 2}};
  EXPECT_THROW(coalesce_warp(ComputeCapability::k13, misaligned, 4),
               lgg::Error);
  std::vector<LaneAccess> ok{{0, 0}};
  EXPECT_THROW(coalesce_warp(ComputeCapability::k13, ok, 3), lgg::Error);
}

TEST(Coalesce, EightByteWords) {
  // 16 lanes * 8 bytes = 128B per half-warp, aligned: one 128B transaction
  // per half-warp on CC 1.0 (segment = 16 * word size).
  std::vector<LaneAccess> accesses;
  for (std::uint32_t l = 0; l < 16; ++l) accesses.push_back({l, 8ull * l});
  const auto result = coalesce_warp(ComputeCapability::k10, accesses, 8);
  ASSERT_EQ(result.count(), 1u);
  EXPECT_EQ(result.transactions[0].bytes, 128u);
}

// Monotonicity property: a permutation never helps on CC >= 1.2 and never
// hurts relative to the strict rule's worst case.
TEST(Coalesce, RandomPatternsWithinBounds) {
  Xoshiro256 rng(4);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<std::uint64_t> addrs(32);
    for (auto& a : addrs) a = rng.uniform(1 << 16) * 4;
    const std::size_t t10 =
        warp_transaction_count(ComputeCapability::k10, addrs, 4);
    const std::size_t t13 =
        warp_transaction_count(ComputeCapability::k13, addrs, 4);
    const std::size_t t20 =
        warp_transaction_count(ComputeCapability::k20, addrs, 4);
    EXPECT_LE(t13, t10);  // hardware coalescer never loses to strict rule
    EXPECT_LE(t20, t13);  // cache lines never lose to segments
    EXPECT_GE(t13, 1u);
    EXPECT_LE(t10, 32u);
  }
}

}  // namespace
}  // namespace lgg::gpusim
