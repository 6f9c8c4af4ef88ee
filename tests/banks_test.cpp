#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <vector>

#include "gpusim/banks.hpp"
#include "util/error.hpp"
#include "util/prng.hpp"

namespace lgg::gpusim {
namespace {

TEST(BankOf, SuccessiveWordsSuccessiveBanks) {
  EXPECT_EQ(bank_of(0, 16), 0u);
  EXPECT_EQ(bank_of(4, 16), 1u);
  EXPECT_EQ(bank_of(60, 16), 15u);
  EXPECT_EQ(bank_of(64, 16), 0u);  // wraps after 16 words
  EXPECT_EQ(bank_of(3, 16), 0u);  // bytes within one word share a bank
}

TEST(BankConflict, ConflictFreeSequential) {
  std::vector<std::uint64_t> addrs;
  for (int l = 0; l < 16; ++l) addrs.push_back(4ull * l);
  EXPECT_EQ(bank_conflict_degree(addrs, 16), 1u);
}

TEST(BankConflict, BroadcastIsFree) {
  // All lanes read the same word: hardware broadcast, one step.
  std::vector<std::uint64_t> addrs(16, 128);
  EXPECT_EQ(bank_conflict_degree(addrs, 16), 1u);
}

TEST(BankConflict, StrideTwoHalvesThroughput) {
  // Stride-2 words: lanes 0 and 8 share bank 0, etc. -> 2-way conflict.
  std::vector<std::uint64_t> addrs;
  for (int l = 0; l < 16; ++l) addrs.push_back(8ull * l);
  EXPECT_EQ(bank_conflict_degree(addrs, 16), 2u);
}

TEST(BankConflict, Stride16IsWorstCase) {
  // Every lane reads a different word in bank 0: fully serialised.
  std::vector<std::uint64_t> addrs;
  for (int l = 0; l < 16; ++l) addrs.push_back(64ull * l);
  EXPECT_EQ(bank_conflict_degree(addrs, 16), 16u);
}

TEST(BankConflict, MixedBroadcastAndConflict) {
  // Two lanes share word A (broadcast), two read distinct words in the
  // same bank -> degree 2.
  std::vector<std::uint64_t> addrs{0, 0, 64, 128};
  EXPECT_EQ(bank_conflict_degree(addrs, 16), 3u);  // words 0, 16, 32 in bank 0
}

TEST(BankConflict, ThirtyTwoBanksFermi) {
  // Stride-2 on 32 banks: 2-way conflict again.
  std::vector<std::uint64_t> addrs;
  for (int l = 0; l < 32; ++l) addrs.push_back(8ull * l);
  EXPECT_EQ(bank_conflict_degree(addrs, 32), 2u);
  // But stride-2 on 16 words touching banks 0..31 distinctly is free.
  addrs.clear();
  for (int l = 0; l < 16; ++l) addrs.push_back(4ull * l);
  EXPECT_EQ(bank_conflict_degree(addrs, 32), 1u);
}

TEST(BankConflict, EmptyAccess) {
  EXPECT_EQ(bank_conflict_degree({}, 16), 0u);
}

TEST(BankConflict, ZeroBanksThrows) {
  std::vector<std::uint64_t> addrs{0};
  EXPECT_THROW(bank_conflict_degree(addrs, 0), lgg::Error);
}

/// The original bank model, kept as the oracle: distinct words per bank,
/// one vector per bank.
std::uint32_t reference_degree(std::span<const std::uint64_t> addrs,
                               std::uint32_t banks) {
  if (addrs.empty()) return 0;
  std::vector<std::vector<std::uint64_t>> words_per_bank(banks);
  for (const std::uint64_t addr : addrs)
    words_per_bank[bank_of(addr, banks)].push_back(addr / 4);
  std::uint32_t degree = 1;
  for (auto& words : words_per_bank) {
    std::sort(words.begin(), words.end());
    words.erase(std::unique(words.begin(), words.end()), words.end());
    degree = std::max(degree, static_cast<std::uint32_t>(words.size()));
  }
  return degree;
}

TEST(BankConflict, MatchesReferenceOnRandomHalfWarps) {
  Xoshiro256 rng(20130520);
  for (int trial = 0; trial < 12000; ++trial) {
    const std::uint32_t banks = rng.uniform(2) == 0 ? 16 : 32;
    const std::size_t lanes = rng.uniform(17);  // 0..16 addresses
    // A small word range forces conflicts and repeated words; byte
    // offsets inside a word must not matter; a broadcast word recurs.
    const std::uint64_t span_words = 1 + rng.uniform(rng.uniform(2) ? 48 : 4096);
    const std::uint64_t base = rng.uniform(1u << 20) * 4;
    const std::uint64_t broadcast = base + rng.uniform(span_words) * 4;
    std::vector<std::uint64_t> addrs;
    for (std::size_t l = 0; l < lanes; ++l) {
      addrs.push_back(rng.uniform(4) == 0
                          ? broadcast
                          : base + rng.uniform(span_words) * 4 + rng.uniform(4));
    }
    ASSERT_EQ(bank_conflict_degree(addrs, banks),
              reference_degree(addrs, banks))
        << "trial " << trial << " banks " << banks << " lanes " << lanes;
  }
}

TEST(BankConflict, MatchesReferenceBeyondAHalfWarp) {
  // Spans longer than any half-warp (and odd bank counts) take the same
  // model.
  Xoshiro256 rng(7);
  for (int trial = 0; trial < 200; ++trial) {
    const std::uint32_t banks = 1 + static_cast<std::uint32_t>(rng.uniform(40));
    std::vector<std::uint64_t> addrs(1 + rng.uniform(100));
    for (auto& a : addrs) a = rng.uniform(512);
    ASSERT_EQ(bank_conflict_degree(addrs, banks),
              reference_degree(addrs, banks))
        << "trial " << trial << " banks " << banks;
  }
}

}  // namespace
}  // namespace lgg::gpusim
