#include "gpusim/banks.hpp"

#include <algorithm>
#include <array>
#include <vector>

#include "util/error.hpp"

namespace lgg::gpusim {

std::uint32_t bank_conflict_degree(std::span<const std::uint64_t> addrs,
                                   std::uint32_t banks) {
  LGG_CHECK(banks > 0, "bank_conflict_degree: banks must be positive");
  if (addrs.empty()) return 0;

  // Sort (bank, word) keys so each bank's words are one run; the degree is
  // the longest run of distinct words (a repeated word broadcasts).  A
  // half-warp's keys fit on the stack; only longer spans use the heap.
  struct Key {
    std::uint32_t bank;
    std::uint64_t word;
    bool operator<(const Key& o) const noexcept {
      return bank != o.bank ? bank < o.bank : word < o.word;
    }
  };
  constexpr std::size_t kStackKeys = 32;
  std::array<Key, kStackKeys> stack_keys;
  std::vector<Key> heap_keys;
  Key* keys = stack_keys.data();
  if (addrs.size() > kStackKeys) {
    heap_keys.resize(addrs.size());
    keys = heap_keys.data();
  }
  const std::size_t n = addrs.size();
  for (std::size_t i = 0; i < n; ++i)
    keys[i] = {bank_of(addrs[i], banks), addrs[i] / 4};
  std::sort(keys, keys + n);

  std::uint32_t degree = 1, run = 1;
  for (std::size_t i = 1; i < n; ++i) {
    if (keys[i].bank != keys[i - 1].bank)
      run = 1;
    else if (keys[i].word != keys[i - 1].word)
      degree = std::max(degree, ++run);
  }
  return degree;
}

}  // namespace lgg::gpusim
