#include "sort/distribution.hpp"

#include <algorithm>
#include <iterator>

#include "util/contracts.hpp"

namespace ftsort::sort {

Distribution distribute_evenly(std::span<const Key> keys,
                               std::uint32_t live_count) {
  FTSORT_REQUIRE(live_count > 0);
  Distribution dist;
  dist.block_size =
      (keys.size() + live_count - 1) / live_count;  // ceil; 0 when no keys
  dist.blocks.resize(live_count);
  std::size_t offset = 0;
  for (auto& block : dist.blocks) {
    const std::size_t take = std::min(dist.block_size, keys.size() - offset);
    block.assign(keys.begin() + static_cast<std::ptrdiff_t>(offset),
                 keys.begin() + static_cast<std::ptrdiff_t>(offset + take));
    block.resize(dist.block_size, sim::kDummyKey);
    offset += take;
  }
  FTSORT_ENSURE(offset == keys.size());
  return dist;
}

std::vector<Key> gather_and_strip(
    std::span<const std::vector<Key>> blocks) {
  std::size_t total = 0;
  for (const auto& block : blocks) total += block.size();
  std::vector<Key> out;
  out.reserve(total);
  for (const auto& block : blocks)
    std::copy_if(block.begin(), block.end(), std::back_inserter(out),
                 [](Key key) { return key != sim::kDummyKey; });
  return out;
}

std::vector<Key> gen_uniform(std::size_t count, util::Rng& rng) {
  std::vector<Key> keys(count);
  for (auto& key : keys)
    key = static_cast<Key>(rng.below(std::uint64_t{1} << 48));
  return keys;
}

std::vector<Key> gen_sorted(std::size_t count) {
  std::vector<Key> keys(count);
  for (std::size_t i = 0; i < count; ++i) keys[i] = static_cast<Key>(i);
  return keys;
}

std::vector<Key> gen_reverse(std::size_t count) {
  std::vector<Key> keys(count);
  for (std::size_t i = 0; i < count; ++i)
    keys[i] = static_cast<Key>(count - i);
  return keys;
}

std::vector<Key> gen_few_distinct(std::size_t count, std::size_t distinct,
                                  util::Rng& rng) {
  FTSORT_REQUIRE(distinct > 0);
  std::vector<Key> keys(count);
  for (auto& key : keys)
    key = static_cast<Key>(rng.below(distinct) * 1000);
  return keys;
}

std::vector<Key> gen_organ_pipe(std::size_t count) {
  std::vector<Key> keys(count);
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t up = i < (count + 1) / 2 ? i : count - 1 - i;
    keys[i] = static_cast<Key>(up);
  }
  return keys;
}

std::vector<Key> gen_nearly_sorted(std::size_t count, std::size_t swaps,
                                   util::Rng& rng) {
  std::vector<Key> keys = gen_sorted(count);
  for (std::size_t t = 0; t < swaps && count >= 2; ++t) {
    const auto i = static_cast<std::size_t>(rng.below(count));
    const auto j = static_cast<std::size_t>(rng.below(count));
    std::swap(keys[i], keys[j]);
  }
  return keys;
}

}  // namespace ftsort::sort
