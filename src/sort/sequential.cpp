#include "sort/sequential.hpp"

#include <algorithm>

#include "util/contracts.hpp"

namespace ftsort::sort {

namespace {

/// Restore the max-heap property below `root` within data[0 .. size).
///
/// Bottom-up (Wegener 1993): walk the larger-child path to a leaf, moving
/// each key up one level, then climb back while the moved-up key is `<=`
/// the sifted key `x`. The key lands exactly where the textbook loop
/// would put it — the first key on the path that is `<= x` (path keys
/// never increase going down), or the leaf. The host does about one
/// comparison per level instead of two; the charge is still the textbook
/// count: per level down to and including the settling level, 2 when the
/// node has two children and 1 when it has only one. Sinking to the leaf
/// costs nothing at the leaf level.
void sift_down(std::span<Key> data, std::size_t root, std::size_t size,
               std::uint64_t& comparisons) {
  Key* const a = data.data();
  const Key x = a[root];
  std::size_t hole = root;
  std::size_t levels = 0;
  std::size_t child = 2 * hole + 2;
  for (; child < size; child = 2 * hole + 2) {
    // Right child only when strictly greater, as the textbook picks it.
    child -= a[child] > a[child - 1] ? 0 : 1;
    a[hole] = a[child];
    hole = child;
    ++levels;
  }
  // Only a left child: at most one node of the heap is like this.
  const bool one_child = child == size;
  if (one_child) {
    a[hole] = a[size - 1];
    hole = size - 1;
    ++levels;
  }
  std::size_t climbed = 0;
  while (hole != root) {
    const std::size_t parent = (hole - 1) / 2;
    if (a[parent] > x) break;
    a[hole] = a[parent];
    hole = parent;
    ++climbed;
  }
  a[hole] = x;
  // Levels the textbook loop compares at: down to the settling level, or
  // every level above the leaf when `x` sinks all the way.
  const std::size_t charged = climbed == 0 ? levels : levels - climbed + 1;
  comparisons += 2 * charged - (one_child && charged == levels ? 1 : 0);
}

}  // namespace

void heapsort(std::span<Key> data, std::uint64_t& comparisons) {
  const std::size_t n = data.size();
  if (n < 2) return;
  for (std::size_t i = n / 2; i-- > 0;)
    sift_down(data, i, n, comparisons);
  for (std::size_t end = n; end-- > 1;) {
    std::swap(data[0], data[end]);
    sift_down(data, 0, end, comparisons);
  }
}

void heapsort(std::span<Key> data) {
  std::uint64_t ignored = 0;
  heapsort(data, ignored);
}

namespace {

void mergesort_impl(std::span<Key> data, std::span<Key> scratch,
                    std::uint64_t& comparisons) {
  const std::size_t n = data.size();
  if (n < 2) return;
  const std::size_t half = n / 2;
  mergesort_impl(data.subspan(0, half), scratch.subspan(0, half),
                 comparisons);
  mergesort_impl(data.subspan(half), scratch.subspan(half), comparisons);
  // Merge into scratch, then copy back.
  std::size_t i = 0;
  std::size_t j = half;
  std::size_t out = 0;
  while (i < half && j < n) {
    ++comparisons;
    scratch[out++] = (data[j] < data[i]) ? data[j++] : data[i++];
  }
  while (i < half) scratch[out++] = data[i++];
  while (j < n) scratch[out++] = data[j++];
  std::copy(scratch.begin(), scratch.begin() + static_cast<std::ptrdiff_t>(n),
            data.begin());
}

void insertion_sort(std::span<Key> data, std::uint64_t& comparisons) {
  for (std::size_t i = 1; i < data.size(); ++i) {
    const Key key = data[i];
    std::size_t j = i;
    while (j > 0) {
      ++comparisons;
      if (data[j - 1] <= key) break;
      data[j] = data[j - 1];
      --j;
    }
    data[j] = key;
  }
}

void quicksort_impl(std::span<Key> data, std::uint64_t& comparisons) {
  constexpr std::size_t kCutoff = 16;
  while (data.size() > kCutoff) {
    // Median of three: first, middle, last.
    const std::size_t n = data.size();
    const std::size_t mid = n / 2;
    comparisons += 3;
    if (data[mid] < data[0]) std::swap(data[mid], data[0]);
    if (data[n - 1] < data[0]) std::swap(data[n - 1], data[0]);
    if (data[n - 1] < data[mid]) std::swap(data[n - 1], data[mid]);
    const Key pivot = data[mid];
    // Hoare partition.
    std::size_t i = 0;
    std::size_t j = n - 1;
    while (true) {
      do {
        ++i;
        ++comparisons;
      } while (data[i] < pivot);
      do {
        --j;
        ++comparisons;
      } while (pivot < data[j]);
      if (i >= j) break;
      std::swap(data[i], data[j]);
    }
    // Recurse into the smaller side, loop on the larger (O(log n) stack).
    const std::size_t split = j + 1;
    if (split < n - split) {
      quicksort_impl(data.subspan(0, split), comparisons);
      data = data.subspan(split);
    } else {
      quicksort_impl(data.subspan(split), comparisons);
      data = data.subspan(0, split);
    }
  }
  insertion_sort(data, comparisons);
}

}  // namespace

void mergesort(std::span<Key> data, std::uint64_t& comparisons) {
  std::vector<Key> scratch(data.size());
  mergesort_impl(data, scratch, comparisons);
}

void quicksort(std::span<Key> data, std::uint64_t& comparisons) {
  quicksort_impl(data, comparisons);
}

void local_sort(LocalSort algorithm, std::span<Key> data,
                std::uint64_t& comparisons) {
  switch (algorithm) {
    case LocalSort::Heapsort: heapsort(data, comparisons); return;
    case LocalSort::Mergesort: mergesort(data, comparisons); return;
    case LocalSort::Quicksort: quicksort(data, comparisons); return;
  }
}

void merge_sorted_into(std::span<const Key> a, std::span<const Key> b,
                       std::vector<Key>& out, std::uint64_t& comparisons) {
  out.resize(a.size() + b.size());
  Key* const dst = out.data();
  std::size_t i = 0;
  std::size_t j = 0;
  std::size_t k = 0;
  while (i < a.size() && j < b.size()) {
    ++comparisons;
    dst[k++] = (b[j] < a[i]) ? b[j++] : a[i++];
  }
  while (i < a.size()) dst[k++] = a[i++];
  while (j < b.size()) dst[k++] = b[j++];
}

std::vector<Key> merge_sorted(std::span<const Key> a, std::span<const Key> b,
                              std::uint64_t& comparisons) {
  std::vector<Key> out;
  merge_sorted_into(a, b, out, comparisons);
  return out;
}

namespace {

/// Where a unimodal sequence's second monotone run starts (its size when
/// it is monotone, all equal or shorter than two) and whether the first run
/// rises. Charges the scan's comparisons: a leading plateau is free, then
/// one for the first step's direction and one per key up to and including
/// the turn.
struct UnimodalShape {
  std::size_t turn = 0;
  bool rising_start = true;
};

UnimodalShape unimodal_shape(std::span<const Key> data,
                             std::uint64_t& comparisons) {
  const std::size_t n = data.size();
  UnimodalShape shape{n, true};
  if (n < 2) return shape;
  std::size_t k = 1;
  while (k < n && data[k] == data[k - 1]) ++k;
  if (k == n) return shape;  // all equal
  ++comparisons;
  shape.rising_start = data[k] > data[k - 1];
  for (; k < n; ++k) {
    ++comparisons;
    if (data[k] == data[k - 1]) continue;
    if ((data[k] > data[k - 1]) != shape.rising_start) {
      shape.turn = k;
      break;
    }
  }
  return shape;
}

/// Writes `data` sorted to dst[0, n). A peak is ascending then descending,
/// a valley the reverse; the descending run is read backwards, and the two
/// runs merge with ties taken from the first. A monotone `data` is one run
/// and costs no comparison.
void write_unimodal_sorted(std::span<const Key> data, UnimodalShape shape,
                           Key* dst, std::uint64_t& comparisons) {
  const std::size_t n = data.size();
  const Key* const src = data.data();
  const std::size_t turn = shape.turn;
  const bool rising_start = shape.rising_start;
  // Run A = data[0, turn), ascending when rising_start else read backward;
  // run B = data[turn, n), read backward when rising_start else ascending.
  std::size_t ai = 0;
  std::size_t bj = 0;
  const std::size_t a_len = turn;
  const std::size_t b_len = n - turn;
  const auto a_at = [&](std::size_t i) {
    return rising_start ? src[i] : src[a_len - 1 - i];
  };
  const auto b_at = [&](std::size_t j) {
    return rising_start ? src[n - 1 - j] : src[turn + j];
  };
  std::size_t k = 0;
  while (ai < a_len && bj < b_len) {
    ++comparisons;
    const Key a = a_at(ai);
    const Key b = b_at(bj);
    if (b < a) {
      dst[k++] = b;
      ++bj;
    } else {
      dst[k++] = a;
      ++ai;
    }
  }
  while (ai < a_len) dst[k++] = a_at(ai++);
  while (bj < b_len) dst[k++] = b_at(bj++);
}

}  // namespace

void sort_unimodal(std::vector<Key>& data, std::uint64_t& comparisons) {
  std::vector<Key> scratch;
  sort_unimodal(data, scratch, comparisons);
}

void sort_unimodal(std::vector<Key>& data, std::vector<Key>& scratch,
                   std::uint64_t& comparisons) {
  const UnimodalShape shape = unimodal_shape(data, comparisons);
  if (shape.turn == data.size()) {  // monotone: sorted in place
    if (!shape.rising_start) std::reverse(data.begin(), data.end());
    return;
  }
  scratch.resize(data.size());
  write_unimodal_sorted(data, shape, scratch.data(), comparisons);
  std::swap(data, scratch);
}

void sort_unimodal_into(std::span<const Key> data, std::vector<Key>& out,
                        std::uint64_t& comparisons) {
  const UnimodalShape shape = unimodal_shape(data, comparisons);
  out.resize(data.size());
  write_unimodal_sorted(data, shape, out.data(), comparisons);
}

bool is_ascending(std::span<const Key> data) {
  for (std::size_t i = 1; i < data.size(); ++i)
    if (data[i] < data[i - 1]) return false;
  return true;
}

bool is_globally_ascending(std::span<const std::vector<Key>> blocks) {
  const Key* last = nullptr;
  for (const auto& block : blocks) {
    for (const Key& key : block) {
      if (last != nullptr && key < *last) return false;
      last = &key;
    }
  }
  return true;
}

}  // namespace ftsort::sort
