#pragma once

/// \file tile_set.hpp
/// A set of physical tile indices stored as 64-bit words.
///
/// The tile pool keeps its held / reserved / migrating state in TileSets,
/// and every free-tile view is their complement, so the online kernel's
/// pool scans (free count, longest free run, contiguous-window tests,
/// victim and binding candidates) are word operations instead of walks
/// over per-tile flags. Any tile count works: one word covers 64 tiles,
/// and a set of up to k_inline_words * 64 tiles keeps its words inline,
/// so building, copying and returning one allocates nothing. Larger pools
/// spill to the heap.
///
/// Invariant: bits at positions >= size() are always zero, so count(),
/// next() and the word-wise operators never see phantom members.

#include <algorithm>
#include <cstdint>
#include <vector>

namespace drhw {

class TileSet {
 public:
  TileSet() = default;

  /// `size` tiles, all absent (or all present when `all`).
  explicit TileSet(int size, bool all = false) : size_(size) {
    if (words() > k_inline_words)
      heap_.assign(static_cast<std::size_t>(words()), 0);
    if (all) set_range(0, size);
  }

  // Copies move only the words in use: an inline set never touches the
  // heap vector.
  TileSet(const TileSet& other) : size_(other.size_) { copy_words(other); }
  TileSet& operator=(const TileSet& other) {
    size_ = other.size_;
    copy_words(other);
    return *this;
  }
  TileSet(TileSet&&) = default;
  TileSet& operator=(TileSet&&) = default;
  ~TileSet() = default;

  int size() const { return size_; }
  bool any() const {
    for (int w = 0; w < words(); ++w)
      if (data()[w] != 0) return true;
    return false;
  }

  bool test(int t) const { return ((data()[t >> 6] >> (t & 63)) & 1U) != 0; }
  void set(int t) { data()[t >> 6] |= bit(t); }
  void reset(int t) { data()[t >> 6] &= ~bit(t); }

  /// Adds / removes every tile of [begin, end).
  void set_range(int begin, int end) {
    for_range(data(), begin, end,
              [](std::uint64_t& w, std::uint64_t m) { w |= m; });
  }
  void reset_range(int begin, int end) {
    for_range(data(), begin, end,
              [](std::uint64_t& w, std::uint64_t m) { w &= ~m; });
  }
  void clear() { std::fill(data(), data() + words(), 0); }

  int count() const {
    int n = 0;
    for (int w = 0; w < words(); ++w) n += __builtin_popcountll(data()[w]);
    return n;
  }
  /// Members within [begin, end).
  int count_in(int begin, int end) const {
    int n = 0;
    for_range(data(), begin, end, [&n](std::uint64_t w, std::uint64_t m) {
      n += __builtin_popcountll(w & m);
    });
    return n;
  }

  /// Lowest member >= `from`, or -1.
  int next(int from) const {
    if (from >= size_) return -1;
    int w = from >> 6;
    std::uint64_t x = data()[w] & (~std::uint64_t{0} << (from & 63));
    while (x == 0) {
      if (++w == words()) return -1;
      x = data()[w];
    }
    return w * 64 + __builtin_ctzll(x);
  }
  /// Lowest non-member >= `from`, or size().
  int next_absent(int from) const {
    if (from >= size_) return size_;
    int w = from >> 6;
    std::uint64_t x = ~data()[w] & (~std::uint64_t{0} << (from & 63));
    while (x == 0) {
      if (++w == words()) return size_;
      x = ~data()[w];
    }
    return std::min(size_, w * 64 + __builtin_ctzll(x));
  }
  /// The `rank`-th member in ascending order (0-based); rank < count().
  int nth(int rank) const {
    for (int w = 0;; ++w) {
      std::uint64_t x = data()[w];
      const int here = __builtin_popcountll(x);
      if (rank >= here) {
        rank -= here;
        continue;
      }
      for (; rank > 0; --rank) x &= x - 1;
      return w * 64 + __builtin_ctzll(x);
    }
  }
  /// Length of the longest run of adjacent members.
  int longest_run() const {
    int best = 0;
    for (int begin = next(0); begin >= 0;) {
      const int end = next_absent(begin);
      best = std::max(best, end - begin);
      begin = next(end);
    }
    return best;
  }

  /// Calls `visit(tile)` for every member, ascending.
  template <typename Visit>
  void for_each(Visit&& visit) const {
    for (int w = 0; w < words(); ++w)
      for (std::uint64_t x = data()[w]; x != 0; x &= x - 1)
        visit(w * 64 + __builtin_ctzll(x));
  }

  // Word-wise set algebra; both operands must have the same size().
  TileSet& operator|=(const TileSet& other) {
    for (int w = 0; w < words(); ++w) data()[w] |= other.data()[w];
    return *this;
  }
  /// Removes every member of `other`.
  TileSet& subtract(const TileSet& other) {
    for (int w = 0; w < words(); ++w) data()[w] &= ~other.data()[w];
    return *this;
  }
  /// Complement within [0, size()).
  TileSet& flip() {
    for (int w = 0; w < words(); ++w) data()[w] = ~data()[w];
    if (size_ % 64 != 0) data()[words() - 1] &= bit(size_) - 1;
    return *this;
  }

  friend bool operator==(const TileSet& a, const TileSet& b) {
    return a.size_ == b.size_ &&
           std::equal(a.data(), a.data() + a.words(), b.data());
  }

 private:
  static constexpr int k_inline_words = 4;

  static std::uint64_t bit(int t) { return std::uint64_t{1} << (t & 63); }
  int words() const { return (size_ + 63) >> 6; }
  std::uint64_t* data() {
    return words() > k_inline_words ? heap_.data() : inline_;
  }
  const std::uint64_t* data() const {
    return words() > k_inline_words ? heap_.data() : inline_;
  }
  void copy_words(const TileSet& other) {
    if (words() > k_inline_words)
      heap_ = other.heap_;
    else
      std::copy(other.inline_, other.inline_ + words(), inline_);
  }
  /// Calls `op(word, mask)` for every word overlapping [begin, end), with
  /// `mask` selecting the range's bits within that word.
  template <typename Word, typename Op>
  static void for_range(Word* words, int begin, int end, Op&& op) {
    for (int w = begin >> 6; begin < end; ++w, begin = w * 64)
      op(words[w], span_mask(begin, std::min(end, w * 64 + 64)));
  }
  /// Bits [begin, stop) of one word; 0 < stop - begin <= 64, same word.
  static std::uint64_t span_mask(int begin, int stop) {
    const int width = stop - begin;
    const std::uint64_t low =
        width == 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << width) - 1;
    return low << (begin & 63);
  }

  int size_ = 0;
  std::uint64_t inline_[k_inline_words] = {};
  std::vector<std::uint64_t> heap_;  ///< only above k_inline_words words
};

}  // namespace drhw
