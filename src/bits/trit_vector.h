// Vector of trits stored as two bitplanes, with stream-style append.
//
// TritVector is the universal carrier for test data in this library:
//  * the uncompressed stream TD (rows of a TestSet flattened in scan order),
//  * the compressed stream TE produced by the 9C encoder, which still
//    contains "leftover" X bits inside transmitted mismatch halves,
//  * decoder output, where surviving X positions are reported back.
//
// Layout: 64 trits per plane word, trit i at bit i % 64 of word i / 64.
//
//   value plane  bit i == 1  iff  trit i is One
//   X plane      bit i == 1  iff  trit i is X (don't-care)
//
// A specified Zero has both bits clear, so the planes are disjoint, and
// every bit at position >= size() is zero in both. In this form the 9C
// classification questions are plain word arithmetic over a masked range
//
//   0-compatible  <=>  (value & mask) == 0          (no specified 1)
//   1-compatible  <=>  ((value | x) & mask) == mask (no specified 0)
//   X population  ==   popcount(x & mask)
//
// (see scan()), and payload copies are shifted word copies (append_range).
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "bits/trit.h"

namespace nc::bits {

/// What one word-parallel pass over a range observed. The 9C encoder maps
/// this onto codec::HalfKind (any_one kills 0-compatibility, any_zero
/// kills 1-compatibility) and uses x_count for its filled/leftover
/// accounting.
struct PlaneScan {
  bool any_one = false;   // at least one specified 1 in the range
  bool any_zero = false;  // at least one specified 0 in the range
  std::size_t x_count = 0;
};

/// Dynamically sized sequence of trits over a value and an X bitplane.
class TritVector {
 public:
  using Word = std::uint64_t;

  /// One plane word: up to 64 trits, trit j at bit j of both fields.
  struct PlaneWord {
    Word value = 0;
    Word x = 0;
    bool operator==(const PlaneWord&) const = default;
  };

  TritVector() = default;

  /// Constructs `n` copies of `fill`.
  explicit TritVector(std::size_t n, Trit fill = Trit::X) {
    append_run(n, fill);
  }

  /// Parses a string of '0'/'1'/'x'/'X' characters (whitespace not
  /// allowed); throws std::invalid_argument on any other character.
  static TritVector from_string(std::string_view s);

  std::size_t size() const noexcept { return size_; }
  bool empty() const noexcept { return size_ == 0; }

  Trit get(std::size_t i) const noexcept {
    const PlaneWord& w = words_[i >> 6];
    const unsigned b = i & 63;
    return static_cast<Trit>(((w.value >> b) & 1u) | (((w.x >> b) & 1u) << 1));
  }

  void set(std::size_t i, Trit t) noexcept {
    PlaneWord& w = words_[i >> 6];
    const Word bit = Word{1} << (i & 63);
    w.value = (w.value & ~bit) | (t == Trit::One ? bit : 0);
    w.x = (w.x & ~bit) | (t == Trit::X ? bit : 0);
  }

  Trit operator[](std::size_t i) const noexcept { return get(i); }

  /// Bounds-checked get: throws std::out_of_range instead of reading past
  /// the backing words (get() stays unchecked for hot loops).
  Trit at(std::size_t i) const {
    check_index(i);
    return get(i);
  }

  /// Bounds-checked set.
  void set_at(std::size_t i, Trit t) {
    check_index(i);
    set(i, t);
  }

  void push_back(Trit t) {
    append_word(t == Trit::One ? 1 : 0, t == Trit::X ? 1 : 0, 1);
  }

  /// The `len` (<= 64) trits starting at `begin` as plane words, trit
  /// begin+j at bit j; bits past `len` are zero. `begin + len` must be
  /// <= size().
  PlaneWord word_at(std::size_t begin, unsigned len) const noexcept {
    if (len == 0) return {};
    const std::size_t w = begin >> 6;
    const unsigned off = begin & 63;
    PlaneWord p{words_[w].value >> off, words_[w].x >> off};
    // off + len > 64 implies off > 0 (len <= 64), so the shift is in range.
    if (off + len > 64) {
      p.value |= words_[w + 1].value << (64 - off);
      p.x |= words_[w + 1].x << (64 - off);
    }
    const Word mask = low_mask(len);
    return {p.value & mask, p.x & mask};
  }

  /// Appends `n` (<= 64) trits given as plane words: bit j of `value`/`x`
  /// is trit size()+j. The words must be disjoint and zero at bits >= n.
  void append_word(Word value, Word x, unsigned n) {
    if (n == 0) return;
    const unsigned off = size_ & 63;
    if (off == 0) {
      words_.push_back({value, x});
    } else {
      words_.back().value |= value << off;
      words_.back().x |= x << off;
      if (off + n > 64) words_.push_back({value >> (64 - off), x >> (64 - off)});
    }
    size_ += n;
  }

  /// Appends a fully specified codeword, most significant bit of `bits`
  /// transmitted (appended) first. `len` <= 32.
  void append_bits_msb(std::uint32_t bits, unsigned len) {
    Word value = 0;
    for (unsigned j = 0; j < len; ++j)
      value |= Word{(bits >> (len - 1 - j)) & 1u} << j;
    append_word(value, 0, len);
  }

  /// Appends src[begin, begin+len) as shifted word copies; whole words when
  /// both ends are word-aligned. `begin + len` must be <= src.size().
  void append_range(const TritVector& src, std::size_t begin,
                    std::size_t len);

  /// Appends every trit of `other`.
  void append(const TritVector& other) { append_range(other, 0, other.size_); }

  /// Appends `n` copies of `t`, whole words at a time.
  void append_run(std::size_t n, Trit t) {
    const Word value = t == Trit::One ? ~Word{0} : 0;
    const Word x = t == Trit::X ? ~Word{0} : 0;
    grow_for(n);
    while (n > 0) {
      const unsigned take = static_cast<unsigned>(std::min<std::size_t>(n, 64));
      append_word(value & low_mask(take), x & low_mask(take), take);
      n -= take;
    }
  }

  void resize(std::size_t n, Trit fill = Trit::X);
  void clear() noexcept {
    words_.clear();
    size_ = 0;
  }
  /// Pre-sizes the backing words for `n` total trits.
  void reserve(std::size_t n) { words_.reserve((n + 63) / 64); }

  /// Returns the sub-vector [begin, begin+len). Clamps to size().
  TritVector slice(std::size_t begin, std::size_t len) const;

  /// One word-parallel pass over [begin, begin+len): AND/OR/popcount per
  /// 64-trit word, masked at a partial first word, a partial tail and the
  /// empty range. Inline: this is the 9C encoder's innermost loop, called
  /// twice per block.
  PlaneScan scan(std::size_t begin, std::size_t len) const noexcept {
    PlaneScan s;
    std::size_t pos = begin;
    std::size_t left = len;
    while (left > 0) {
      const unsigned off = pos & 63;
      const unsigned take =
          static_cast<unsigned>(std::min<std::size_t>(left, 64 - off));
      const Word mask = low_mask(take) << off;
      const Word val = words_[pos >> 6].value & mask;
      const Word xs = words_[pos >> 6].x & mask;
      s.any_one |= val != 0;
      s.any_zero |= (val | xs) != mask;
      s.x_count += static_cast<std::size_t>(std::popcount(xs));
      pos += take;
      left -= take;
    }
    return s;
  }

  /// Number of specified (non-X) symbols.
  std::size_t care_count() const noexcept;
  /// Number of X symbols.
  std::size_t x_count() const noexcept { return size_ - care_count(); }
  /// Fraction of X symbols in [0,1]; 0 for an empty vector.
  double x_fraction() const noexcept;

  /// True if every specified bit of `*this` equals the corresponding bit of
  /// `other` wherever *both* are specified, sizes equal.
  bool compatible_with(const TritVector& other) const noexcept;

  /// True if `other` specifies at least the care bits of `*this` with equal
  /// values (i.e. `other` is a legal fill/expansion of this cube).
  bool covered_by(const TritVector& other) const noexcept;

  bool operator==(const TritVector& other) const noexcept {
    return size_ == other.size_ && words_ == other.words_;
  }

  std::string to_string() const;

 private:
  static constexpr Word low_mask(unsigned n) noexcept {
    return n >= 64 ? ~Word{0} : (Word{1} << n) - 1;
  }

  /// Makes room for `n` more trits before a multi-word append: an empty
  /// vector gets exactly what it needs (a TestSet's data is built by one
  /// append_run or append), a growing one at least doubles, so repeated
  /// appends stay amortized O(1).
  void grow_for(std::size_t n) {
    const std::size_t need = (size_ + n + 63) / 64;
    if (need > words_.capacity())
      words_.reserve(std::max(need, 2 * words_.capacity()));
  }

  void check_index(std::size_t i) const {
    if (i >= size_)
      throw std::out_of_range("TritVector index " + std::to_string(i) +
                              " out of range (size " + std::to_string(size_) +
                              ")");
  }

  std::vector<PlaneWord> words_;  // ceil(size_ / 64) entries
  std::size_t size_ = 0;
};

}  // namespace nc::bits
