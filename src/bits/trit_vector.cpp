#include "bits/trit_vector.h"

namespace nc::bits {

TritVector TritVector::from_string(std::string_view s) {
  // Fills one plane word per 64 characters, then appends it whole.
  TritVector v;
  v.reserve(s.size());
  for (std::size_t base = 0; base < s.size(); base += 64) {
    const unsigned n =
        static_cast<unsigned>(std::min<std::size_t>(s.size() - base, 64));
    Word value = 0;
    Word x = 0;
    for (unsigned j = 0; j < n; ++j) {
      switch (s[base + j]) {
        case '0': break;
        case '1': value |= Word{1} << j; break;
        case 'x':
        case 'X': x |= Word{1} << j; break;
        default:
          throw std::invalid_argument(std::string("not a trit character: '") +
                                      s[base + j] + "'");
      }
    }
    v.append_word(value, x, n);
  }
  return v;
}

void TritVector::append_range(const TritVector& src, std::size_t begin,
                              std::size_t len) {
  if (&src == this) {  // appending would move the words being read
    const TritVector copy = src;
    append_range(copy, begin, len);
    return;
  }
  grow_for(len);
  if (((size_ | begin) & 63) == 0) {
    const std::size_t whole = len / 64;
    const auto first =
        src.words_.begin() + static_cast<std::ptrdiff_t>(begin / 64);
    words_.insert(words_.end(), first,
                  first + static_cast<std::ptrdiff_t>(whole));
    size_ += whole * 64;
    begin += whole * 64;
    len -= whole * 64;
  }
  while (len > 0) {
    const unsigned take = static_cast<unsigned>(std::min<std::size_t>(len, 64));
    const PlaneWord p = src.word_at(begin, take);
    append_word(p.value, p.x, take);
    begin += take;
    len -= take;
  }
}

void TritVector::resize(std::size_t n, Trit fill) {
  if (n >= size_) {
    append_run(n - size_, fill);
    return;
  }
  words_.resize((n + 63) / 64);
  size_ = n;
  if (n % 64 != 0) {
    // Zero the tail of the last word so equality can compare words directly.
    const Word mask = low_mask(n % 64);
    words_.back().value &= mask;
    words_.back().x &= mask;
  }
}

TritVector TritVector::slice(std::size_t begin, std::size_t len) const {
  TritVector out;
  if (begin >= size_) return out;
  len = std::min(len, size_ - begin);
  out.reserve(len);
  out.append_range(*this, begin, len);
  return out;
}

std::size_t TritVector::care_count() const noexcept {
  std::size_t xs = 0;
  for (const PlaneWord& w : words_)
    xs += static_cast<std::size_t>(std::popcount(w.x));
  return size_ - xs;
}

double TritVector::x_fraction() const noexcept {
  return size_ == 0 ? 0.0 : static_cast<double>(x_count()) /
                                static_cast<double>(size_);
}

bool TritVector::compatible_with(const TritVector& other) const noexcept {
  if (size_ != other.size_) return false;
  for (std::size_t i = 0; i < words_.size(); ++i) {
    const PlaneWord& a = words_[i];
    const PlaneWord& b = other.words_[i];
    // A conflict is a specified 1 facing a specified 0, either way round.
    // The value planes are zero past size(), so the tails never conflict.
    const Word a_zero = ~(a.value | a.x);
    const Word b_zero = ~(b.value | b.x);
    if (((a.value & b_zero) | (b.value & a_zero)) != 0) return false;
  }
  return true;
}

bool TritVector::covered_by(const TritVector& other) const noexcept {
  if (size_ != other.size_) return false;
  for (std::size_t i = 0; i < words_.size(); ++i) {
    const PlaneWord& mine = words_[i];
    const PlaneWord& theirs = other.words_[i];
    // Each care trit of *this must be a care trit of `other` with the same
    // value; past size() both planes are zero, so the tails never fail.
    if ((~mine.x & (theirs.x | (mine.value ^ theirs.value))) != 0)
      return false;
  }
  return true;
}

std::string TritVector::to_string() const {
  // Drains one plane word per 64 characters.
  std::string s(size_, '?');
  for (std::size_t w = 0; w < words_.size(); ++w) {
    const std::size_t base = w * 64;
    const unsigned n =
        static_cast<unsigned>(std::min<std::size_t>(size_ - base, 64));
    const Word value = words_[w].value;
    const Word x = words_[w].x;
    for (unsigned j = 0; j < n; ++j)
      s[base + j] = "01X"[((value >> j) & 1u) | (((x >> j) & 1u) << 1)];
  }
  return s;
}

}  // namespace nc::bits
