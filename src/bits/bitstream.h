// Sequential readers/writers over bit and trit streams.
//
// The run-length baseline coders (Golomb, FDR, ...) produce fully specified
// bitstreams; BitWriter serves those. The 9C stream TE may carry X symbols
// inside mismatch payloads, so its reader walks a TritVector: codeword bits
// one symbol at a time (next_bit), payloads as word-parallel copies of the
// value/X planes (copy_to).
#pragma once

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "bits/trit_vector.h"

namespace nc::bits {

/// A read past the end of a stream (truncated input). Derives from
/// std::out_of_range so legacy catch sites keep working; the structured
/// fields let decoders report *where* the stream ran dry.
class StreamOverrun : public std::out_of_range {
 public:
  StreamOverrun(std::size_t offset, std::size_t requested,
                std::size_t available)
      : std::out_of_range("stream overrun at symbol " +
                          std::to_string(offset) + ": need " +
                          std::to_string(requested) + ", have " +
                          std::to_string(available)),
        offset_(offset),
        requested_(requested),
        available_(available) {}

  /// Cursor position (in symbols) where the failing read started.
  std::size_t offset() const noexcept { return offset_; }
  std::size_t requested() const noexcept { return requested_; }
  std::size_t available() const noexcept { return available_; }

 private:
  std::size_t offset_;
  std::size_t requested_;
  std::size_t available_;
};

/// An X symbol at a position that must carry a specified 0/1 (every codeword
/// bit). Derives from std::runtime_error for legacy catch sites.
class InvalidSymbol : public std::runtime_error {
 public:
  explicit InvalidSymbol(std::size_t offset)
      : std::runtime_error("unspecified symbol (X) at stream offset " +
                           std::to_string(offset) +
                           " where a 0/1 bit is required"),
        offset_(offset) {}

  std::size_t offset() const noexcept { return offset_; }

 private:
  std::size_t offset_;
};

/// Append-only bit sink backed by a TritVector restricted to 0/1.
/// Using TritVector as the carrier keeps one stream type across all coders.
class BitWriter {
 public:
  void put(bool bit) { out_.push_back(trit_from_bit(bit)); }

  /// Writes `n` bits of `value`, most significant first.
  void put_bits(std::uint64_t value, unsigned n) {
    for (unsigned i = n; i-- > 0;) put((value >> i) & 1u);
  }

  /// Writes `n` copies of `bit`.
  void put_run(std::size_t n, bool bit) {
    out_.append_run(n, trit_from_bit(bit));
  }

  std::size_t size() const noexcept { return out_.size(); }
  const TritVector& stream() const noexcept { return out_; }
  TritVector take() { return std::move(out_); }

 private:
  TritVector out_;
};

/// Sequential cursor over a trit stream. `next_bit` additionally enforces
/// that the symbol is specified, which every codeword position must be.
/// A reader can cover the whole vector or a [begin, begin+len) window of it
/// (the sharded container index hands each decode worker its own window);
/// position() is always absolute, so error offsets stay container-relative.
class TritReader {
 public:
  explicit TritReader(const TritVector& v)
      : v_(&v), pos_(0), end_(v.size()) {}

  /// Window over [begin, begin+len); clamps to the vector's size.
  TritReader(const TritVector& v, std::size_t begin, std::size_t len)
      : v_(&v),
        pos_(begin > v.size() ? v.size() : begin),
        end_(len > v.size() - pos_ ? v.size() : pos_ + len) {}

  bool done() const noexcept { return pos_ >= end_; }
  std::size_t position() const noexcept { return pos_; }
  std::size_t remaining() const noexcept { return end_ - pos_; }

  /// Random access within the window: moves the cursor to absolute symbol
  /// offset `pos`. Seeking past the window throws StreamOverrun (a corrupt
  /// shard index must surface as the typed truncation error, not UB).
  void seek(std::size_t pos) {
    if (pos > end_) throw StreamOverrun(pos, 0, end_);
    pos_ = pos;
  }

  /// Advances the cursor by `n` symbols without reading them.
  void skip(std::size_t n) {
    if (n > remaining()) throw StreamOverrun(pos_, n, remaining());
    pos_ += n;
  }

  Trit next() {
    if (done()) throw StreamOverrun(pos_, 1, 0);
    return v_->get(pos_++);
  }

  /// Reads one symbol that must be 0 or 1 (e.g. a codeword bit).
  bool next_bit() {
    const Trit t = next();
    if (!is_care(t)) throw InvalidSymbol(pos_ - 1);
    return t == Trit::One;
  }

  /// Reads `n` specified bits, most significant first.
  std::uint64_t next_bits(unsigned n) {
    std::uint64_t v = 0;
    for (unsigned i = 0; i < n; ++i) v = (v << 1) | (next_bit() ? 1u : 0u);
    return v;
  }

  /// Consumes `n` symbols (X allowed) by appending them to `out` -- the
  /// decoder's word-parallel payload copy. A short stream throws before
  /// anything is consumed or appended.
  void copy_to(TritVector& out, std::size_t n) {
    if (remaining() < n) throw StreamOverrun(pos_, n, remaining());
    out.append_range(*v_, pos_, n);
    pos_ += n;
  }

  /// Reads `n` symbols (X allowed) into a fresh vector.
  TritVector next_trits(std::size_t n) {
    TritVector out;
    copy_to(out, n);
    return out;
  }

 private:
  const TritVector* v_;
  std::size_t pos_;
  std::size_t end_;
};

}  // namespace nc::bits
