#include "codec/nine_coded.h"

#include <algorithm>
#include <array>
#include <stdexcept>
#include <utility>

#include "bits/bitstream.h"

namespace nc::codec {

using bits::Trit;
using bits::TritVector;

namespace {

/// A word-parallel plane scan read as a half's kind and X population.
HalfScan half_scan(const bits::PlaneScan& s) noexcept {
  HalfScan scan;
  scan.kind.zero_compatible = !s.any_one;
  scan.kind.one_compatible = !s.any_zero;
  scan.x_count = s.x_count;
  return scan;
}

}  // namespace

std::size_t NineCodedStats::blocks() const noexcept {
  std::size_t n = 0;
  for (auto c : counts) n += c;
  return n;
}

NineCoded::NineCoded(std::size_t block_size, CodewordTable table,
                     std::size_t split)
    : k_(block_size), table_(table) {
  if (k_ > kMaxBlockSize)
    throw std::invalid_argument("9C block size K must be <= " +
                                std::to_string(kMaxBlockSize));
  if (split == 0) {
    if (k_ < 2 || k_ % 2 != 0)
      throw std::invalid_argument("9C block size K must be even and >= 2");
    left_ = k_ / 2;
  } else {
    if (k_ < 2)
      throw std::invalid_argument("9C block size K must be >= 2");
    if (split >= k_)
      throw std::invalid_argument("9C split must be in [1, K-1]");
    left_ = split;
  }
  right_ = k_ - left_;
}

std::string NineCoded::name() const {
  std::string n = "9C(K=" + std::to_string(k_);
  if (left_ * 2 != k_) n += ",S=" + std::to_string(left_);
  return n + ")";
}

TritVector NineCoded::encode(const TritVector& td) const {
  TritVector stream;
  analyze(td, &stream);
  return stream;
}

// ----------------------------------------------------------------- encode
// Word-parallel: each half is classified with AND/OR/popcount over TD's
// value and X planes, and codewords/payloads are emitted as shifted word
// writes. Produces the same TE and statistics as reference_analyze
// (nine_coded_reference.h).

NineCodedStats NineCoded::analyze(const TritVector& td,
                                  TritVector* out_stream) const {
  NineCodedStats stats;
  stats.block_size = k_;
  stats.split = left_;
  stats.original_bits = td.size();
  stats.padded_bits = (td.size() + k_ - 1) / k_ * k_;

  // Codewords in stream order (first transmitted bit lowest), precomputed
  // once so emission is a single masked word write per block.
  struct StreamWord {
    std::uint64_t bits = 0;
    unsigned length = 0;
  };
  std::array<StreamWord, kNumClasses> codewords;
  for (std::size_t c = 0; c < kNumClasses; ++c) {
    const Codeword& w = table_.at(static_cast<BlockClass>(c));
    for (unsigned j = 0; j < w.length; ++j)
      codewords[c].bits |= ((w.bits >> (w.length - 1 - j)) & 1ull) << j;
    codewords[c].length = w.length;
  }

  TritVector stream;
  stream.reserve(stats.padded_bits / 2);
  auto encode_block = [&](const TritVector& src, std::size_t b) {
    const HalfScan left = half_scan(src.scan(b, left_));
    const HalfScan right = half_scan(src.scan(b + left_, right_));
    const BlockClass cls = classify_halves(left.kind, right.kind);
    ++stats.counts[static_cast<std::size_t>(cls)];
    const StreamWord& cw = codewords[static_cast<std::size_t>(cls)];
    stream.append_word(cw.bits, 0, cw.length);
    switch (cls) {
      case BlockClass::kC1:
      case BlockClass::kC2:
      case BlockClass::kC3:
      case BlockClass::kC4:
        stats.filled_x += left.x_count + right.x_count;
        break;
      case BlockClass::kC5:
      case BlockClass::kC7:
        stats.filled_x += left.x_count;
        stats.leftover_x += right.x_count;
        stream.append_range(src, b + left_, right_);
        break;
      case BlockClass::kC6:
      case BlockClass::kC8:
        stats.filled_x += right.x_count;
        stats.leftover_x += left.x_count;
        stream.append_range(src, b, left_);
        break;
      case BlockClass::kC9:
        stats.leftover_x += left.x_count + right.x_count;
        stream.append_range(src, b, k_);
        break;
    }
  };
  // Whole blocks are read in place; only a ragged last block is copied out
  // and padded with X, which compresses maximally and which the decoder
  // drops (it knows the original length).
  const std::size_t whole = td.size() - td.size() % k_;
  for (std::size_t b = 0; b < whole; b += k_) encode_block(td, b);
  if (whole < td.size()) {
    TritVector last = td.slice(whole, k_);
    last.append_run(k_ - last.size(), Trit::X);
    encode_block(last, 0);
  }

  stats.encoded_bits = stream.size();
  if (out_stream != nullptr) *out_stream = std::move(stream);
  return stats;
}

// ----------------------------------------------------------------- decode

TritVector NineCoded::decode(const TritVector& te,
                             std::size_t original_bits) const {
  return decode_checked(te, original_bits).data;
}

DecodeOutcome NineCoded::decode_checked(const TritVector& te,
                                        std::size_t original_bits,
                                        core::Watchdog* watchdog) const {
  const std::size_t expected_blocks = (original_bits + k_ - 1) / k_;
  DecodeOutcome outcome;
  bits::TritReader reader(te);
  TritVector& out = outcome.data;
  // Reservation is only a hint and must not trust `original_bits`: a
  // corrupted length header has to surface as the typed truncation error
  // after a bounded parse, not as bad_alloc here. Every block consumes at
  // least one TE symbol, so te.size()+1 blocks bounds any real decode.
  out.reserve(std::min(expected_blocks, te.size() + 1) * k_);
  // Each block costs at most one codeword (<= 5 symbols) plus K output
  // symbols; charging K+5 per block keeps the meter conservative without
  // per-symbol overhead in this (software-side) decoder. Loop skeleton,
  // watchdog schedule and exception mapping match reference_decode_checked.
  for (std::size_t block = 0; block < expected_blocks; ++block) {
    if (watchdog != nullptr &&
        watchdog->tick(k_ + 5) != core::WatchdogTrip::kNone)
      throw DecodeError(DecodeFault::kWatchdogExpired, reader.position(),
                        block);
    try {
      const BlockClass cls = table_.match(reader);
      switch (cls) {
        case BlockClass::kC1:
        case BlockClass::kC2:
        case BlockClass::kC3:
        case BlockClass::kC4: {
          const auto fill = uniform_fill(cls);
          out.append_run(left_, bits::trit_from_bit(fill[0]));
          out.append_run(right_, bits::trit_from_bit(fill[1]));
          break;
        }
        case BlockClass::kC5:
        case BlockClass::kC6:
        case BlockClass::kC7:
        case BlockClass::kC8: {
          const MixedShape shape = mixed_shape(cls);
          if (shape.mismatch_is_left) {
            reader.copy_to(out, left_);
            out.append_run(right_, bits::trit_from_bit(shape.uniform_value));
          } else {
            // Check the payload is available *before* emitting the uniform
            // half so a truncated stream reports the same offset as the
            // reference decoder, which reads the payload first.
            if (reader.remaining() < right_)
              throw bits::StreamOverrun(reader.position(), right_,
                                        reader.remaining());
            out.append_run(left_, bits::trit_from_bit(shape.uniform_value));
            reader.copy_to(out, right_);
          }
          break;
        }
        case BlockClass::kC9:
          reader.copy_to(out, k_);
          break;
      }
    } catch (const bits::StreamOverrun& e) {
      throw DecodeError(DecodeFault::kTruncated, e.offset(), block);
    } catch (const bits::InvalidSymbol& e) {
      throw DecodeError(DecodeFault::kXInCodeword, e.offset(), block);
    } catch (const DecodeError& e) {
      throw e.with_block(block);
    }
  }
  // Length accounting: a corruption that shortens the parse (e.g. a long
  // codeword aliased onto a short one) leaves TE symbols unconsumed.
  if (!reader.done())
    throw DecodeError(DecodeFault::kTrailingData, reader.position(),
                      expected_blocks);
  outcome.blocks = expected_blocks;
  outcome.consumed = reader.position();
  out.resize(original_bits);  // drop decoder output for the padded tail
  return outcome;
}

NineCoded NineCoded::tuned_for(const bits::TritVector& td,
                               std::size_t block_size) {
  const NineCodedStats stats = NineCoded(block_size).analyze(td);
  return NineCoded(block_size,
                   CodewordTable::frequency_directed(stats.counts));
}

}  // namespace nc::codec
