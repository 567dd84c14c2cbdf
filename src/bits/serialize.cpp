#include "bits/serialize.h"

#include <algorithm>
#include <array>
#include <cstdint>
#include <fstream>
#include <string_view>
#include <istream>
#include <ostream>
#include <stdexcept>

namespace nc::bits {

namespace {

constexpr char kMagic[4] = {'N', 'C', 'T', '1'};

void write_u64(std::ostream& out, std::uint64_t v) {
  std::array<char, 8> buf;
  for (int i = 0; i < 8; ++i) buf[i] = static_cast<char>((v >> (8 * i)) & 0xFF);
  out.write(buf.data(), buf.size());
}

std::uint64_t read_u64(std::istream& in) {
  std::array<char, 8> buf;
  in.read(buf.data(), buf.size());
  if (!in) throw std::runtime_error("trit stream file truncated");
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i)
    v |= static_cast<std::uint64_t>(static_cast<unsigned char>(buf[i]))
         << (8 * i);
  return v;
}

/// Spreads the low 4 bits of `n` onto the even bits of a byte.
constexpr unsigned spread4(unsigned n) noexcept {
  return (n & 1u) | ((n & 2u) << 1) | ((n & 4u) << 2) | ((n & 8u) << 3);
}

/// Gathers the even bits of a byte into a nibble (inverse of spread4).
constexpr unsigned gather4(unsigned b) noexcept {
  return (b & 1u) | ((b >> 1) & 2u) | ((b >> 2) & 4u) | ((b >> 3) & 8u);
}

// The payload streams through a fixed buffer, one plane word (64 trits,
// 16 bytes) at a time: a byte's four 2-bit codes are a nibble of the value
// plane on the even bits and the same nibble of the X plane on the odd bits.
constexpr std::size_t kChunkBytes = 4096;

void write_payload(std::ostream& out, const TritVector& v) {
  std::array<char, kChunkBytes> buf;
  std::size_t used = 0;
  for (std::size_t base = 0; base < v.size(); base += 64) {
    const unsigned n =
        static_cast<unsigned>(std::min<std::size_t>(v.size() - base, 64));
    const TritVector::PlaneWord w = v.word_at(base, n);
    for (unsigned j = 0; j < n; j += 4)
      buf[used++] = static_cast<char>(spread4((w.value >> j) & 0xFu) |
                                      (spread4((w.x >> j) & 0xFu) << 1));
    if (used + 16 > buf.size()) {
      out.write(buf.data(), static_cast<std::streamsize>(used));
      used = 0;
    }
  }
  out.write(buf.data(), static_cast<std::streamsize>(used));
}

TritVector read_payload(std::istream& in, std::size_t size) {
  // Grow as bytes arrive, one bounded chunk at a time, rather than
  // allocating `size` upfront: a corrupt header claiming petabytes then
  // fails on the first missing byte instead of exhausting memory.
  TritVector v;
  std::array<char, kChunkBytes> buf;
  for (std::size_t left = size; left > 0;) {
    const std::size_t trits = std::min(left, kChunkBytes * 4);
    const std::size_t bytes = (trits + 3) / 4;
    in.read(buf.data(), static_cast<std::streamsize>(bytes));
    if (static_cast<std::size_t>(in.gcount()) != bytes)
      throw std::runtime_error("trit stream file truncated");
    for (std::size_t b = 0; b < bytes; b += 16) {
      const unsigned n =
          static_cast<unsigned>(std::min<std::size_t>(trits - b * 4, 64));
      std::uint64_t value = 0;
      std::uint64_t x = 0;
      for (unsigned j = 0; j * 4 < n; ++j) {
        const unsigned byte = static_cast<unsigned char>(buf[b + j]);
        value |= std::uint64_t{gather4(byte)} << (4 * j);
        x |= std::uint64_t{gather4(byte >> 1)} << (4 * j);
      }
      // Codes past `size` in a partial last byte are padding and ignored.
      const std::uint64_t mask =
          n == 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << n) - 1;
      value &= mask;
      x &= mask;
      if ((value & x) != 0)  // code 0b11
        throw std::runtime_error("invalid trit in stream file");
      v.append_word(value, x, n);
    }
    left -= trits;
  }
  return v;
}

void write_header(std::ostream& out, unsigned char kind) {
  out.write(kMagic, sizeof kMagic);
  out.put(static_cast<char>(kind));
}

unsigned char read_header(std::istream& in) {
  char magic[4];
  in.read(magic, sizeof magic);
  if (!in || std::string_view(magic, 4) != std::string_view(kMagic, 4))
    throw std::runtime_error("not a ninec trit stream file");
  const int kind = in.get();
  if (kind != 0 && kind != 1)
    throw std::runtime_error("unknown trit stream kind");
  return static_cast<unsigned char>(kind);
}

}  // namespace

void save_trits(std::ostream& out, const TritVector& v) {
  write_header(out, 0);
  write_u64(out, v.size());
  write_payload(out, v);
}

TritVector load_trits(std::istream& in) {
  if (read_header(in) != 0)
    throw std::runtime_error("file holds a test set, not a trit stream");
  const std::uint64_t size = read_u64(in);
  return read_payload(in, static_cast<std::size_t>(size));
}

void save_test_set(std::ostream& out, const TestSet& ts) {
  write_header(out, 1);
  write_u64(out, ts.pattern_count());
  write_u64(out, ts.pattern_length());
  write_payload(out, ts.flatten());
}

TestSet load_test_set(std::istream& in) {
  if (read_header(in) != 1)
    throw std::runtime_error("file holds a trit stream, not a test set");
  const std::uint64_t patterns = read_u64(in);
  const std::uint64_t width = read_u64(in);
  const TritVector data =
      read_payload(in, static_cast<std::size_t>(patterns * width));
  return TestSet::unflatten(data, static_cast<std::size_t>(patterns),
                            static_cast<std::size_t>(width));
}

namespace {

template <typename SaveFn, typename Value>
void save_file(const std::string& path, const Value& value, SaveFn fn) {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw std::runtime_error("cannot write file: " + path);
  fn(out, value);
  if (!out) throw std::runtime_error("write failed: " + path);
}

}  // namespace

void save_trits_file(const std::string& path, const TritVector& v) {
  save_file(path, v, [](std::ostream& o, const TritVector& x) {
    save_trits(o, x);
  });
}

TritVector load_trits_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open file: " + path);
  return load_trits(in);
}

void save_test_set_file(const std::string& path, const TestSet& ts) {
  save_file(path, ts, [](std::ostream& o, const TestSet& x) {
    save_test_set(o, x);
  });
}

TestSet load_test_set_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open file: " + path);
  return load_test_set(in);
}

}  // namespace nc::bits
