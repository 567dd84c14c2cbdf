// Three-valued test-data symbol: 0, 1 or X (don't-care).
//
// Precomputed scan test sets ("test cubes") are partially specified: ATPG
// assigns only the bits needed to detect the targeted faults and leaves the
// rest as X. Every layer of this library -- encoders, decoders, simulators,
// fill strategies -- operates on trits so that don't-care information is
// never lost by accident.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>

namespace nc::bits {

/// One three-valued symbol. The numeric value's bit 0 is the trit's
/// value-plane bit and bit 1 its X-plane bit (bits/trit_vector.h), so
/// `Zero`/`One` match their bit value and the serialized 2-bit code is the
/// enum value.
enum class Trit : std::uint8_t {
  Zero = 0,
  One = 1,
  X = 2,
};

/// True if `t` carries a specified (care) value.
constexpr bool is_care(Trit t) noexcept { return t != Trit::X; }

/// True if `t` may be interpreted as `bit` (i.e. equals it or is X).
constexpr bool compatible_with(Trit t, bool bit) noexcept {
  return t == Trit::X || (t == Trit::One) == bit;
}

/// True if two trits can coexist on the same scan cell (no 0-vs-1 conflict).
constexpr bool compatible(Trit a, Trit b) noexcept {
  return a == Trit::X || b == Trit::X || a == b;
}

/// Character form used by all text I/O: '0', '1', 'X'.
constexpr char to_char(Trit t) noexcept {
  return t == Trit::Zero ? '0' : t == Trit::One ? '1' : 'X';
}

/// Parses '0', '1', 'x' or 'X'. Throws std::invalid_argument otherwise.
inline Trit trit_from_char(char c) {
  switch (c) {
    case '0': return Trit::Zero;
    case '1': return Trit::One;
    case 'x':
    case 'X': return Trit::X;
    default:
      throw std::invalid_argument(std::string("not a trit character: '") + c +
                                  "'");
  }
}

/// Convenience constructor from a plain bit.
constexpr Trit trit_from_bit(bool bit) noexcept {
  return bit ? Trit::One : Trit::Zero;
}

}  // namespace nc::bits
