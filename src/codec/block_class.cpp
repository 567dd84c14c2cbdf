#include "codec/block_class.h"

namespace nc::codec {

HalfKind classify_half(const bits::TritVector& v, std::size_t begin,
                       std::size_t len) noexcept {
  HalfKind kind;
  for (std::size_t i = begin; i < begin + len && !kind.mismatch(); ++i) {
    switch (v.get(i)) {
      case bits::Trit::Zero: kind.one_compatible = false; break;
      case bits::Trit::One: kind.zero_compatible = false; break;
      case bits::Trit::X: break;
    }
  }
  return kind;
}

HalfScan scan_half(const bits::TritVector& v, std::size_t begin,
                   std::size_t len) noexcept {
  HalfScan scan;
  for (std::size_t i = begin; i < begin + len; ++i) {
    switch (v.get(i)) {
      case bits::Trit::Zero: scan.kind.one_compatible = false; break;
      case bits::Trit::One: scan.kind.zero_compatible = false; break;
      case bits::Trit::X: ++scan.x_count; break;
    }
  }
  return scan;
}

BlockClass classify_block(const bits::TritVector& v, std::size_t begin,
                          std::size_t k) noexcept {
  const std::size_t half = k / 2;
  return classify_halves(classify_half(v, begin, half),
                         classify_half(v, begin + half, half));
}

}  // namespace nc::codec
