// The per-trit 9C encoder and decoder: the executable specification that
// the word-parallel production path in NineCoded is checked against.
//
// These walk TD and TE one trit at a time, exactly as Section II of the
// paper reads. They must produce the same TE, the same NineCodedStats, the
// same decoded data and the same typed DecodeError (fault, TE offset,
// block) as NineCoded::analyze / NineCoded::decode_checked on every input.
// The differential fuzz suite, the golden vectors and the codec perf gate
// (bench/bench_throughput) hold the production path to that. Only tests
// and that bench include this header; production code never runs it.
#pragma once

#include <cstddef>
#include <string>
#include <utility>

#include "codec/nine_coded.h"

namespace nc::codec {

/// Reference encode of `td` under `coder`'s K, split and table; fills
/// `out_stream` with TE when non-null.
NineCodedStats reference_analyze(const NineCoded& coder,
                                 const bits::TritVector& td,
                                 bits::TritVector* out_stream = nullptr);

/// Reference validating decode; same contract (faults, offsets, watchdog
/// schedule) as NineCoded::decode_checked.
DecodeOutcome reference_decode_checked(const NineCoded& coder,
                                       const bits::TritVector& te,
                                       std::size_t original_bits,
                                       core::Watchdog* watchdog = nullptr);

/// The reference pair behind the Codec interface, so a pipeline that takes
/// any Codec (encode_sharded, decode_sharded) can run on it unchanged.
class ReferenceCodec final : public Codec {
 public:
  explicit ReferenceCodec(NineCoded coder) : coder_(std::move(coder)) {}

  std::string name() const override { return coder_.name(); }
  bits::TritVector encode(const bits::TritVector& td) const override {
    bits::TritVector te;
    reference_analyze(coder_, td, &te);
    return te;
  }
  bits::TritVector decode(const bits::TritVector& te,
                          std::size_t original_bits) const override {
    return reference_decode_checked(coder_, te, original_bits).data;
  }

 private:
  NineCoded coder_;
};

}  // namespace nc::codec
