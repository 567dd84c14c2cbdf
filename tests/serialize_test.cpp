#include "bits/serialize.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>

namespace nc::bits {
namespace {

TEST(Serialize, TritVectorRoundTrip) {
  const TritVector v = TritVector::from_string("01X10XX011X");
  std::stringstream io;
  save_trits(io, v);
  EXPECT_EQ(load_trits(io), v);
}

TEST(Serialize, EmptyVector) {
  std::stringstream io;
  save_trits(io, TritVector{});
  EXPECT_TRUE(load_trits(io).empty());
}

TEST(Serialize, SizesNotMultipleOfFour) {
  for (std::size_t n : {1u, 2u, 3u, 4u, 5u, 63u, 64u, 65u}) {
    TritVector v;
    for (std::size_t i = 0; i < n; ++i)
      v.push_back(static_cast<Trit>(i % 3));
    std::stringstream io;
    save_trits(io, v);
    EXPECT_EQ(load_trits(io), v) << "n=" << n;
  }
}

TEST(Serialize, TestSetRoundTrip) {
  const TestSet ts = TestSet::from_strings({"01X1", "XX00", "1111"});
  std::stringstream io;
  save_test_set(io, ts);
  EXPECT_EQ(load_test_set(io), ts);
}

TEST(Serialize, RejectsBadMagic) {
  std::stringstream io("JUNKDATA");
  EXPECT_THROW(load_trits(io), std::runtime_error);
}

TEST(Serialize, RejectsTruncatedPayload) {
  const TritVector v(100, Trit::One);
  std::stringstream io;
  save_trits(io, v);
  const std::string full = io.str();
  std::stringstream cut(full.substr(0, full.size() - 5));
  EXPECT_THROW(load_trits(cut), std::runtime_error);
}

TEST(Serialize, RejectsKindMismatch) {
  std::stringstream io;
  save_trits(io, TritVector::from_string("01"));
  EXPECT_THROW(load_test_set(io), std::runtime_error);
  std::stringstream io2;
  save_test_set(io2, TestSet::from_strings({"01"}));
  EXPECT_THROW(load_trits(io2), std::runtime_error);
}

TEST(Serialize, RejectsInvalidTritEncoding) {
  std::stringstream io;
  save_trits(io, TritVector::from_string("0000"));
  std::string data = io.str();
  data[data.size() - 1] = '\xFF';  // 0b11 trits
  std::stringstream bad(data);
  EXPECT_THROW(load_trits(bad), std::runtime_error);

  // Code 0b11 at each of the four positions of a byte, in the first byte,
  // in a byte straddling the end of the first plane word (trits 64..67)
  // and in the last whole byte of a 130-trit payload.
  constexpr std::size_t kHeader = 4 + 1 + 8;
  const TritVector v(130, Trit::X);
  std::stringstream full;
  save_trits(full, v);
  const std::string good = full.str();
  for (std::size_t byte : {std::size_t{0}, std::size_t{16}, std::size_t{31}}) {
    for (unsigned pos = 0; pos < 4; ++pos) {
      std::string corrupt = good;
      corrupt[kHeader + byte] = static_cast<char>(
          static_cast<unsigned char>(corrupt[kHeader + byte]) |
          (0x3u << (2 * pos)));
      std::stringstream in(corrupt);
      EXPECT_THROW(load_trits(in), std::runtime_error)
          << "byte " << byte << " position " << pos;
    }
  }

  // Inside a partial last byte: 130 trits leave trits 128..129 in byte 32.
  // Code 0b11 on a live trit is rejected; on the padding past the size it
  // is ignored, as it always has been.
  for (unsigned pos = 0; pos < 4; ++pos) {
    std::string corrupt = good;
    corrupt[kHeader + 32] = static_cast<char>(
        static_cast<unsigned char>(corrupt[kHeader + 32]) | (0x3u << (2 * pos)));
    std::stringstream in(corrupt);
    if (pos < 2) {
      EXPECT_THROW(load_trits(in), std::runtime_error) << "position " << pos;
    } else {
      EXPECT_EQ(load_trits(in), v) << "padding position " << pos;
    }
  }

  // A payload cut at every byte boundary is truncated, never a short read.
  ASSERT_EQ(good.size(), kHeader + 33);
  for (std::size_t keep = kHeader; keep < good.size(); ++keep) {
    std::stringstream cut(good.substr(0, keep));
    EXPECT_THROW(load_trits(cut), std::runtime_error) << "kept " << keep;
  }
}

TEST(Serialize, FileHelpersRoundTrip) {
  const std::string path = "/tmp/nc_serialize_test.bin";
  const TestSet ts = TestSet::from_strings({"01X", "X10"});
  save_test_set_file(path, ts);
  EXPECT_EQ(load_test_set_file(path), ts);
  std::remove(path.c_str());
  EXPECT_THROW(load_test_set_file(path), std::runtime_error);
}

TEST(Serialize, PayloadIsCompact) {
  // 4 trits/byte: 1000 trits -> 4 + 1 + 8 + 250 bytes.
  const TritVector v(1000, Trit::X);
  std::stringstream io;
  save_trits(io, v);
  EXPECT_EQ(io.str().size(), 4u + 1u + 8u + 250u);
}

}  // namespace
}  // namespace nc::bits
