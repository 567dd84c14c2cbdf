#include "bits/bitstream.h"

#include <gtest/gtest.h>

namespace nc::bits {
namespace {

TEST(BitWriter, PutSingleBits) {
  BitWriter w;
  w.put(true);
  w.put(false);
  w.put(true);
  EXPECT_EQ(w.stream().to_string(), "101");
  EXPECT_EQ(w.size(), 3u);
}

TEST(BitWriter, PutBitsMsbFirst) {
  BitWriter w;
  w.put_bits(0b1011, 4);
  EXPECT_EQ(w.stream().to_string(), "1011");
}

TEST(BitWriter, PutBitsWithLeadingZeros) {
  BitWriter w;
  w.put_bits(0b0001, 4);
  EXPECT_EQ(w.stream().to_string(), "0001");
}

TEST(BitWriter, PutRun) {
  BitWriter w;
  w.put_run(4, true);
  w.put_run(2, false);
  EXPECT_EQ(w.stream().to_string(), "111100");
}

TEST(BitWriter, TakeMovesStream) {
  BitWriter w;
  w.put(true);
  TritVector v = w.take();
  EXPECT_EQ(v.to_string(), "1");
}

TEST(TritReader, SequentialNext) {
  const TritVector v = TritVector::from_string("0X1");
  TritReader r(v);
  EXPECT_EQ(r.remaining(), 3u);
  EXPECT_EQ(r.next(), Trit::Zero);
  EXPECT_EQ(r.next(), Trit::X);
  EXPECT_EQ(r.next(), Trit::One);
  EXPECT_TRUE(r.done());
  EXPECT_THROW(r.next(), std::out_of_range);
}

TEST(TritReader, NextBitRejectsX) {
  const TritVector v = TritVector::from_string("1X");
  TritReader r(v);
  EXPECT_TRUE(r.next_bit());
  EXPECT_THROW(r.next_bit(), std::runtime_error);
}

TEST(TritReader, NextBitsMsbFirst) {
  const TritVector v = TritVector::from_string("10110");
  TritReader r(v);
  EXPECT_EQ(r.next_bits(5), 0b10110u);
}

TEST(TritReader, NextTritsPreservesX) {
  const TritVector v = TritVector::from_string("0X1X1");
  TritReader r(v);
  r.next();
  EXPECT_EQ(r.next_trits(3).to_string(), "X1X");
  EXPECT_EQ(r.position(), 4u);
}

TEST(TritReader, NextTritsPastEndThrows) {
  const TritVector v = TritVector::from_string("01");
  TritReader r(v);
  EXPECT_THROW(r.next_trits(3), std::out_of_range);
}

TEST(TritReader, CopyToErrorOffsets) {
  const TritVector v = TritVector::from_string("10X10");
  TritReader r(v);
  EXPECT_TRUE(r.next_bit());
  EXPECT_FALSE(r.next_bit());
  // The X sits at absolute offset 2; InvalidSymbol must carry exactly that.
  try {
    r.next_bit();
    FAIL() << "X in codeword position not detected";
  } catch (const InvalidSymbol& e) {
    EXPECT_EQ(e.offset(), 2u);
  }
  // next_bit consumed the X, so a 3-symbol copy from position 3 overruns:
  // offset 3, requested 3, have 2 -- and consumes and appends nothing.
  TritVector out;
  try {
    r.copy_to(out, 3);
    FAIL() << "overrun not detected";
  } catch (const StreamOverrun& e) {
    EXPECT_EQ(e.offset(), 3u);
    EXPECT_EQ(e.requested(), 3u);
    EXPECT_EQ(e.available(), 2u);
  }
  EXPECT_EQ(r.position(), 3u);
  EXPECT_TRUE(out.empty());
  r.copy_to(out, 2);
  EXPECT_TRUE(r.done());
  EXPECT_EQ(out.to_string(), "10");
}

TEST(TritReader, SeekMovesBothDirections) {
  const TritVector v = TritVector::from_string("01X10110");
  TritReader r(v);
  r.seek(5);
  EXPECT_EQ(r.position(), 5u);
  EXPECT_EQ(r.next(), Trit::One);
  r.seek(2);  // backwards: re-reading is legal
  EXPECT_EQ(r.next(), Trit::X);
  EXPECT_EQ(r.position(), 3u);
}

TEST(TritReader, SeekToEndIsDoneSeekPastEndThrows) {
  const TritVector v = TritVector::from_string("0101");
  TritReader r(v);
  r.seek(4);  // one-past-last is a valid cursor: done, not an error
  EXPECT_TRUE(r.done());
  EXPECT_EQ(r.remaining(), 0u);
  EXPECT_THROW(r.seek(5), StreamOverrun);
  EXPECT_EQ(r.position(), 4u);  // a failed seek must not move the cursor
}

TEST(TritReader, SkipBoundaries) {
  const TritVector v = TritVector::from_string("010101");
  TritReader r(v);
  r.skip(0);
  EXPECT_EQ(r.position(), 0u);
  r.skip(6);  // exactly to the end
  EXPECT_TRUE(r.done());
  EXPECT_THROW(r.skip(1), StreamOverrun);
  EXPECT_EQ(r.position(), 6u);
}

TEST(TritReader, SkipOverrunReportsOffsets) {
  const TritVector v = TritVector::from_string("0101");
  TritReader r(v);
  r.skip(3);
  try {
    r.skip(4);
    FAIL() << "skip past the end must throw";
  } catch (const StreamOverrun& e) {
    EXPECT_EQ(e.offset(), 3u);
    EXPECT_EQ(e.requested(), 4u);
    EXPECT_EQ(e.available(), 1u);
  }
}

TEST(TritReader, WindowRestrictsSeekAndSkip) {
  const TritVector v = TritVector::from_string("00110011");
  TritReader r(v, 2, 4);  // window [2, 6)
  EXPECT_EQ(r.position(), 2u);  // position() is absolute
  EXPECT_EQ(r.remaining(), 4u);
  r.skip(4);
  EXPECT_TRUE(r.done());
  EXPECT_THROW(r.skip(1), StreamOverrun);  // the vector goes on; the window ends
  r.seek(3);
  EXPECT_EQ(r.next(), Trit::One);
  EXPECT_THROW(r.seek(7), StreamOverrun);  // absolute 7 is past the window end
}

TEST(TritReader, WindowClampsToVector) {
  const TritVector v = TritVector::from_string("0011");
  TritReader past(v, 9, 3);  // begin beyond the vector: empty window
  EXPECT_TRUE(past.done());
  EXPECT_EQ(past.remaining(), 0u);
  TritReader long_len(v, 2, 100);  // length clamps to what exists
  EXPECT_EQ(long_len.remaining(), 2u);
  EXPECT_EQ(long_len.next(), Trit::One);
}

TEST(WriterReaderRoundTrip, ValuesOfManyWidths) {
  BitWriter w;
  for (unsigned n = 1; n <= 16; ++n) w.put_bits((1u << n) - 1, n);
  const TritVector stream = w.take();
  TritReader r(stream);
  for (unsigned n = 1; n <= 16; ++n) EXPECT_EQ(r.next_bits(n), (1u << n) - 1);
  EXPECT_TRUE(r.done());
}

}  // namespace
}  // namespace nc::bits
