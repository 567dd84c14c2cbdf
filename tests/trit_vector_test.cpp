#include "bits/trit_vector.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "bits/bitstream.h"

namespace nc::bits {
namespace {

TEST(TritVector, DefaultIsEmpty) {
  TritVector v;
  EXPECT_TRUE(v.empty());
  EXPECT_EQ(v.size(), 0u);
  EXPECT_EQ(v.care_count(), 0u);
}

TEST(TritVector, FillConstructor) {
  TritVector v(5, Trit::One);
  ASSERT_EQ(v.size(), 5u);
  for (std::size_t i = 0; i < 5; ++i) EXPECT_EQ(v.get(i), Trit::One);
}

TEST(TritVector, SetGetAcrossWordBoundary) {
  TritVector v(70, Trit::X);
  v.set(0, Trit::One);
  v.set(31, Trit::Zero);   // last slot of word 0
  v.set(32, Trit::One);    // first slot of word 1
  v.set(69, Trit::Zero);
  EXPECT_EQ(v.get(0), Trit::One);
  EXPECT_EQ(v.get(31), Trit::Zero);
  EXPECT_EQ(v.get(32), Trit::One);
  EXPECT_EQ(v.get(69), Trit::Zero);
  EXPECT_EQ(v.get(1), Trit::X);
}

TEST(TritVector, FromStringAndToString) {
  const std::string s = "01X10XX1";
  TritVector v = TritVector::from_string(s);
  EXPECT_EQ(v.to_string(), s);
  EXPECT_EQ(v.size(), 8u);
  EXPECT_EQ(v.get(2), Trit::X);
  EXPECT_EQ(v.get(3), Trit::One);
}

TEST(TritVector, FromStringRejectsJunk) {
  EXPECT_THROW(TritVector::from_string("01?"), std::invalid_argument);
}

TEST(TritVector, PushBackGrows) {
  TritVector v;
  for (int i = 0; i < 100; ++i)
    v.push_back(i % 3 == 0 ? Trit::X : trit_from_bit(i % 2));
  ASSERT_EQ(v.size(), 100u);
  EXPECT_EQ(v.get(0), Trit::X);
  EXPECT_EQ(v.get(1), Trit::One);
  EXPECT_EQ(v.get(2), Trit::Zero);
  EXPECT_EQ(v.get(99), Trit::X);
}

TEST(TritVector, Append) {
  TritVector a = TritVector::from_string("01X");
  TritVector b = TritVector::from_string("1X0");
  a.append(b);
  EXPECT_EQ(a.to_string(), "01X1X0");
}

TEST(TritVector, AppendRun) {
  TritVector v = TritVector::from_string("1");
  v.append_run(3, Trit::Zero);
  v.append_run(2, Trit::X);
  EXPECT_EQ(v.to_string(), "1000XX");
}

TEST(TritVector, Slice) {
  const TritVector v = TritVector::from_string("01X10X");
  EXPECT_EQ(v.slice(1, 3).to_string(), "1X1");
  EXPECT_EQ(v.slice(4, 10).to_string(), "0X");  // clamps
  EXPECT_EQ(v.slice(9, 2).size(), 0u);          // past end
}

TEST(TritVector, CareAndXCounts) {
  TritVector v = TritVector::from_string("01XX0X");
  EXPECT_EQ(v.care_count(), 3u);
  EXPECT_EQ(v.x_count(), 3u);
  EXPECT_DOUBLE_EQ(v.x_fraction(), 0.5);
}

TEST(TritVector, CareCountLargeRandomMatchesNaive) {
  std::mt19937 rng(7);
  TritVector v;
  std::size_t expected = 0;
  for (int i = 0; i < 1000; ++i) {
    const int r = static_cast<int>(rng() % 3);
    v.push_back(static_cast<Trit>(r));
    if (r != 2) ++expected;
  }
  EXPECT_EQ(v.care_count(), expected);
}

TEST(TritVector, ResizeShrinkThenEqualityStillWorks) {
  TritVector a = TritVector::from_string("0101X");
  TritVector b = a;
  b.push_back(Trit::One);
  b.resize(5);
  EXPECT_EQ(a, b);
}

TEST(TritVector, CompatibleWith) {
  const TritVector a = TritVector::from_string("01X");
  EXPECT_TRUE(a.compatible_with(TritVector::from_string("01X")));
  EXPECT_TRUE(a.compatible_with(TritVector::from_string("0XX")));
  EXPECT_TRUE(a.compatible_with(TritVector::from_string("011")));
  EXPECT_FALSE(a.compatible_with(TritVector::from_string("00X")));
  EXPECT_FALSE(a.compatible_with(TritVector::from_string("01")));  // size
}

TEST(TritVector, CoveredBy) {
  const TritVector cube = TritVector::from_string("0X1X");
  EXPECT_TRUE(cube.covered_by(TritVector::from_string("001X")));
  EXPECT_TRUE(cube.covered_by(TritVector::from_string("0X1X")));
  EXPECT_TRUE(cube.covered_by(TritVector::from_string("0110")));
  EXPECT_FALSE(cube.covered_by(TritVector::from_string("1X1X")));
  EXPECT_FALSE(cube.covered_by(TritVector::from_string("0X0X")));
}

TEST(TritVector, EqualityIgnoresCapacitySlack) {
  TritVector a;
  a.resize(40, Trit::One);
  TritVector b;
  for (int i = 0; i < 40; ++i) b.push_back(Trit::One);
  EXPECT_EQ(a, b);
}

TEST(TritVector, ClearResets) {
  TritVector v = TritVector::from_string("01X");
  v.clear();
  EXPECT_TRUE(v.empty());
  v.push_back(Trit::One);
  EXPECT_EQ(v.to_string(), "1");
}

// ------------------------------------------------------ plane layout goldens
// Hand-computed plane words at word-straddling offsets, append patterns and
// the scan at every boundary shape a 64-trit word can take: these pin the
// *intended* bits, so a regression shared by the production coder and the
// reference (both run on TritVector) cannot hide behind their agreement.

/// The period-4 sequence One,Zero,X,One repeated over `n` trits: its planes
/// have nibble-periodic words that are easy to compute by hand.
TritVector period4(std::size_t n) {
  TritVector v;
  for (std::size_t i = 0; i < n; ++i) {
    switch (i % 4) {
      case 0: v.push_back(Trit::One); break;
      case 1: v.push_back(Trit::Zero); break;
      case 2: v.push_back(Trit::X); break;
      default: v.push_back(Trit::One); break;
    }
  }
  return v;
}

TEST(BitplaneGolden, ExtractionFullWord) {
  const TritVector p = period4(70);
  // One at i%4 in {0,3} -> value nibble 0b1001 = 0x9; X at i%4==2 -> 0x4.
  EXPECT_EQ(p.word_at(0, 64).value, 0x9999999999999999ull);
  EXPECT_EQ(p.word_at(0, 64).x, 0x4444444444444444ull);
  // Trits 64..69 = One,Zero,X,One,One,Zero -> value 0b011001, x 0b000100.
  EXPECT_EQ(p.word_at(64, 6).value, 0x19ull);
  EXPECT_EQ(p.word_at(64, 6).x, 0x04ull);
}

TEST(BitplaneGolden, ExtractionWordStraddlingWindow) {
  const TritVector p = period4(70);
  // Bits 60..67 straddle the word boundary: trits 60..63 = 1,0,X,1 and
  // 64..67 = 1,0,X,1 -> value 0x99, x 0x44.
  EXPECT_EQ(p.word_at(60, 8).value, 0x99ull);
  EXPECT_EQ(p.word_at(60, 8).x, 0x44ull);
  // A 64-bit window at offset 2 re-aligns the period: trits 2,3,4,5,... =
  // X,1,1,0,X,1,1,0,... -> value nibble 0b0110 = 0x6, x nibble 0b0001.
  EXPECT_EQ(p.word_at(2, 64).value, 0x6666666666666666ull);
  EXPECT_EQ(p.word_at(2, 64).x, 0x1111111111111111ull);
  // Degenerate empty window, including at a word boundary.
  EXPECT_EQ(p.word_at(64, 0).value, 0u);
  EXPECT_EQ(p.word_at(0, 0).value, 0u);
}

TEST(BitplaneGolden, BuiltByAppendEqualsExtracted) {
  const TritVector original = period4(200);
  TritVector built;
  // Mixed construction: word appends, then a straddling range copy.
  const TritVector::PlaneWord w0 = original.word_at(0, 64);
  const TritVector::PlaneWord w1 = original.word_at(64, 30);
  built.append_word(w0.value, w0.x, 64);
  built.append_word(w1.value, w1.x, 30);
  built.append_range(original, 94, 106);
  ASSERT_EQ(built.size(), original.size());
  EXPECT_TRUE(built == original);
}

TEST(BitplaneGolden, AppendBitsMsbMatchesCodewordOrder) {
  TritVector p;
  p.append_bits_msb(0b1100u, 4);  // transmit order: 1,1,0,0
  EXPECT_EQ(p, TritVector::from_string("1100"));
}

TEST(BitplaneGolden, AppendRunPatterns) {
  TritVector p;
  p.append_run(3, Trit::X);
  p.append_run(70, Trit::One);
  p.append_run(2, Trit::Zero);
  EXPECT_EQ(p.to_string(),
            "XXX" + std::string(70, '1') + "00");
  EXPECT_EQ(p.word_at(0, 3).x, 0x7ull);
  EXPECT_EQ(p.word_at(0, 64).value, 0xFFFFFFFFFFFFFFF8ull);
}

/// Per-trit scan, the semantics scan() must reproduce.
PlaneScan naive_scan(const TritVector& v, std::size_t begin,
                     std::size_t len) {
  PlaneScan s;
  for (std::size_t i = begin; i < begin + len; ++i) {
    switch (v.get(i)) {
      case Trit::One: s.any_one = true; break;
      case Trit::Zero: s.any_zero = true; break;
      default: ++s.x_count; break;
    }
  }
  return s;
}

::testing::AssertionResult same_scan(const TritVector& v, std::size_t begin,
                                     std::size_t len) {
  const PlaneScan got = v.scan(begin, len);
  const PlaneScan want = naive_scan(v, begin, len);
  if (got.any_one == want.any_one && got.any_zero == want.any_zero &&
      got.x_count == want.x_count)
    return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure()
         << "begin=" << begin << " len=" << len << ": any_one "
         << got.any_one << "/" << want.any_one << ", any_zero "
         << got.any_zero << "/" << want.any_zero << ", x_count "
         << got.x_count << "/" << want.x_count;
}

TEST(BitplaneScan, HalfExactlyFillsAWord) {
  const TritVector p(256, Trit::X);
  const PlaneScan s = p.scan(64, 64);
  EXPECT_FALSE(s.any_one);
  EXPECT_FALSE(s.any_zero);
  EXPECT_EQ(s.x_count, 64u);
}

TEST(BitplaneScan, BoundaryShapes) {
  // A fixed irregular sequence long enough for every alignment case.
  TritVector v;
  for (std::size_t i = 0; i < 300; ++i)
    v.push_back(i % 7 == 0   ? Trit::One
                : i % 5 == 0 ? Trit::X
                             : Trit::Zero);
  // Exactly one word; spanning two words from an offset; sub-word head and
  // tail; window ending exactly at a word boundary; empty window.
  EXPECT_TRUE(same_scan(v, 0, 64));
  EXPECT_TRUE(same_scan(v, 32, 64));
  EXPECT_TRUE(same_scan(v, 1, 63));
  EXPECT_TRUE(same_scan(v, 63, 2));
  EXPECT_TRUE(same_scan(v, 64, 64));
  EXPECT_TRUE(same_scan(v, 100, 28));  // ends at 128
  EXPECT_TRUE(same_scan(v, 130, 33));
  EXPECT_TRUE(same_scan(v, 299, 1));
  EXPECT_TRUE(same_scan(v, 150, 0));
  EXPECT_TRUE(same_scan(v, 64, 0));
}

TEST(BitplaneScan, SingleConflictAtEveryWordPosition) {
  // One specified 1 in a sea of X: any_one must flip exactly when the
  // window covers it, for every bit position in the word.
  for (std::size_t pos : {0u, 1u, 31u, 32u, 63u, 64u, 65u, 127u}) {
    TritVector v(128, Trit::X);
    v.set(pos, Trit::One);
    const PlaneScan covering = v.scan(pos, 1);
    EXPECT_TRUE(covering.any_one);
    EXPECT_EQ(covering.x_count, 0u);
    if (pos > 0) {
      const PlaneScan before = v.scan(0, pos);
      EXPECT_FALSE(before.any_one) << pos;
      EXPECT_EQ(before.x_count, pos) << pos;
    }
    const PlaneScan after = v.scan(pos + 1, 128 - pos - 1);
    EXPECT_FALSE(after.any_one) << pos;
    EXPECT_EQ(after.x_count, 128 - pos - 1) << pos;
  }
}

// ------------------------------------------- differential vs a naive model
// Every plane operation against std::vector<Trit>, at start offsets and
// lengths 0..130 (every alignment against the 64-trit word, across two word
// boundaries) and X densities 0/50/100%.

using Model = std::vector<Trit>;

constexpr std::size_t kSpan = 131;  // offsets and lengths 0..130
constexpr int kDensities[] = {0, 50, 100};

/// `n` trits, `x_pct` percent X on average, the rest uniform 0/1.
Model random_model(std::mt19937& rng, std::size_t n, int x_pct) {
  Model m(n);
  for (Trit& t : m)
    t = static_cast<int>(rng() % 100) < x_pct ? Trit::X
                                              : trit_from_bit(rng() & 1u);
  return m;
}

/// Built one trit at a time: the canonical vector for `m`.
TritVector from_model(const Model& m) {
  TritVector v;
  for (Trit t : m) v.push_back(t);
  return v;
}

std::string model_string(const Model& m) {
  std::string s;
  for (Trit t : m) s += to_char(t);
  return s;
}

Model model_slice(const Model& m, std::size_t begin, std::size_t len) {
  return Model(m.begin() + static_cast<std::ptrdiff_t>(begin),
               m.begin() + static_cast<std::ptrdiff_t>(begin + len));
}

/// `v` holds exactly `m`: per-trit get, the word drain (to_string), and
/// word equality with the per-trit-built vector, which also proves the
/// tail past size() is zero in both planes.
::testing::AssertionResult same(const TritVector& v, const Model& m) {
  if (v.size() != m.size())
    return ::testing::AssertionFailure()
           << "size " << v.size() << " != " << m.size();
  for (std::size_t i = 0; i < m.size(); ++i)
    if (v.get(i) != m[i])
      return ::testing::AssertionFailure() << "trit " << i << " differs";
  if (v.to_string() != model_string(m))
    return ::testing::AssertionFailure() << "to_string differs";
  if (!(v == from_model(m)))
    return ::testing::AssertionFailure() << "planes not canonical";
  return ::testing::AssertionSuccess();
}

TEST(TritVectorModel, FromStringAndPushBack) {
  std::mt19937 rng(1);
  for (int d : kDensities) {
    for (std::size_t n = 0; n < kSpan; ++n) {
      const Model m = random_model(rng, n, d);
      ASSERT_TRUE(same(TritVector::from_string(model_string(m)), m))
          << "n=" << n << " x%=" << d;
    }
  }
}

TEST(TritVectorModel, AppendAndAppendRun) {
  std::mt19937 rng(2);
  for (int d : kDensities) {
    for (std::size_t start = 0; start < kSpan; ++start) {
      for (std::size_t len = 0; len < kSpan; ++len) {
        const Model head = random_model(rng, start, d);
        const Model more = random_model(rng, len, d);
        TritVector v = from_model(head);
        v.append(from_model(more));
        Model want = head;
        want.insert(want.end(), more.begin(), more.end());
        ASSERT_TRUE(same(v, want)) << "append start=" << start
                                   << " len=" << len << " x%=" << d;

        const Trit fill = static_cast<Trit>((start + len) % 3);
        TritVector r = from_model(head);
        r.append_run(len, fill);
        Model run = head;
        run.insert(run.end(), len, fill);
        ASSERT_TRUE(same(r, run)) << "append_run start=" << start
                                  << " len=" << len;
      }
    }
  }
}

TEST(TritVectorModel, AppendWordAndBitsMsb) {
  std::mt19937 rng(3);
  for (int d : kDensities) {
    for (std::size_t start = 0; start < kSpan; ++start) {
      for (unsigned n = 0; n <= 64; ++n) {
        const Model prefix = random_model(rng, start, d);
        const Model word = random_model(rng, n, d);
        std::uint64_t value = 0;
        std::uint64_t x = 0;
        for (unsigned j = 0; j < n; ++j) {
          if (word[j] == Trit::One) value |= std::uint64_t{1} << j;
          if (word[j] == Trit::X) x |= std::uint64_t{1} << j;
        }
        TritVector v = from_model(prefix);
        v.append_word(value, x, n);
        Model want = prefix;
        want.insert(want.end(), word.begin(), word.end());
        ASSERT_TRUE(same(v, want)) << "append_word start=" << start
                                   << " n=" << n << " x%=" << d;

        if (n > 32) continue;
        const std::uint32_t bits = static_cast<std::uint32_t>(rng());
        TritVector b = from_model(prefix);
        b.append_bits_msb(bits, n);
        Model msb = prefix;
        for (unsigned j = n; j-- > 0;)
          msb.push_back(trit_from_bit((bits >> j) & 1u));
        ASSERT_TRUE(same(b, msb)) << "append_bits_msb start=" << start
                                  << " n=" << n;
      }
    }
  }
}

TEST(TritVectorModel, AppendRangeCopyToAndSlice) {
  std::mt19937 rng(4);
  constexpr std::size_t kSource = 200;  // ranges past it overrun
  for (int d : kDensities) {
    const Model src_model = random_model(rng, kSource, d);
    const TritVector src = from_model(src_model);
    for (std::size_t begin = 0; begin < kSpan; ++begin) {
      for (std::size_t len = 0; len < kSpan; ++len) {
        // Destination prefixes: empty (word-aligned) and one that moves
        // through every alignment as begin/len vary.
        for (std::size_t start : {std::size_t{0}, (begin * 31 + len) % kSpan}) {
          const Model prefix = model_slice(src_model, 0, start);
          const bool fits = begin + len <= kSource;

          TritVector copied = from_model(prefix);
          TritReader reader(src);
          reader.skip(begin);
          TritReader twin(src);
          twin.skip(begin);
          if (fits) {
            reader.copy_to(copied, len);
            Model want = prefix;
            const Model range = model_slice(src_model, begin, len);
            want.insert(want.end(), range.begin(), range.end());
            ASSERT_TRUE(same(copied, want)) << "copy_to start=" << start
                                            << " begin=" << begin
                                            << " len=" << len << " x%=" << d;
            EXPECT_EQ(reader.position(), begin + len);
            ASSERT_TRUE(same(twin.next_trits(len), range));

            TritVector ranged = from_model(prefix);
            ranged.append_range(src, begin, len);
            ASSERT_TRUE(ranged == copied);
            continue;
          }
          // Overrun: the same offsets as next_trits, nothing consumed or
          // appended.
          try {
            reader.copy_to(copied, len);
            FAIL() << "copy_to overrun not detected at begin=" << begin
                   << " len=" << len;
          } catch (const StreamOverrun& got) {
            try {
              (void)twin.next_trits(len);
              FAIL() << "next_trits overrun not detected";
            } catch (const StreamOverrun& want) {
              EXPECT_EQ(got.offset(), want.offset());
              EXPECT_EQ(got.requested(), want.requested());
              EXPECT_EQ(got.available(), want.available());
              EXPECT_EQ(got.offset(), begin);
            }
          }
          EXPECT_EQ(reader.position(), begin);
          ASSERT_TRUE(same(copied, prefix));
        }

        // slice clamps to size(); a begin past the end gives empty.
        const std::size_t clamped = std::min(len, kSource - begin);
        ASSERT_TRUE(same(src.slice(begin, len),
                         model_slice(src_model, begin, clamped)))
            << "slice begin=" << begin << " len=" << len;
      }
    }
    EXPECT_TRUE(src.slice(kSource, 5).empty());
    EXPECT_TRUE(src.slice(kSource + 70, 5).empty());
  }
}

TEST(TritVectorModel, ResizeShrinkThenGrow) {
  std::mt19937 rng(5);
  for (int d : kDensities) {
    for (std::size_t n = 0; n < kSpan; ++n) {
      for (std::size_t extra : {std::size_t{1}, std::size_t{63},
                                std::size_t{64}, std::size_t{130}}) {
        const Model m = random_model(rng, n + extra, d);
        TritVector v = from_model(m);
        v.resize(n);
        const Model kept = model_slice(m, 0, n);
        ASSERT_TRUE(same(v, kept)) << "shrink n=" << n << " extra=" << extra;
        ASSERT_TRUE(v == from_model(kept));

        const Trit fill = static_cast<Trit>(extra % 3);
        v.resize(n + extra, fill);
        Model grown = kept;
        grown.insert(grown.end(), extra, fill);
        ASSERT_TRUE(same(v, grown)) << "grow n=" << n << " extra=" << extra;
      }
    }
  }
}

TEST(TritVectorModel, ScanAndCareCount) {
  std::mt19937 rng(6);
  for (int d : kDensities) {
    const Model m = random_model(rng, 2 * kSpan, d);
    const TritVector v = from_model(m);
    for (std::size_t begin = 0; begin < kSpan; ++begin) {
      for (std::size_t len = 0; len < kSpan; ++len) {
        PlaneScan want;
        for (std::size_t i = begin; i < begin + len; ++i) {
          want.any_one |= m[i] == Trit::One;
          want.any_zero |= m[i] == Trit::Zero;
          want.x_count += m[i] == Trit::X;
        }
        const PlaneScan got = v.scan(begin, len);
        ASSERT_EQ(got.any_one, want.any_one) << begin << "+" << len;
        ASSERT_EQ(got.any_zero, want.any_zero) << begin << "+" << len;
        ASSERT_EQ(got.x_count, want.x_count) << begin << "+" << len;
      }
    }
    for (std::size_t n = 0; n < kSpan; ++n) {
      const Model part = model_slice(m, 0, n);
      std::size_t cares = 0;
      for (Trit t : part) cares += is_care(t);
      EXPECT_EQ(from_model(part).care_count(), cares) << n;
    }
  }
}

TEST(TritVectorModel, CompatibleCoveredAndEquality) {
  std::mt19937 rng(7);
  for (int d : kDensities) {
    for (std::size_t n = 0; n < kSpan; ++n) {
      for (int trial = 0; trial < 6; ++trial) {
        Model a = random_model(rng, n, d);
        // b agrees with a's care trits except that some are widened to X
        // (compatible, not a cover), every X is filled (a cover) or nothing
        // changes (equal); on odd trials one position is then forced into a
        // 0/1 conflict.
        Model b = a;
        for (Trit& t : b) {
          if (trial % 3 == 0 && is_care(t) && rng() % 4 == 0) t = Trit::X;
          if (trial % 3 == 1 && t == Trit::X) t = trit_from_bit(rng() & 1u);
        }
        if (trial % 2 == 1 && n > 0) {
          const std::size_t pos = rng() % n;
          const bool one = rng() & 1u;
          a[pos] = trit_from_bit(one);
          b[pos] = trit_from_bit(!one);
        }
        bool compatible = true;
        bool covered = true;
        for (std::size_t i = 0; i < n; ++i) {
          compatible &= nc::bits::compatible(a[i], b[i]);
          covered &= !is_care(a[i]) || a[i] == b[i];
        }
        const TritVector va = from_model(a);
        const TritVector vb = from_model(b);
        ASSERT_EQ(va.compatible_with(vb), compatible) << n << "/" << trial;
        ASSERT_EQ(vb.compatible_with(va), compatible) << n << "/" << trial;
        ASSERT_EQ(va.covered_by(vb), covered) << n << "/" << trial;
        bool covers = true;
        for (std::size_t i = 0; i < n; ++i)
          covers &= !is_care(b[i]) || a[i] == b[i];
        ASSERT_EQ(vb.covered_by(va), covers) << n << "/" << trial;
        ASSERT_EQ(va == vb, a == b) << n << "/" << trial;
      }
      // Size mismatch is never compatible, covered or equal.
      const TritVector shorter = from_model(random_model(rng, n, d));
      const TritVector longer(n + 1, Trit::X);
      EXPECT_FALSE(shorter.compatible_with(longer));
      EXPECT_FALSE(shorter.covered_by(longer));
      EXPECT_FALSE(shorter == longer);
    }
  }
}

}  // namespace
}  // namespace nc::bits
