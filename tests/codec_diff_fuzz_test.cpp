// Differential fuzzing of the production 9C coder against its reference.
//
// The per-trit reference (codec/nine_coded_reference.h) is the executable
// specification; the word-parallel production path in NineCoded must be
// indistinguishable from it on every input: identical TE streams
// (word-compare, so the packed representation is canonical too), identical
// statistics, identical decode output, and -- on corrupted streams -- the
// identical typed DecodeError down to the fault kind, TE offset and block
// index. Runs under the ASan/UBSan and
// TSan legs of tools/check.sh, so any out-of-bounds word arithmetic at
// half boundaries or odd tails surfaces here first.
#include <gtest/gtest.h>

#include <optional>
#include <random>
#include <vector>

#include "codec/nine_coded.h"
#include "codec/nine_coded_reference.h"
#include "codec/sharded.h"

namespace nc::codec {
namespace {

using bits::TestSet;
using bits::Trit;
using bits::TritVector;

TritVector random_cube(std::mt19937& rng, std::size_t n, double x_density) {
  std::uniform_real_distribution<double> uni(0.0, 1.0);
  TritVector v(n, Trit::Zero);
  for (std::size_t i = 0; i < n; ++i) {
    if (uni(rng) < x_density)
      v.set(i, Trit::X);
    else
      v.set(i, bits::trit_from_bit(rng() & 1u));
  }
  return v;
}

/// Everything observable from one decode attempt. Differential equality of
/// this struct is the whole contract: both paths succeed with the same
/// bits, or both fail with the same typed error.
struct DecodeResult {
  std::optional<TritVector> data;
  std::size_t blocks = 0;
  std::size_t consumed = 0;
  std::optional<DecodeFault> fault;
  std::size_t fault_offset = 0;
  std::size_t fault_block = 0;

  bool operator==(const DecodeResult&) const = default;
};

/// Decodes with the production path, or with the reference when
/// `reference` is set.
DecodeResult try_decode(const NineCoded& coder, const TritVector& te,
                        std::size_t original_bits, bool reference) {
  DecodeResult r;
  try {
    DecodeOutcome out =
        reference ? reference_decode_checked(coder, te, original_bits)
                  : coder.decode_checked(te, original_bits);
    r.data = std::move(out.data);
    r.blocks = out.blocks;
    r.consumed = out.consumed;
  } catch (const DecodeError& e) {
    r.fault = e.fault();
    r.fault_offset = e.stream_offset();
    r.fault_block = e.block_index();
  }
  return r;
}

/// One full differential check: encode with the reference and the
/// production path, compare streams and stats field by field, then decode
/// the stream with both.
void expect_identical(std::size_t k, const TritVector& td,
                      const char* context) {
  const NineCoded coder(k);

  TritVector te_s, te_b;
  const NineCodedStats ss = reference_analyze(coder, td, &te_s);
  const NineCodedStats sb = coder.analyze(td, &te_b);

  ASSERT_TRUE(te_s == te_b) << context << " K=" << k << " n=" << td.size()
                            << "\nreference =" << te_s.to_string()
                            << "\nproduction=" << te_b.to_string();
  ASSERT_EQ(ss.encoded_bits, sb.encoded_bits) << context;
  ASSERT_EQ(ss.padded_bits, sb.padded_bits) << context;
  ASSERT_EQ(ss.filled_x, sb.filled_x) << context;
  ASSERT_EQ(ss.leftover_x, sb.leftover_x) << context;
  ASSERT_EQ(ss.counts, sb.counts) << context;

  const DecodeResult ds = try_decode(coder, te_s, td.size(), true);
  const DecodeResult db = try_decode(coder, te_s, td.size(), false);
  ASSERT_FALSE(ds.fault.has_value())
      << context << ": clean stream failed to decode";
  ASSERT_TRUE(ds == db) << context << " K=" << k
                        << ": decoders disagree on a clean stream";
  ASSERT_TRUE(td.covered_by(*ds.data)) << context;
}

// ------------------------------------------------- randomized bulk trials

// >= 500 seeded trials spanning the K values where word handling is
// hardest: K=2 (single-trit halves), K=62/64/66 (half spans exactly one
// word, just under, just over), plus the paper's mid-range sizes; lengths
// are deliberately non-block-aligned so every trial exercises the padded
// odd tail.
TEST(CodecDiffFuzz, RandomizedTrialsAcrossKAndDensity) {
  const std::size_t ks[] = {2, 4, 6, 8, 16, 30, 32, 62, 64, 66, 128};
  const double densities[] = {0.0, 0.1, 0.3, 0.5, 0.7, 0.9, 1.0};
  int trials = 0;
  for (std::size_t k : ks) {
    for (double d : densities) {
      std::mt19937 rng(static_cast<unsigned>(k * 1009 + d * 131));
      for (int t = 0; t < 7; ++t, ++trials) {
        const std::size_t n = 1 + rng() % 800;
        const TritVector td = random_cube(rng, n, d);
        ASSERT_NO_FATAL_FAILURE(expect_identical(k, td, "random"));
      }
    }
  }
  ASSERT_GE(trials, 500);
}

// Frequency-directed tables permute the codeword lengths; the two paths
// must agree under every table they can be handed, not just the default.
TEST(CodecDiffFuzz, FrequencyDirectedTablesAgree) {
  std::mt19937 rng(4242);
  for (int t = 0; t < 40; ++t) {
    const std::size_t k = 2 + 2 * (rng() % 24);
    const TritVector td = random_cube(rng, 500 + rng() % 500, 0.6);
    // The two-pass tuning redone on the reference's own class counts.
    const NineCoded tuned_s(
        k, CodewordTable::frequency_directed(
               reference_analyze(NineCoded(k), td).counts));
    const NineCoded tuned_b = NineCoded::tuned_for(td, k);
    ASSERT_TRUE(tuned_s.table() == tuned_b.table())
        << "two-pass tuning diverged at K=" << k;
    TritVector te_s;
    reference_analyze(tuned_s, td, &te_s);
    ASSERT_TRUE(te_s == tuned_b.encode(td));
  }
}

// ------------------------------------------------------- adversarial data

TEST(CodecDiffFuzz, AllXAllCareAndAlternating) {
  for (std::size_t k : {2u, 8u, 62u, 64u, 66u}) {
    for (std::size_t n : {1u, 2u, 63u, 64u, 65u, 127u, 128u, 129u, 1000u}) {
      TritVector all_x(n, Trit::X);
      TritVector all0(n, Trit::Zero);
      TritVector all1(n, Trit::One);
      TritVector alt01(n, Trit::Zero);
      TritVector alt_x1(n, Trit::Zero);
      for (std::size_t i = 0; i < n; ++i) {
        if (i % 2 == 1) alt01.set(i, Trit::One);
        alt_x1.set(i, i % 2 == 0 ? Trit::X : Trit::One);
      }
      expect_identical(k, all_x, "all-X");
      expect_identical(k, all0, "all-0");
      expect_identical(k, all1, "all-1");
      expect_identical(k, alt01, "alternating-01");
      expect_identical(k, alt_x1, "alternating-X1");
    }
  }
}

// Single conflicting trits placed at every position of one block: flushes
// out any off-by-one in the half boundary masks (the conflict must flip
// exactly one half's compatibility, never the neighbour's).
TEST(CodecDiffFuzz, SingleTritConflictSweep) {
  for (std::size_t k : {2u, 4u, 8u, 64u, 66u}) {
    for (std::size_t pos = 0; pos < k; ++pos) {
      TritVector zeros(k, Trit::Zero);
      zeros.set(pos, Trit::One);
      expect_identical(k, zeros, "single-one");
      TritVector ones(k, Trit::One);
      ones.set(pos, Trit::Zero);
      expect_identical(k, ones, "single-zero");
      TritVector xs(k, Trit::X);
      xs.set(pos, Trit::One);
      expect_identical(k, xs, "single-one-in-X");
    }
  }
}

TEST(CodecDiffFuzz, EmptyInput) {
  for (std::size_t k : {2u, 8u, 64u}) expect_identical(k, TritVector(), "empty");
}

// ------------------------------------------- corrupted-stream differential

// Mutates clean TE streams -- truncation, trit flips to X, symbol flips,
// appended garbage -- and requires the two decoders to agree on the full
// outcome: either both recover identical bits or both throw the same fault
// at the same offset and block.
TEST(CodecDiffFuzz, CorruptedStreamsFailIdentically) {
  std::mt19937 rng(31337);
  int faults_seen = 0;
  for (int t = 0; t < 200; ++t) {
    const std::size_t k = 2 + 2 * (rng() % 32);
    const NineCoded coder(k);
    const TritVector td = random_cube(rng, 64 + rng() % 400, 0.5);
    TritVector te;
    reference_analyze(coder, td, &te);
    if (te.empty()) continue;

    switch (rng() % 4) {
      case 0:  // truncate
        te.resize(rng() % te.size());
        break;
      case 1: {  // flip one symbol to X (codeword positions must detect it)
        te.set(rng() % te.size(), Trit::X);
        break;
      }
      case 2: {  // flip one specified symbol's value
        const std::size_t i = rng() % te.size();
        te.set(i, te.get(i) == Trit::One ? Trit::Zero : Trit::One);
        break;
      }
      default:  // trailing garbage
        te.append_run(1 + rng() % 5, bits::trit_from_bit(rng() & 1u));
        break;
    }

    const DecodeResult ds = try_decode(coder, te, td.size(), true);
    const DecodeResult db = try_decode(coder, te, td.size(), false);
    ASSERT_TRUE(ds == db)
        << "decoders disagree on corrupted stream, K=" << k << " trial " << t
        << (ds.fault ? std::string(" reference fault ") +
                           to_string(*ds.fault) + " @" +
                           std::to_string(ds.fault_offset)
                     : std::string(" reference succeeded"))
        << (db.fault ? std::string(" production fault ") +
                           to_string(*db.fault) + " @" +
                           std::to_string(db.fault_offset)
                     : std::string(" production succeeded"));
    if (ds.fault.has_value()) ++faults_seen;
  }
  // The mutation mix must actually exercise the error paths, not decay
  // into a round-trip test (complete code: value flips often still parse).
  ASSERT_GT(faults_seen, 20);
}

// ------------------------------------------- sharded/parallel differential

// The sharded container takes any Codec; run the full parallel
// encode/decode pipeline on the production coder and on the reference and
// require identical containers. With jobs=4 this also puts the bitplane
// word paths under TSan's eye via check.sh's tsan leg.
TEST(CodecDiffFuzz, ShardedParallelPipelineAgrees) {
  std::mt19937 rng(777);
  TestSet td(40, 96);
  for (std::size_t p = 0; p < td.pattern_count(); ++p)
    for (std::size_t c = 0; c < td.pattern_length(); ++c) {
      const auto r = rng() % 10;
      td.set(p, c, r < 6 ? Trit::X : bits::trit_from_bit(r & 1u));
    }
  for (std::size_t k : {8u, 64u}) {
    const ReferenceCodec reference{NineCoded(k)};
    const NineCoded production(k);
    const TritVector c_s = encode_sharded(reference, td, 8, 4);
    const TritVector c_b = encode_sharded(production, td, 8, 4);
    ASSERT_TRUE(c_s == c_b) << "sharded containers differ at K=" << k;
    const TestSet back_s = decode_sharded(reference, c_b, 4);
    const TestSet back_b = decode_sharded(production, c_b, 4);
    ASSERT_EQ(back_s.pattern_count(), back_b.pattern_count());
    ASSERT_TRUE(back_s.flatten() == back_b.flatten());
    ASSERT_TRUE(td.flatten().covered_by(back_b.flatten()));
  }
}

}  // namespace
}  // namespace nc::codec
