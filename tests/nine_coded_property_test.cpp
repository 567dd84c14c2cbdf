// Property tests for the 9C coder over randomized test cubes: round-trip
// correctness, leftover-X accounting and the paper's size formula, swept
// across every block size the paper uses and several X densities.
#include <gtest/gtest.h>

#include <random>
#include <tuple>

#include "codec/nine_coded.h"
#include "codec/nine_coded_reference.h"

namespace nc::codec {
namespace {

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

/// Which path a sweep case runs: the per-trit scalar reference or the
/// production coder (the word-parallel bitplane path). The printed case
/// ids carry these byte values.
enum class Path : unsigned char { kScalar = 1, kBitplane = 2 };

// Every sweep runs on both paths: the properties are statements about the
// 9C code itself, so they must hold identically for the reference and for
// the production coder that is tested against it.
class NineCodedSweep
    : public ::testing::TestWithParam<std::tuple<int, double, Path>> {};

NineCodedStats analyze(Path path, const NineCoded& nc, const TritVector& td,
                       TritVector* te = nullptr) {
  return path == Path::kScalar ? reference_analyze(nc, td, te)
                               : nc.analyze(td, te);
}

TritVector encode(Path path, const NineCoded& nc, const TritVector& td) {
  TritVector te;
  analyze(path, nc, td, &te);
  return te;
}

TritVector decode(Path path, const NineCoded& nc, const TritVector& te,
                  std::size_t original_bits) {
  return path == Path::kScalar
             ? reference_decode_checked(nc, te, original_bits).data
             : nc.decode(te, original_bits);
}

TEST_P(NineCodedSweep, RoundTripCoversEveryCareBit) {
  const auto [k, x_density, path] = GetParam();
  std::mt19937 rng(static_cast<unsigned>(k * 1000 + x_density * 100));
  const NineCoded nc(static_cast<std::size_t>(k));
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t n = 1 + rng() % 600;  // deliberately not block-aligned
    const TritVector td = random_cube(rng, n, x_density);
    const TritVector te = encode(path, nc, td);
    const TritVector d = decode(path, nc, te, td.size());
    ASSERT_EQ(d.size(), td.size());
    ASSERT_TRUE(td.covered_by(d))
        << "K=" << k << " n=" << n << "\ntd=" << td.to_string()
        << "\nd =" << d.to_string();
  }
}

TEST_P(NineCodedSweep, EncodedSizeMatchesPaperFormula) {
  const auto [k, x_density, path] = GetParam();
  std::mt19937 rng(static_cast<unsigned>(k * 77 + x_density * 10));
  const NineCoded nc(static_cast<std::size_t>(k));
  const TritVector td = random_cube(rng, 3000, x_density);
  const NineCodedStats s = analyze(path, nc, td);
  // |TE| = sum_i N_i * |C_i| + (N5..8) * K/2 + N9 * K  (Section IV formula).
  std::size_t expect = 0;
  for (std::size_t c = 0; c < kNumClasses; ++c) {
    const auto cls = static_cast<BlockClass>(c);
    expect += s.counts[c] * (nc.table().length(cls) +
                             payload_trits(cls, s.block_size));
  }
  EXPECT_EQ(s.encoded_bits, expect);
}

TEST_P(NineCodedSweep, XAccountingIsComplete) {
  // Every X of (padded) TD is either filled or leftover -- none vanish.
  const auto [k, x_density, path] = GetParam();
  std::mt19937 rng(static_cast<unsigned>(k * 13 + x_density * 1000));
  const NineCoded nc(static_cast<std::size_t>(k));
  const TritVector td = random_cube(rng, 2048, x_density);
  const NineCodedStats s = analyze(path, nc, td);
  const std::size_t padding_x = s.padded_bits - s.original_bits;
  EXPECT_EQ(s.filled_x + s.leftover_x, td.x_count() + padding_x);
}

TEST_P(NineCodedSweep, LeftoverXSurvivesInStream) {
  const auto [k, x_density, path] = GetParam();
  std::mt19937 rng(static_cast<unsigned>(k + x_density * 31));
  const NineCoded nc(static_cast<std::size_t>(k));
  const TritVector td = random_cube(rng, 1024, x_density);
  TritVector te;
  const NineCodedStats s = analyze(path, nc, td, &te);
  EXPECT_EQ(te.x_count(), s.leftover_x);
}

TEST_P(NineCodedSweep, FrequencyDirectedNeverWorseOnTrainingSet) {
  const auto [k, x_density, path] = GetParam();
  std::mt19937 rng(static_cast<unsigned>(k * 3 + x_density * 7));
  const TritVector td = random_cube(rng, 4096, x_density);
  const NineCoded std_coder(static_cast<std::size_t>(k));
  // The two-pass tuning, with the first pass's class counts taken from the
  // path under test.
  const NineCodedStats first = analyze(path, std_coder, td);
  const NineCoded tuned(std_coder.block_size(),
                        CodewordTable::frequency_directed(first.counts));
  EXPECT_LE(encode(path, tuned, td).size(),
            encode(path, std_coder, td).size());
  const TritVector d =
      decode(path, tuned, encode(path, tuned, td), td.size());
  EXPECT_TRUE(td.covered_by(d));
}

INSTANTIATE_TEST_SUITE_P(
    AllKAndDensities, NineCodedSweep,
    ::testing::Combine(::testing::Values(2, 4, 8, 12, 16, 20, 24, 28, 32, 48),
                       ::testing::Values(0.0, 0.3, 0.7, 0.95),
                       ::testing::Values(Path::kScalar, Path::kBitplane)),
    [](const ::testing::TestParamInfo<std::tuple<int, double, Path>>& info) {
      return "K" + std::to_string(std::get<0>(info.param)) + "_X" +
             std::to_string(static_cast<int>(std::get<1>(info.param) * 100)) +
             (std::get<2>(info.param) == Path::kScalar ? "_scalar"
                                                       : "_bitplane");
    });

// Exhaustive check for small K: every possible 4-trit block round-trips.
TEST(NineCodedExhaustive, AllBlocksK4) {
  const NineCoded nc(4);
  for (int a = 0; a < 3; ++a)
    for (int b = 0; b < 3; ++b)
      for (int c = 0; c < 3; ++c)
        for (int d = 0; d < 3; ++d) {
          TritVector td;
          td.push_back(static_cast<Trit>(a));
          td.push_back(static_cast<Trit>(b));
          td.push_back(static_cast<Trit>(c));
          td.push_back(static_cast<Trit>(d));
          const TritVector out = nc.decode(nc.encode(td), 4);
          ASSERT_TRUE(td.covered_by(out)) << td.to_string();
        }
}

// Is the frequency-directed property genuinely optimal among length
// permutations? For a fixed TD, no permutation of the standard lengths can
// beat the frequency-directed assignment (rearrangement inequality).
TEST(NineCodedExhaustive, FrequencyDirectedBeatsRandomPermutations) {
  std::mt19937 rng(99);
  const TritVector td = random_cube(rng, 4096, 0.6);
  const NineCoded tuned = NineCoded::tuned_for(td, 8);
  const std::size_t tuned_size = tuned.encode(td).size();
  std::array<unsigned, kNumClasses> lengths = {1, 2, 5, 5, 5, 5, 5, 5, 4};
  for (int trial = 0; trial < 30; ++trial) {
    std::shuffle(lengths.begin(), lengths.end(), rng);
    const NineCoded perm(8, CodewordTable::from_lengths(lengths));
    EXPECT_LE(tuned_size, perm.encode(td).size());
  }
}

}  // namespace
}  // namespace nc::codec
