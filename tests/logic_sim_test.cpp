#include "sim/logic_sim.h"

#include <gtest/gtest.h>

#include <random>

#include "circuit/bench_io.h"
#include "circuit/generator.h"
#include "circuit/samples.h"

namespace nc::sim {
namespace {

using bits::TestSet;
using bits::Trit;
using bits::TritVector;
using circuit::Netlist;

// One gate of each type, inputs a and b.
Netlist gate_pair(const std::string& type) {
  return circuit::parse_bench_string("INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = " +
                                     type + "(a, b)\n");
}

Trit out_value(const Netlist& nl, const std::string& pattern) {
  const auto values = simulate_pattern(nl, TritVector::from_string(pattern));
  return values[nl.outputs()[0]];
}

struct TruthCase {
  const char* type;
  const char* pattern;  // two trits: a, b
  char expected;
};

// Prints a case as e.g. "AND(0X)=0". Without this gtest prints the raw
// bytes, pointers included, so the discovered test names would change from
// one build to the next.
void PrintTo(const TruthCase& tc, std::ostream* os) {
  *os << tc.type << "(" << tc.pattern << ")=" << tc.expected;
}

class GateTruth : public ::testing::TestWithParam<TruthCase> {};

TEST_P(GateTruth, ThreeValuedSemantics) {
  const TruthCase& tc = GetParam();
  EXPECT_EQ(bits::to_char(out_value(gate_pair(tc.type), tc.pattern)),
            tc.expected)
      << tc.type << "(" << tc.pattern << ")";
}

INSTANTIATE_TEST_SUITE_P(
    AllGates, GateTruth,
    ::testing::Values(
        // AND: controlling 0 beats X.
        TruthCase{"AND", "00", '0'}, TruthCase{"AND", "11", '1'},
        TruthCase{"AND", "0X", '0'}, TruthCase{"AND", "X1", 'X'},
        TruthCase{"AND", "XX", 'X'},
        TruthCase{"NAND", "11", '0'}, TruthCase{"NAND", "0X", '1'},
        TruthCase{"NAND", "1X", 'X'},
        TruthCase{"OR", "00", '0'}, TruthCase{"OR", "1X", '1'},
        TruthCase{"OR", "0X", 'X'},
        TruthCase{"NOR", "00", '1'}, TruthCase{"NOR", "X1", '0'},
        TruthCase{"NOR", "X0", 'X'},
        TruthCase{"XOR", "01", '1'}, TruthCase{"XOR", "11", '0'},
        TruthCase{"XOR", "1X", 'X'}, TruthCase{"XOR", "X0", 'X'},
        TruthCase{"XNOR", "01", '0'}, TruthCase{"XNOR", "00", '1'},
        TruthCase{"XNOR", "X1", 'X'}));

TEST(LogicSim, NotAndBuf) {
  const Netlist nl = circuit::parse_bench_string(
      "INPUT(a)\nOUTPUT(y)\nOUTPUT(z)\ny = NOT(a)\nz = BUF(a)\n");
  auto run = [&](const char* p) {
    const auto v = simulate_pattern(nl, TritVector::from_string(p));
    return std::string{bits::to_char(v[nl.find("y")]),
                       bits::to_char(v[nl.find("z")])};
  };
  EXPECT_EQ(run("0"), "10");
  EXPECT_EQ(run("1"), "01");
  EXPECT_EQ(run("X"), "XX");
}

TEST(LogicSim, C17KnownVector) {
  const Netlist nl = circuit::samples::c17();
  // All-ones: G10 = NAND(1,1)=0, G11 = 0, G16 = NAND(1,0)=1, G19 = 1,
  // G22 = NAND(0,1)=1, G23 = NAND(1,1)=0.
  const auto values = simulate_pattern(nl, TritVector::from_string("11111"));
  EXPECT_EQ(values[nl.find("G22")], Trit::One);
  EXPECT_EQ(values[nl.find("G23")], Trit::Zero);
}

TEST(LogicSim, ResponseLayoutIsPoThenPpo) {
  const Netlist nl = circuit::samples::s27();
  const auto values =
      simulate_pattern(nl, TritVector(nl.pattern_width(), Trit::Zero));
  const TritVector r = extract_response(nl, values);
  ASSERT_EQ(r.size(), nl.response_width());
  // First slot is the PO G17, remaining are the three next-state lines.
  EXPECT_EQ(r.get(0), values[nl.outputs()[0]]);
  for (std::size_t i = 0; i < nl.flops().size(); ++i) {
    const std::size_t ppo = nl.gate(nl.flops()[i]).fanins[0];
    EXPECT_EQ(r.get(1 + i), values[ppo]);
  }
}

TEST(LogicSim, S27AllZeroState) {
  const Netlist nl = circuit::samples::s27();
  // Pattern: G0..G3 = 0, G5..G7 = 0.
  const auto values =
      simulate_pattern(nl, TritVector::from_string("0000000"));
  // G14 = NOT(G0)=1; G8 = AND(G14,G6)=0; G12 = NOR(G1,G7)=1;
  // G15 = OR(G12,G8)=1; G16 = OR(G3,G8)=0; G9 = NAND(G16,G15)=1;
  // G11 = NOR(G5,G9)=0; G17 = NOT(G11)=1.
  EXPECT_EQ(values[nl.find("G17")], Trit::One);
  EXPECT_EQ(values[nl.find("G11")], Trit::Zero);
  EXPECT_EQ(values[nl.find("G9")], Trit::One);
}

TEST(ParallelSim, MatchesScalarOnRandomPatterns) {
  circuit::GeneratorConfig cfg;
  cfg.num_inputs = 10;
  cfg.num_flops = 6;
  cfg.num_gates = 200;
  cfg.seed = 3;
  const Netlist nl = circuit::generate_circuit(cfg);

  std::mt19937 rng(11);
  TestSet ts(100, nl.pattern_width());
  for (std::size_t p = 0; p < 100; ++p)
    for (std::size_t c = 0; c < nl.pattern_width(); ++c)
      ts.set(p, c, static_cast<Trit>(rng() % 3));

  ParallelSim psim(nl);
  for (std::size_t first = 0; first < ts.pattern_count(); first += 64) {
    const std::size_t loaded = psim.load(ts, first);
    psim.run();
    for (std::size_t slot = 0; slot < loaded; ++slot) {
      const auto scalar = simulate_pattern(nl, ts.pattern(first + slot));
      for (std::size_t n = 0; n < nl.size(); ++n) {
        const Val64& v = psim.value(n);
        Trit got = Trit::X;
        if ((v.one >> slot) & 1u) got = Trit::One;
        if ((v.zero >> slot) & 1u) got = Trit::Zero;
        ASSERT_EQ(got, scalar[n]) << "pattern " << first + slot << " node " << n;
      }
    }
  }
}

TEST(ParallelSim, LoadRejectsWrongWidth) {
  const Netlist nl = circuit::samples::c17();
  TestSet ts(1, 3);
  ParallelSim sim(nl);
  EXPECT_THROW(sim.load(ts, 0), std::invalid_argument);
}

TEST(ParallelSim, Val64Constants) {
  EXPECT_EQ(Val64::constant(true).one, ~0ull);
  EXPECT_EQ(Val64::constant(true).zero, 0ull);
  EXPECT_EQ(Val64::all_x(), (Val64{0, 0}));
  EXPECT_EQ(Val64::constant(false).inverted(), Val64::constant(true));
}

}  // namespace
}  // namespace nc::sim
