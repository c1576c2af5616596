// Boolean-function toolkit: cubes, truth tables, exact QM minimization
// (checked against brute force on small functions), espresso-lite, netlist
// building with CSE, and the C emitter.

#include <gtest/gtest.h>

#include <random>
#include <thread>

#include "bf/codegen.h"
#include "bf/espresso_lite.h"
#include "bf/netlist.h"
#include "bf/quine_mccluskey.h"
#include "ct/synthesis.h"
#include "gauss/probmatrix.h"

namespace cgs::bf {
namespace {

TEST(Cube, MintermAndCoverage) {
  const Cube c = Cube::minterm(0b101, 3);
  EXPECT_EQ(c.literal_count(), 3);
  EXPECT_TRUE(c.covers_minterm(0b101));
  EXPECT_FALSE(c.covers_minterm(0b100));
  EXPECT_EQ(c.to_string(), "101");  // variable 0 first
}

TEST(Cube, SetVarAndDontCare) {
  Cube c(4);
  EXPECT_EQ(c.literal_count(), 0);
  EXPECT_TRUE(c.covers_minterm(0b1111));
  c.set_var(2, 1);
  EXPECT_TRUE(c.covers_minterm(0b0100));
  EXPECT_FALSE(c.covers_minterm(0b0000));
  c.set_var(2, -1);
  EXPECT_TRUE(c.covers_minterm(0b0000));
}

TEST(Cube, MergeAdjacent) {
  const Cube a = Cube::minterm(0b000, 3);
  const Cube b = Cube::minterm(0b100, 3);
  const auto m = a.merge_adjacent(b);
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->literal_count(), 2);
  EXPECT_TRUE(m->covers_minterm(0b000));
  EXPECT_TRUE(m->covers_minterm(0b100));
  EXPECT_FALSE(m->covers_minterm(0b010));
  // Distance-2 pair does not merge.
  EXPECT_FALSE(Cube::minterm(0b000, 3)
                   .merge_adjacent(Cube::minterm(0b110, 3))
                   .has_value());
}

TEST(Cube, ContainsAndIntersects) {
  Cube wide(3);
  wide.set_var(0, 1);  // x = 1--
  const Cube narrow = Cube::minterm(0b101, 3);
  EXPECT_TRUE(wide.contains(narrow));
  EXPECT_FALSE(narrow.contains(wide));
  EXPECT_TRUE(wide.intersects(narrow));
  Cube other(3);
  other.set_var(0, 0);
  EXPECT_FALSE(wide.intersects(other));
}

TEST(Cube, WideCubes128Vars) {
  Cube c(128);
  c.set_var(0, 1);
  c.set_var(127, 0);
  EXPECT_EQ(c.literal_count(), 2);
  Cube d = c;
  d.set_var(127, 1);
  const auto m = c.merge_adjacent(d);
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->var(127), -1);
  EXPECT_EQ(m->var(0), 1);
}

TEST(TruthTable, BlocksAndConflicts) {
  TruthTable tt(3);
  tt.set_block(0b100, 1, TruthTable::State::kOn);  // minterms 4,5
  EXPECT_EQ(tt.state(0b100), TruthTable::State::kOn);
  EXPECT_EQ(tt.state(0b101), TruthTable::State::kOn);
  EXPECT_EQ(tt.state(0b110), TruthTable::State::kDc);
  EXPECT_THROW(tt.set_block(0b101, 0, TruthTable::State::kOff), Error);
}

// Reference: brute-force minimal cover size by subset enumeration over
// primes (only for tiny functions).
int brute_force_min_cubes(const TruthTable& tt) {
  const auto primes = prime_implicants(tt);
  const auto on = tt.on_set();
  if (on.empty()) return 0;
  const int np = static_cast<int>(primes.size());
  for (int k = 1; k <= np; ++k) {
    // all k-subsets
    std::vector<int> idx(static_cast<std::size_t>(k));
    std::function<bool(int, int)> rec = [&](int start, int depth) {
      if (depth == k) {
        for (std::uint64_t m : on) {
          bool cov = false;
          for (int i = 0; i < k && !cov; ++i)
            cov = primes[static_cast<std::size_t>(idx[static_cast<std::size_t>(i)])].covers_minterm(m);
          if (!cov) return false;
        }
        return true;
      }
      for (int p = start; p < np; ++p) {
        idx[static_cast<std::size_t>(depth)] = p;
        if (rec(p + 1, depth + 1)) return true;
      }
      return false;
    };
    if (rec(0, 0)) return k;
  }
  return np;
}

class QmRandomFunctions : public ::testing::TestWithParam<int> {};

TEST_P(QmRandomFunctions, ExactCoverIsCorrectAndMinimal) {
  std::mt19937_64 gen(static_cast<std::uint64_t>(GetParam()));
  for (int trial = 0; trial < 20; ++trial) {
    const int nv = 4;
    TruthTable tt(nv);
    for (std::uint64_t m = 0; m < tt.size(); ++m) {
      const int r = static_cast<int>(gen() % 3);
      tt.set(m, r == 0 ? TruthTable::State::kOn
                       : (r == 1 ? TruthTable::State::kOff
                                 : TruthTable::State::kDc));
    }
    const MinimizeResult res = minimize_exact(tt);
    EXPECT_TRUE(res.exact);
    EXPECT_TRUE(tt.cover_matches(res.cover));
    EXPECT_EQ(static_cast<int>(res.cover.size()), brute_force_min_cubes(tt));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, QmRandomFunctions,
                         ::testing::Values(1, 2, 3, 4, 5));

TEST(Qm, ClassicTextbookFunction) {
  // f = sum m(0,1,2,5,6,7) over 3 vars (with our bit-order convention:
  // minterm bit v = variable v) has a known 3-cube minimum... verify
  // correctness and size <= 4 plus exactness.
  TruthTable tt(3);
  for (std::uint64_t m : {0, 1, 2, 5, 6, 7})
    tt.set(static_cast<std::uint64_t>(m), TruthTable::State::kOn);
  for (std::uint64_t m : {3, 4}) tt.set(static_cast<std::uint64_t>(m), TruthTable::State::kOff);
  const auto res = minimize_exact(tt);
  EXPECT_TRUE(res.exact);
  EXPECT_TRUE(tt.cover_matches(res.cover));
  EXPECT_EQ(res.cover.size(), 3u);
}

TEST(Qm, ConstantFunctions) {
  TruthTable all_on(3);
  for (std::uint64_t m = 0; m < 8; ++m) all_on.set(m, TruthTable::State::kOn);
  const auto res = minimize_exact(all_on);
  ASSERT_EQ(res.cover.size(), 1u);
  EXPECT_EQ(res.cover[0].literal_count(), 0);

  TruthTable all_off(3);
  for (std::uint64_t m = 0; m < 8; ++m) all_off.set(m, TruthTable::State::kOff);
  EXPECT_TRUE(minimize_exact(all_off).cover.empty());
}

TEST(Qm, DontCaresEnableWiderCubes) {
  // ON = {11}, DC everywhere else -> single literal-free cube.
  TruthTable tt(2);
  tt.set(0b11, TruthTable::State::kOn);
  const auto res = minimize_exact(tt);
  ASSERT_EQ(res.cover.size(), 1u);
  EXPECT_EQ(res.cover[0].literal_count(), 0);
}

TEST(EspressoLite, CorrectOnRandomFunctions) {
  std::mt19937_64 gen(42);
  for (int trial = 0; trial < 30; ++trial) {
    const int nv = 6;
    TruthTable tt(nv);
    std::vector<Cube> raw;
    for (std::uint64_t m = 0; m < tt.size(); ++m) {
      const int r = static_cast<int>(gen() % 3);
      tt.set(m, r == 0 ? TruthTable::State::kOn
                       : (r == 1 ? TruthTable::State::kOff
                                 : TruthTable::State::kDc));
      if (r == 0) raw.push_back(Cube::minterm(m, nv));
    }
    const auto cover = espresso_lite(tt, raw);
    EXPECT_TRUE(tt.cover_matches(cover));
    EXPECT_LE(cover.size(), raw.size());
  }
}

TEST(MergeOnly, PreservesCoveredSetExactly) {
  std::mt19937_64 gen(7);
  const int nv = 5;
  std::vector<Cube> cubes;
  for (int i = 0; i < 12; ++i)
    cubes.push_back(Cube::minterm(gen() % 32, nv));
  const auto merged = merge_only(cubes);
  for (std::uint64_t m = 0; m < 32; ++m) {
    EXPECT_EQ(TruthTable::eval_cover(cubes, m),
              TruthTable::eval_cover(merged, m));
  }
  EXPECT_LE(merged.size(), cubes.size());
}

TEST(Netlist, BuilderConstantFolding) {
  NetlistBuilder b(2);
  EXPECT_EQ(b.land(b.const0(), b.input(0)), b.const0());
  EXPECT_EQ(b.land(b.const1(), b.input(0)), b.input(0));
  EXPECT_EQ(b.lor(b.const1(), b.input(0)), b.const1());
  EXPECT_EQ(b.lxor(b.input(1), b.input(1)), b.const0());
  EXPECT_EQ(b.lnot(b.const0()), b.const1());
}

TEST(Netlist, CseDeduplicates) {
  NetlistBuilder b(2, /*enable_cse=*/true);
  const auto x = b.land(b.input(0), b.input(1));
  const auto y = b.land(b.input(1), b.input(0));  // commuted
  EXPECT_EQ(x, y);
  b.add_output(x);
  const Netlist nl = b.take();
  EXPECT_EQ(nl.op_count(), 1u);
}

TEST(Netlist, EvalMatchesSemantics) {
  NetlistBuilder b(3);
  // f = (a & ~b) | (b ^ c)
  const auto f = b.lor(b.land(b.input(0), b.lnot(b.input(1))),
                       b.lxor(b.input(1), b.input(2)));
  b.add_output(f);
  const Netlist nl = b.take();
  for (int m = 0; m < 8; ++m) {
    const int a = m & 1, bb = (m >> 1) & 1, c = (m >> 2) & 1;
    const int expect = (a & !bb) | (bb ^ c);
    EXPECT_EQ(nl.eval_bits({a, bb, c})[0], expect) << m;
  }
}

TEST(Netlist, SopOverCubes) {
  NetlistBuilder b(3);
  std::vector<Cube> cover = {Cube::minterm(0b011, 3), Cube::minterm(0b100, 3)};
  b.add_output(b.sop(cover, 0));
  const Netlist nl = b.take();
  for (std::uint64_t m = 0; m < 8; ++m) {
    const bool expect = (m == 0b011) || (m == 0b100);
    EXPECT_EQ(nl.eval_bits({int(m & 1), int((m >> 1) & 1), int((m >> 2) & 1)})[0],
              expect ? 1 : 0);
  }
}

TEST(Netlist, BitslicedLanesAreIndependent) {
  NetlistBuilder b(2);
  b.add_output(b.land(b.input(0), b.input(1)));
  const Netlist nl = b.take();
  std::vector<std::uint64_t> in = {0xF0F0F0F0F0F0F0F0ull,
                                   0xFF00FF00FF00FF00ull};
  std::vector<std::uint64_t> out(1), scratch(nl.nodes().size());
  nl.eval(in.data(), out.data(), scratch.data());
  EXPECT_EQ(out[0], 0xF000F000F000F000ull);
}

TEST(Netlist, ConcurrentEvalOnSharedNetlistMatchesSerial) {
  // eval is const, and the registry hands one synthesized netlist to many
  // threads: concurrent evaluations must not share any buffer. Each thread
  // replays its own input stream against answers computed serially.
  const ct::SynthesizedSampler synth = ct::synthesize(
      gauss::ProbMatrix(gauss::GaussianParams::sigma_2(64)), {});
  const Netlist& nl = synth.netlist;
  constexpr int kThreads = 2;
  constexpr int kEvals = 20000;
  const auto inputs = [&](std::mt19937_64& rng) {
    const std::uint64_t w = rng();
    std::vector<int> bits(static_cast<std::size_t>(nl.num_inputs()));
    for (std::size_t i = 0; i < bits.size(); ++i) bits[i] = (w >> i) & 1u;
    return bits;
  };

  std::vector<std::vector<std::vector<int>>> serial(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    std::mt19937_64 rng(static_cast<std::uint64_t>(t) + 1);
    for (int i = 0; i < kEvals; ++i)
      serial[static_cast<std::size_t>(t)].push_back(nl.eval_bits(inputs(rng)));
  }

  std::vector<int> mismatches(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&, t] {
      std::mt19937_64 rng(static_cast<std::uint64_t>(t) + 1);
      const auto& expect = serial[static_cast<std::size_t>(t)];
      for (int i = 0; i < kEvals; ++i)
        mismatches[static_cast<std::size_t>(t)] +=
            nl.eval_bits(inputs(rng)) != expect[static_cast<std::size_t>(i)];
    });
  for (auto& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t)
    EXPECT_EQ(mismatches[static_cast<std::size_t>(t)], 0) << "thread " << t;
}

TEST(Codegen, EmitsCompilableLookingC) {
  NetlistBuilder b(2);
  b.add_output(b.lxor(b.input(0), b.input(1)));
  const std::string src = emit_c(b.take(), "xor_core");
  EXPECT_NE(src.find("void xor_core(const uint64_t in[2], uint64_t out[1])"),
            std::string::npos);
  EXPECT_NE(src.find("#include <stdint.h>"), std::string::npos);
  EXPECT_EQ(src.find("if"), std::string::npos);  // branch-free by construction
}

}  // namespace
}  // namespace cgs::bf
