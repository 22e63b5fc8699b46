// Tests for the paper's MapReduce set cover algorithms: Algorithm 1
// (randomized local ratio, Theorems 2.3/2.4) and Algorithm 3
// (hungry-greedy epsilon-greedy, Theorems 4.5/4.6).

#include <gtest/gtest.h>

#include "mrlr/core/greedy_setcover_mr.hpp"
#include "mrlr/core/rlr_setcover.hpp"
#include "mrlr/graph/generators.hpp"
#include "mrlr/graph/validate.hpp"
#include "mrlr/seq/greedy_setcover.hpp"
#include "mrlr/setcover/exact.hpp"
#include "mrlr/setcover/generators.hpp"
#include "mrlr/setcover/validate.hpp"
#include "mrlr/util/math.hpp"

namespace mrlr::core {
namespace {

using setcover::SetSystem;

MrParams test_params(std::uint64_t seed = 1, double mu = 0.25) {
  MrParams p;
  p.mu = mu;
  p.seed = seed;
  p.max_iterations = 500;
  return p;
}

// ------------------------------------------------- Algorithm 1 (RLR) --

TEST(RlrSetCover, CoversTinyInstance) {
  const SetSystem s(4, {{0, 1}, {1, 2}, {2, 3}, {0, 3}},
                    {1.0, 2.0, 1.0, 2.0});
  const auto res = rlr_set_cover(s, test_params());
  EXPECT_FALSE(res.outcome.failed);
  EXPECT_TRUE(setcover::is_cover(s, res.cover));
  EXPECT_LE(res.weight,
            static_cast<double>(s.max_frequency()) * res.lower_bound + 1e-9);
}

class RlrSetCoverSweep
    : public ::testing::TestWithParam<std::tuple<int, int, int, int>> {};

TEST_P(RlrSetCoverSweep, FApproximationAndFeasibility) {
  const auto [num_sets, universe, f, seed] = GetParam();
  Rng rng(static_cast<std::uint64_t>(seed) * 2654435761u);
  const SetSystem s = setcover::bounded_frequency(
      num_sets, universe, f, graph::WeightDist::kIntegral, rng);
  const auto res = rlr_set_cover(s, test_params(seed));
  ASSERT_FALSE(res.outcome.failed);
  ASSERT_TRUE(setcover::is_cover(s, res.cover));
  // Worst-case guarantee against the local ratio certificate.
  EXPECT_LE(res.weight,
            static_cast<double>(s.max_frequency()) * res.lower_bound + 1e-9);
  EXPECT_EQ(res.outcome.space_violations, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RlrSetCoverSweep,
    ::testing::Combine(::testing::Values(40, 120), ::testing::Values(200, 800),
                       ::testing::Values(2, 3, 5),
                       ::testing::Values(1, 2, 3)));

TEST(RlrSetCover, MatchesGuaranteeAgainstExactOpt) {
  Rng rng(5);
  for (int t = 0; t < 8; ++t) {
    const SetSystem s = setcover::bounded_frequency(
        12, 18, 3, graph::WeightDist::kUniform, rng);
    const auto res = rlr_set_cover(s, test_params(t + 1));
    ASSERT_FALSE(res.outcome.failed);
    ASSERT_TRUE(setcover::is_cover(s, res.cover));
    const auto opt = setcover::exact_min_cover_weight(s);
    ASSERT_TRUE(opt.has_value());
    EXPECT_LE(res.weight,
              static_cast<double>(s.max_frequency()) * (*opt) + 1e-9);
    EXPECT_LE(res.lower_bound, *opt + 1e-9);
  }
}

TEST(RlrSetCover, DeterministicForSeed) {
  Rng rng(6);
  const SetSystem s = setcover::bounded_frequency(
      60, 400, 3, graph::WeightDist::kUniform, rng);
  const auto a = rlr_set_cover(s, test_params(42));
  const auto b = rlr_set_cover(s, test_params(42));
  EXPECT_EQ(a.cover, b.cover);
  EXPECT_EQ(a.outcome.rounds, b.outcome.rounds);
}

TEST(RlrSetCover, DifferentSeedsBothValid) {
  Rng rng(7);
  const SetSystem s = setcover::bounded_frequency(
      60, 400, 2, graph::WeightDist::kUniform, rng);
  const auto a = rlr_set_cover(s, test_params(1));
  const auto b = rlr_set_cover(s, test_params(2));
  EXPECT_TRUE(setcover::is_cover(s, a.cover));
  EXPECT_TRUE(setcover::is_cover(s, b.cover));
}

TEST(RlrSetCover, FewIterationsWhenSampleCoversAll) {
  // Universe smaller than eta: p = 1 immediately, so the algorithm must
  // finish in one local ratio iteration.
  Rng rng(8);
  const SetSystem s = setcover::bounded_frequency(
      30, 50, 2, graph::WeightDist::kUniform, rng);
  const auto res = rlr_set_cover(s, test_params(1, /*mu=*/0.5));
  EXPECT_FALSE(res.outcome.failed);
  EXPECT_LE(res.outcome.iterations, 2u);
}

TEST(RlrSetCover, SampleRoundsSendOneFramePerSampledElement) {
  // The fail check reads |U'| as the central inbox_size, so the sample
  // rounds keep one frame per sampled element: coalescing them would
  // shrink the count to one frame per machine. A boosted sample takes
  // every element in the first iteration, on more than one machine.
  Rng rng(9);
  const std::uint64_t sets = 20;
  const std::uint64_t universe = 400;
  const SetSystem s = setcover::bounded_frequency(
      sets, universe, 3, graph::WeightDist::kUniform, rng);
  MrParams p = test_params(2, /*mu=*/0.2);
  p.sample_boost = 8.0;  // p = min(1, 2 * boost * eta / |U|) = 1
  p.slack = 64.0;        // room for the whole universe on central
  ASSERT_GT(ceil_div(universe, ipow_real(sets, 1.0 + p.mu)), 1u);
  const auto res = rlr_set_cover(s, p);
  ASSERT_FALSE(res.outcome.failed);
  ASSERT_FALSE(res.sample_sizes.empty());
  EXPECT_EQ(res.sample_sizes.front(), universe);

  const graph::Graph g = graph::gnm(60, 600, rng);
  const std::vector<double> w(g.num_vertices(), 1.0);
  ASSERT_GT(ceil_div(g.num_edges(), ipow_real(60, 1.0 + p.mu)), 1u);
  const auto vc = rlr_vertex_cover(g, w, p);
  ASSERT_FALSE(vc.outcome.failed);
  ASSERT_FALSE(vc.sample_sizes.empty());
  EXPECT_EQ(vc.sample_sizes.front(), g.num_edges());
}

// --------------------------------- f = 2 vertex cover specialization --

class RlrVertexCoverSweep
    : public ::testing::TestWithParam<std::tuple<int, double, int>> {};

TEST_P(RlrVertexCoverSweep, TwoApproximationAndFeasibility) {
  const auto [n, c, seed] = GetParam();
  Rng rng(static_cast<std::uint64_t>(seed) * 40503u + n);
  const graph::Graph g = graph::gnm_density(n, c, rng);
  const auto weights =
      graph::random_vertex_weights(n, graph::WeightDist::kUniform, rng);
  const auto res = rlr_vertex_cover(g, weights, test_params(seed));
  ASSERT_FALSE(res.outcome.failed);
  ASSERT_TRUE(graph::is_vertex_cover(g, res.cover));
  EXPECT_LE(res.weight, 2.0 * res.lower_bound + 1e-9);
  EXPECT_EQ(res.outcome.space_violations, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RlrVertexCoverSweep,
    ::testing::Combine(::testing::Values(50, 150, 400),
                       ::testing::Values(0.2, 0.35, 0.5),
                       ::testing::Values(1, 2)));

TEST(RlrVertexCover, TwoApproxAgainstExactOpt) {
  Rng rng(9);
  for (int t = 0; t < 6; ++t) {
    const graph::Graph g = graph::gnm(12, 30, rng);
    const auto weights =
        graph::random_vertex_weights(12, graph::WeightDist::kIntegral, rng);
    const auto res = rlr_vertex_cover(g, weights, test_params(t + 1));
    ASSERT_FALSE(res.outcome.failed);
    ASSERT_TRUE(graph::is_vertex_cover(g, res.cover));
    const double opt = setcover::exact_min_vertex_cover_weight(g, weights);
    EXPECT_LE(res.weight, 2.0 * opt + 1e-9);
  }
}

TEST(RlrVertexCover, StarWithCheapHub) {
  // Star where the hub is cheap: the 2-approximation must pick the hub,
  // never the expensive leaves (leaf weights alone exceed 2*OPT).
  const graph::Graph g = graph::star(50);
  std::vector<double> w(50, 1000.0);
  w[0] = 1.0;
  const auto res = rlr_vertex_cover(g, w, test_params(3));
  ASSERT_TRUE(graph::is_vertex_cover(g, res.cover));
  EXPECT_LE(res.weight, 2.0 + 1e-9);
}

TEST(RlrVertexCover, RoundsGrowGentlyWithDensity) {
  // O(c/mu) iterations: doubling c should not explode the iteration
  // count. Loose factor-of-five check on a fixed n.
  Rng rng(10);
  const graph::Graph sparse = graph::gnm_density(300, 0.2, rng);
  const graph::Graph dense = graph::gnm_density(300, 0.5, rng);
  const auto ws =
      graph::random_vertex_weights(300, graph::WeightDist::kUniform, rng);
  const auto rs = rlr_vertex_cover(sparse, ws, test_params(1));
  const auto rd = rlr_vertex_cover(dense, ws, test_params(1));
  ASSERT_FALSE(rs.outcome.failed);
  ASSERT_FALSE(rd.outcome.failed);
  EXPECT_LE(rd.outcome.iterations,
            5 * std::max<std::uint64_t>(rs.outcome.iterations, 1));
}

// ------------------------------------------ Algorithm 3 (greedy MR) --

TEST(GreedySetCoverMr, CoversTinyInstance) {
  const SetSystem s(4, {{0, 1}, {1, 2}, {2, 3}, {0, 3}},
                    {1.0, 2.0, 1.0, 2.0});
  const auto res = greedy_set_cover_mr(s, 0.2, test_params());
  EXPECT_FALSE(res.outcome.failed);
  EXPECT_TRUE(setcover::is_cover(s, res.cover));
}

class GreedySetCoverMrSweep
    : public ::testing::TestWithParam<std::tuple<int, double, int>> {};

TEST_P(GreedySetCoverMrSweep, QualityWithinEpsGreedyBound) {
  const auto [universe, eps, seed] = GetParam();
  Rng rng(static_cast<std::uint64_t>(seed) * 17 + universe);
  const SetSystem s = setcover::many_sets(
      40, universe, 6, graph::WeightDist::kUniform, rng);
  const auto res = greedy_set_cover_mr(s, eps, test_params(seed));
  ASSERT_FALSE(res.outcome.failed);
  ASSERT_TRUE(setcover::is_cover(s, res.cover));
  const auto opt = setcover::exact_min_cover_weight(s);
  ASSERT_TRUE(opt.has_value());
  // (1+eps) * H_Delta guarantee, plus the eps*OPT preprocessing term of
  // Remark 4.7.
  const double bound =
      (1.0 + eps) * harmonic(s.max_set_size()) * (*opt) + eps * (*opt);
  EXPECT_LE(res.weight, bound + 1e-9);
  EXPECT_EQ(res.outcome.space_violations, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, GreedySetCoverMrSweep,
    ::testing::Combine(::testing::Values(12, 18, 24),
                       ::testing::Values(0.1, 0.5),
                       ::testing::Values(1, 2, 3)));

TEST(GreedySetCoverMr, LargeInstanceQualityVsSequentialGreedy) {
  Rng rng(11);
  const SetSystem s = setcover::many_sets(
      600, 300, 12, graph::WeightDist::kExponential, rng);
  const double eps = 0.2;
  const auto mr = greedy_set_cover_mr(s, eps, test_params(4));
  ASSERT_FALSE(mr.outcome.failed);
  ASSERT_TRUE(setcover::is_cover(s, mr.cover));
  const auto seq = seq::greedy_set_cover(s);
  // The MR version loses at most ~(1+eps) against exact greedy on top of
  // the preprocessing term; allow a small extra constant for sampling.
  EXPECT_LE(mr.weight, (1.0 + eps) * 1.5 * seq.weight + 1e-9);
}

TEST(GreedySetCoverMr, DeterministicForSeed) {
  Rng rng(12);
  const SetSystem s = setcover::many_sets(
      100, 80, 8, graph::WeightDist::kUniform, rng);
  const auto a = greedy_set_cover_mr(s, 0.3, test_params(9));
  const auto b = greedy_set_cover_mr(s, 0.3, test_params(9));
  EXPECT_EQ(a.cover, b.cover);
  EXPECT_EQ(a.outcome.rounds, b.outcome.rounds);
}

TEST(GreedySetCoverMr, PreprocessingTakesCheapSets) {
  // gamma = max_j min_{S contains j} w(S) = 1.0 (elements 1 and 2 are
  // only in unit-weight sets), so the near-free set {0} falls below the
  // gamma*eps/n threshold and Remark 4.7 takes it outright.
  SetSystem s(3, {{0}, {1}, {2}, {0}}, {1.0, 1.0, 1.0, 1e-12});
  const auto res = greedy_set_cover_mr(s, 0.5, test_params());
  EXPECT_GE(res.preprocessed_sets, 1u);
  EXPECT_TRUE(setcover::is_cover(s, res.cover));
}

TEST(GreedySetCoverMr, RejectsBadEpsilon) {
  const SetSystem s(1, {{0}}, {1.0});
  EXPECT_DEATH((void)greedy_set_cover_mr(s, 0.0, test_params()),
               "epsilon");
}

}  // namespace
}  // namespace mrlr::core
