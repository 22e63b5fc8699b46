// Integration tests: run the full algorithm portfolio on shared
// instances, check cross-algorithm consistency, space-cap discipline
// under enforcement, and the failure-injection paths.

#include <gtest/gtest.h>

#include <cmath>

#include "mrlr/baselines/filtering_matching.hpp"
#include "mrlr/baselines/filtering_vertex_cover.hpp"
#include "mrlr/baselines/luby_colouring_mr.hpp"
#include "mrlr/core/colouring.hpp"
#include "mrlr/core/greedy_setcover_mr.hpp"
#include "mrlr/core/hungry_clique.hpp"
#include "mrlr/core/hungry_mis.hpp"
#include "mrlr/core/rlr_bmatching.hpp"
#include "mrlr/core/rlr_matching.hpp"
#include "mrlr/core/rlr_setcover.hpp"
#include "mrlr/graph/generators.hpp"
#include "mrlr/graph/stats.hpp"
#include "mrlr/graph/validate.hpp"
#include "mrlr/obs/telemetry.hpp"
#include "mrlr/seq/greedy_setcover.hpp"
#include "mrlr/seq/local_ratio_matching.hpp"
#include "mrlr/seq/local_ratio_setcover.hpp"
#include "mrlr/setcover/generators.hpp"
#include "mrlr/setcover/validate.hpp"
#include "mrlr/util/math.hpp"

namespace mrlr {
namespace {

using graph::Graph;

core::MrParams params_for(std::uint64_t seed, double mu = 0.25) {
  core::MrParams p;
  p.mu = mu;
  p.seed = seed;
  p.max_iterations = 2000;
  return p;
}

/// One shared social-network-like instance exercised by everything.
struct SharedInstance {
  Graph g;
  std::vector<double> vertex_weights;

  static SharedInstance make(std::uint64_t seed) {
    Rng rng(seed);
    Graph base = graph::chung_lu_power_law(300, 2500, 2.4, rng);
    Graph weighted = base.with_weights(graph::random_edge_weights(
        base, graph::WeightDist::kExponential, rng));
    return SharedInstance{
        std::move(weighted),
        graph::random_vertex_weights(300, graph::WeightDist::kUniform, rng)};
  }
};

TEST(Integration, FullPortfolioOnSharedGraph) {
  const auto inst = SharedInstance::make(101);
  const auto& g = inst.g;

  const auto vc = core::rlr_vertex_cover(g, inst.vertex_weights,
                                         params_for(1));
  EXPECT_FALSE(vc.outcome.failed);
  EXPECT_TRUE(graph::is_vertex_cover(g, vc.cover));

  const auto mwm = core::rlr_matching(g, params_for(2));
  EXPECT_FALSE(mwm.outcome.failed);
  EXPECT_TRUE(graph::is_matching(g, mwm.matching));

  std::vector<std::uint32_t> b(g.num_vertices(), 2);
  const auto bm = core::rlr_b_matching(g, b, 0.25, params_for(3));
  EXPECT_FALSE(bm.outcome.failed);
  EXPECT_TRUE(graph::is_b_matching(g, bm.matching, b));
  // Relaxing the constraint must help: the b-matching outweighs the
  // 1-matching up to sampling noise.
  EXPECT_GE(bm.weight, mwm.weight * 0.9);

  const auto mis = core::hungry_mis_improved(g, params_for(4));
  EXPECT_TRUE(graph::is_maximal_independent_set(g, mis.independent_set));

  const auto clique = core::hungry_clique(g, params_for(5));
  EXPECT_TRUE(graph::is_maximal_clique(g, clique.clique));

  const auto vcol = core::mr_vertex_colouring(g, params_for(6));
  EXPECT_FALSE(vcol.failed);
  EXPECT_TRUE(graph::is_proper_vertex_colouring(g, vcol.colour));

  const auto ecol = core::mr_edge_colouring(g, params_for(7));
  EXPECT_FALSE(ecol.failed);
  EXPECT_TRUE(graph::is_proper_edge_colouring(g, ecol.colour));
}

TEST(Integration, VertexCoverGeneralAndFastPathAgreeOnGuarantee) {
  // rlr_set_cover on the vertex cover instance and the f=2 fast path
  // carry the same 2-approximation; both must satisfy it on the same
  // instance (not necessarily with the same cover).
  Rng rng(7);
  const Graph g = graph::gnm(80, 600, rng);
  const auto w =
      graph::random_vertex_weights(80, graph::WeightDist::kUniform, rng);
  const auto sys = setcover::SetSystem::vertex_cover_instance(g, w);

  const auto general = core::rlr_set_cover(sys, params_for(1));
  const auto fast = core::rlr_vertex_cover(g, w, params_for(1));
  ASSERT_FALSE(general.outcome.failed);
  ASSERT_FALSE(fast.outcome.failed);
  EXPECT_TRUE(setcover::is_cover(sys, general.cover));
  EXPECT_TRUE(graph::is_vertex_cover(g, fast.cover));
  EXPECT_LE(general.weight, 2.0 * general.lower_bound + 1e-9);
  EXPECT_LE(fast.weight, 2.0 * fast.lower_bound + 1e-9);
  // And their certified lower bounds bound each other's cover weight.
  EXPECT_GE(2.0 * general.lower_bound + 1e-9, fast.lower_bound);
}

TEST(Integration, RlrMatchingBeatsFilteringOnPolarizedWeights) {
  // Figure 1's "who wins": ratio-2 weighted RLR vs the layered filtering
  // baseline. On polarized weights RLR must not lose badly (it should
  // usually win; assert it is at least competitive).
  Rng rng(8);
  Graph g = graph::gnm(200, 3000, rng);
  g = g.with_weights(
      graph::random_edge_weights(g, graph::WeightDist::kPolarized, rng));
  const auto rlr = core::rlr_matching(g, params_for(1));
  const auto filt = baselines::filtering_weighted_matching(g, params_for(1));
  ASSERT_FALSE(rlr.outcome.failed);
  EXPECT_GE(rlr.weight, 0.8 * filt.weight);
}

TEST(Integration, UnweightedFilteringIgnoresWeights) {
  // Sanity check of the comparison: unweighted filtering on polarized
  // weights leaves weight on the table relative to RLR.
  Rng rng(9);
  Graph g = graph::gnm(200, 3000, rng);
  g = g.with_weights(
      graph::random_edge_weights(g, graph::WeightDist::kPolarized, rng));
  const auto rlr = core::rlr_matching(g, params_for(2));
  const auto filt = baselines::filtering_matching(g, params_for(2));
  ASSERT_FALSE(rlr.outcome.failed);
  // RLR should capture clearly more weight on this distribution.
  EXPECT_GT(rlr.weight, filt.weight);
}

TEST(Integration, MrSetCoverQualityTracksSequential) {
  Rng rng(10);
  const auto sys = setcover::bounded_frequency(
      150, 1200, 3, graph::WeightDist::kUniform, rng);
  const auto mr = core::rlr_set_cover(sys, params_for(3));
  const auto sq = seq::local_ratio_set_cover(sys);
  ASSERT_FALSE(mr.outcome.failed);
  ASSERT_TRUE(setcover::is_cover(sys, mr.cover));
  // Same guarantee; empirically within a factor 2 of each other.
  EXPECT_LE(mr.weight, 2.0 * sq.weight + 1e-9);
  EXPECT_LE(sq.weight, 2.0 * mr.weight + 1e-9);
}

TEST(Integration, SpaceEnforcementTripsWhenCapTooSmall) {
  // Shrink the slack drastically: the algorithms must hit the audited
  // cap and throw (proving the audit is live, not decorative).
  Rng rng(11);
  Graph g = graph::gnm_density(200, 0.5, rng);
  g = g.with_weights(
      graph::random_edge_weights(g, graph::WeightDist::kUniform, rng));
  core::MrParams p = params_for(1);
  p.slack = 1e-3;
  EXPECT_THROW((void)core::rlr_matching(g, p), mrc::SpaceLimitExceeded);
}

TEST(Integration, SpaceViolationsRecordedWhenNotEnforced) {
  Rng rng(12);
  Graph g = graph::gnm_density(200, 0.5, rng);
  core::MrParams p = params_for(1);
  p.slack = 1e-3;
  p.enforce_space = false;
  const auto res = core::rlr_matching(g, p);
  EXPECT_GT(res.outcome.space_violations, 0u);
}

TEST(Integration, SampleBoostAblationStillCorrect) {
  // DESIGN.md ablation: changing the sampling constant must not affect
  // correctness, only round counts.
  Rng rng(13);
  Graph g = graph::gnm(150, 2000, rng);
  g = g.with_weights(
      graph::random_edge_weights(g, graph::WeightDist::kUniform, rng));
  for (const double boost : {0.25, 1.0, 4.0}) {
    core::MrParams p = params_for(3);
    p.sample_boost = boost;
    const auto res = core::rlr_matching(g, p);
    ASSERT_FALSE(res.outcome.failed) << "boost=" << boost;
    EXPECT_TRUE(graph::is_matching(g, res.matching));
  }
}

TEST(Integration, BiggerSampleFewerIterations) {
  Rng rng(14);
  Graph g = graph::gnm_density(300, 0.5, rng);
  g = g.with_weights(
      graph::random_edge_weights(g, graph::WeightDist::kUniform, rng));
  core::MrParams small = params_for(4);
  small.sample_boost = 0.25;
  core::MrParams big = params_for(4);
  big.sample_boost = 4.0;
  const auto rs = core::rlr_matching(g, small);
  const auto rb = core::rlr_matching(g, big);
  ASSERT_FALSE(rs.outcome.failed);
  ASSERT_FALSE(rb.outcome.failed);
  EXPECT_LE(rb.outcome.iterations, rs.outcome.iterations);
}

TEST(Integration, BipartiteAdAuctionScenario) {
  // Weighted b-matching on a bipartite graph: advertisers (left, b=3)
  // vs slots (right, b=1). Checks capacities are respected per side.
  Rng rng(15);
  Graph g = graph::random_bipartite(40, 120, 800, rng);
  g = g.with_weights(
      graph::random_edge_weights(g, graph::WeightDist::kExponential, rng));
  std::vector<std::uint32_t> b(g.num_vertices(), 1);
  for (int i = 0; i < 40; ++i) b[i] = 3;
  const auto res = core::rlr_b_matching(g, b, 0.2, params_for(5));
  ASSERT_FALSE(res.outcome.failed);
  EXPECT_TRUE(graph::is_b_matching(g, res.matching, b));
}

TEST(Integration, MetricsAreInternallyConsistent) {
  Rng rng(16);
  Graph g = graph::gnm(150, 1500, rng);
  g = g.with_weights(
      graph::random_edge_weights(g, graph::WeightDist::kUniform, rng));
  const auto res = core::rlr_matching(g, params_for(6));
  EXPECT_GT(res.outcome.rounds, res.outcome.iterations);
  EXPECT_GE(res.outcome.max_machine_words, 1u);
  EXPECT_GE(res.outcome.total_communication, res.outcome.max_central_inbox);
}

TEST(Integration, DensityExponentDrivenTopology) {
  // The engine's machine count should scale with m/eta: denser graphs
  // get more machines, and max_machine_words stays within the cap
  // (violations == 0 under enforcement implies this, but check the
  // recorded value explicitly against the theoretical cap form).
  Rng rng(17);
  for (const double c : {0.2, 0.4}) {
    Graph g = graph::gnm_density(250, c, rng);
    g = g.with_weights(
        graph::random_edge_weights(g, graph::WeightDist::kUniform, rng));
    const auto res = core::rlr_matching(g, params_for(7));
    ASSERT_FALSE(res.outcome.failed);
    // (16 + slack) * n^{1+mu} + n + pad: the rlr_matching cap formula.
    const double cap = 32.0 * std::pow(250.0, 1.25) + 250.0 + 64.0;
    EXPECT_LE(static_cast<double>(res.outcome.max_machine_words), cap);
  }
}

// Frames the engine merged over one run (the mrc.frames counter).
template <typename Run>
std::uint64_t frames_of(Run&& run) {
  obs::Telemetry& t = obs::Telemetry::instance();
  t.enable();
  run();
  t.disable();
  const auto counters = t.snapshot().counters;
  const auto it = counters.find("mrc.frames");
  return it == counters.end() ? 0 : it->second;
}

TEST(Integration, MatchingRecordRoundsSendOneFramePerDestination) {
  // m >> n on M = 3 machines. The per-vertex sample round may send n
  // frames per iteration; every other round at most one frame per
  // (sender, destination). One frame per record in forward-phi, in the
  // death notices or in send-phi would break the bound.
  const std::uint64_t n = 100;
  const std::uint64_t m = 3000;
  Rng rng(21);
  Graph g = graph::gnm(n, m, rng);
  g = g.with_weights(
      graph::random_edge_weights(g, graph::WeightDist::kUniform, rng));
  const core::MrParams p = params_for(5, 0.5);
  const std::uint64_t machines = ceil_div(m, ipow_real(n, 1.0 + p.mu));
  ASSERT_EQ(machines, 3u);
  const auto bound = [&](const core::MrOutcome& o) {
    return n * o.iterations + o.rounds * machines * machines;
  };

  core::RlrMatchingResult rm;
  const std::uint64_t matching_frames =
      frames_of([&] { rm = core::rlr_matching(g, p); });
  ASSERT_FALSE(rm.outcome.failed);
  EXPECT_GT(matching_frames, 0u);
  EXPECT_LE(matching_frames, bound(rm.outcome));

  core::RlrBMatchingResult rb;
  const std::vector<std::uint32_t> b(n, 2);
  const std::uint64_t bmatching_frames =
      frames_of([&] { rb = core::rlr_b_matching(g, b, 0.2, p); });
  ASSERT_FALSE(rb.outcome.failed);
  EXPECT_GT(bmatching_frames, 0u);
  EXPECT_LE(bmatching_frames, bound(rb.outcome));

  // The count includes the frames workers keep, so it does not depend
  // on the backend.
  core::MrParams sharded = p;
  sharded.num_shards = 2;
  EXPECT_EQ(frames_of([&] { (void)core::rlr_matching(g, sharded); }),
            matching_frames);
}

TEST(Integration, RecordShufflesSendOneFramePerDestination) {
  // m >> n on few machines: apart from the rounds that send one frame
  // per sampled item, a round sends at most one frame per (sender,
  // destination). One frame per record in vertex cover's notify rounds,
  // hungry clique's exchange-sigma, Luby's proposals or the edge-group
  // shipping would break these bounds. (Clique's send-sigma is not
  // pinned: its n records per relabel fit the n frames per iteration
  // allowed for the per-vertex sample rounds.)
  const std::uint64_t n = 100;
  Rng rng(31);
  const Graph g = graph::gnm(n, 3000, rng);
  const core::MrParams p = params_for(3, 0.5);
  const std::uint64_t machines =
      ceil_div(g.num_edges(), ipow_real(n, 1.0 + p.mu));
  ASSERT_EQ(machines, 3u);
  const std::uint64_t per_round = machines * machines;

  core::RlrVertexCoverResult vc;
  const std::vector<double> w(n, 1.0);
  const std::uint64_t vc_frames =
      frames_of([&] { vc = core::rlr_vertex_cover(g, w, p); });
  std::uint64_t sampled = 0;
  for (const std::uint64_t s : vc.sample_sizes) sampled += s;
  EXPECT_LE(vc_frames, sampled + vc.outcome.rounds * per_round);

  core::HungryCliqueResult clique;
  const std::uint64_t clique_frames =
      frames_of([&] { clique = core::hungry_clique(g, p); });
  EXPECT_LE(clique_frames, n * (clique.outcome.iterations + 1) +
                               clique.outcome.rounds * per_round);

  baselines::LubyColouringResult luby;
  const std::uint64_t luby_frames =
      frames_of([&] { luby = baselines::luby_colouring_mr(g, p); });
  EXPECT_LE(luby_frames, luby.outcome.rounds * per_round);

  core::ColouringResult edges;
  const std::uint64_t edge_frames =
      frames_of([&] { edges = core::mr_edge_colouring(g, p); });
  ASSERT_FALSE(edges.failed);
  EXPECT_LE(edge_frames, edges.outcome.rounds * edges.groups * edges.groups);
}

}  // namespace
}  // namespace mrlr
