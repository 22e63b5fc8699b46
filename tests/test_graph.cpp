// Tests for the graph substrate: representation, generators, validators,
// statistics, and I/O.

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <sstream>

#include "mrlr/graph/generators.hpp"
#include "mrlr/graph/graph.hpp"
#include "mrlr/graph/io.hpp"
#include "mrlr/graph/stats.hpp"
#include "mrlr/graph/validate.hpp"

namespace mrlr::graph {
namespace {

// ------------------------------------------------------ representation --

TEST(Graph, AdjacencyMatchesEdgeList) {
  Graph g(4, {{0, 1}, {0, 2}, {1, 2}, {2, 3}});
  EXPECT_EQ(g.num_vertices(), 4u);
  EXPECT_EQ(g.num_edges(), 4u);
  EXPECT_EQ(g.degree(0), 2u);
  EXPECT_EQ(g.degree(2), 3u);
  EXPECT_EQ(g.degree(3), 1u);
  EXPECT_EQ(g.max_degree(), 3u);

  std::set<VertexId> n2;
  for (const Incidence& inc : g.neighbours(2)) n2.insert(inc.neighbour);
  EXPECT_EQ(n2, (std::set<VertexId>{0, 1, 3}));
}

TEST(Graph, IncidenceEdgeIdsAreCorrect) {
  Graph g(3, {{0, 1}, {1, 2}});
  for (const Incidence& inc : g.neighbours(1)) {
    const Edge& e = g.edge(inc.edge);
    EXPECT_TRUE(e.has_endpoint(1));
    EXPECT_EQ(e.other(1), inc.neighbour);
  }
}

TEST(Graph, EdgeOtherEnforcesEndpointPrecondition) {
  Edge e{2, 5};
  EXPECT_EQ(e.other(2), 5u);
  EXPECT_EQ(e.other(5), 2u);
#ifndef NDEBUG
  // The precondition check is compiled out in Release; in debug builds a
  // non-endpoint must abort instead of silently returning v.
  EXPECT_DEATH((void)e.other(7), "not an endpoint");
#endif
}

TEST(Graph, UnweightedWeightIsOne) {
  Graph g(2, {{0, 1}});
  EXPECT_FALSE(g.weighted());
  EXPECT_DOUBLE_EQ(g.weight(0), 1.0);
  EXPECT_DOUBLE_EQ(g.total_weight(), 1.0);
}

TEST(Graph, WeightedAccessors) {
  Graph g(2, {{0, 1}}, {2.5});
  EXPECT_TRUE(g.weighted());
  EXPECT_DOUBLE_EQ(g.weight(0), 2.5);
  EXPECT_DOUBLE_EQ(g.total_weight(), 2.5);
}

TEST(Graph, WithWeightsCopies) {
  Graph g(3, {{0, 1}, {1, 2}});
  Graph w = g.with_weights({3.0, 4.0});
  EXPECT_DOUBLE_EQ(w.weight(1), 4.0);
  EXPECT_FALSE(g.weighted());
}

TEST(Graph, RejectsSelfLoop) {
  EXPECT_DEATH(Graph(2, {{1, 1}}), "self-loop");
}

TEST(Graph, RejectsOutOfRangeEndpoint) {
  EXPECT_DEATH(Graph(2, {{0, 5}}), "out of range");
}

TEST(Graph, EmptyGraph) {
  Graph g(0, {});
  EXPECT_EQ(g.num_vertices(), 0u);
  EXPECT_EQ(g.num_edges(), 0u);
  EXPECT_EQ(g.max_degree(), 0u);
}

// The per-incidence invariants the matching driver's vertex-side rounds
// rely on: lists ascend by edge id, and incidence_sides names each
// incidence's end exactly as the edge list does.
void expect_incidence_invariants(const Graph& g) {
  const std::vector<std::uint8_t> side = incidence_sides(g);
  ASSERT_EQ(side.size(), 2 * g.num_edges());
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    const std::span<const Incidence> nb = g.neighbours(v);
    for (std::size_t i = 0; i < nb.size(); ++i) {
      if (i > 0) {
        EXPECT_LT(nb[i - 1].edge, nb[i].edge) << "vertex " << v;
      }
      const bool at_u = g.edge(nb[i].edge).u == v;
      EXPECT_EQ(side[g.incidence_offset(v) + i], at_u ? 1 : 0)
          << "vertex " << v << " incidence " << i;
    }
  }
}

TEST(Graph, IncidenceSidesOnGeneratedGraphs) {
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    Rng rng(seed);
    expect_incidence_invariants(gnm(200, 1500, rng));
    expect_incidence_invariants(chung_lu_power_law(300, 1200, 2.5, rng));
  }
  expect_incidence_invariants(Graph(0, {}));
  expect_incidence_invariants(Graph(4, {}));
}

TEST(Graph, IncidenceSidesOnTextGraphWithBothOrientations) {
  // Edges written both as "u v" with u > v and with u < v, so a vertex
  // is the u end of some of its edges and the v end of others.
  std::stringstream ss("5 7\n3 0\n0 4\n4 3\n1 3\n2 1\n1 4\n0 2\n");
  const Graph g = read_edge_list(ss);
  ASSERT_EQ(g.num_edges(), 7u);
  EXPECT_EQ(g.edge(0), (Edge{3, 0}));
  EXPECT_EQ(g.edge(1), (Edge{0, 4}));
  expect_incidence_invariants(g);
}

// ----------------------------------------------------------- generators --

TEST(Generators, GnmExactEdgeCount) {
  Rng rng(1);
  for (std::uint64_t m : {0ull, 1ull, 10ull, 45ull}) {
    Graph g = gnm(10, m, rng);
    EXPECT_EQ(g.num_edges(), m);
    EXPECT_FALSE(has_parallel_edges(g));
  }
}

TEST(Generators, GnmDeterministicPerSeed) {
  Rng a(7), b(7);
  Graph g1 = gnm(50, 200, a);
  Graph g2 = gnm(50, 200, b);
  EXPECT_EQ(g1.edges(), g2.edges());
}

TEST(Generators, GnmDensityTargetsExponent) {
  Rng rng(2);
  Graph g = gnm_density(100, 0.4, rng);
  // m = 100^{1.4} ~ 631.
  EXPECT_NEAR(static_cast<double>(g.num_edges()), 631.0, 2.0);
}

TEST(Generators, GnmRejectsOverfull) {
  Rng rng(3);
  EXPECT_DEATH(gnm(4, 7, rng), "too many edges");
}

TEST(Generators, GnpEdgeCountConcentrates) {
  Rng rng(4);
  Graph g = gnp(200, 0.1, rng);
  const double expected = 0.1 * 200 * 199 / 2;
  EXPECT_NEAR(static_cast<double>(g.num_edges()), expected, 5 * std::sqrt(expected));
  EXPECT_FALSE(has_parallel_edges(g));
}

TEST(Generators, GnpExtremes) {
  Rng rng(5);
  EXPECT_EQ(gnp(20, 0.0, rng).num_edges(), 0u);
  EXPECT_EQ(gnp(20, 1.0, rng).num_edges(), 190u);
}

TEST(Generators, ChungLuApproximatesTargetEdges) {
  Rng rng(6);
  Graph g = chung_lu_power_law(500, 2000, 2.5, rng);
  EXPECT_GT(g.num_edges(), 1000u);
  EXPECT_LE(g.num_edges(), 2000u);
  EXPECT_FALSE(has_parallel_edges(g));
}

TEST(Generators, ChungLuIsHeavyTailed) {
  Rng rng(7);
  Graph g = chung_lu_power_law(2000, 8000, 2.2, rng);
  // Max degree should far exceed the average degree.
  const auto s = compute_stats(g);
  EXPECT_GT(static_cast<double>(s.max_degree), 4.0 * s.avg_degree);
}

TEST(Generators, BipartiteRespectsSides) {
  Rng rng(8);
  Graph g = random_bipartite(10, 15, 60, rng);
  EXPECT_EQ(g.num_vertices(), 25u);
  EXPECT_EQ(g.num_edges(), 60u);
  for (const Edge& e : g.edges()) {
    const bool u_left = e.u < 10;
    const bool v_left = e.v < 10;
    EXPECT_NE(u_left, v_left);
  }
}

TEST(Generators, CirculantIsRegular) {
  Graph g = circulant(11, 4);
  for (VertexId v = 0; v < 11; ++v) EXPECT_EQ(g.degree(v), 4u);
  EXPECT_FALSE(has_parallel_edges(g));
}

TEST(Generators, CompleteStarPathCycle) {
  EXPECT_EQ(complete(6).num_edges(), 15u);
  EXPECT_EQ(star(6).num_edges(), 5u);
  EXPECT_EQ(star(6).degree(0), 5u);
  EXPECT_EQ(path(6).num_edges(), 5u);
  Graph c = cycle(6);
  EXPECT_EQ(c.num_edges(), 6u);
  for (VertexId v = 0; v < 6; ++v) EXPECT_EQ(c.degree(v), 2u);
}

TEST(Generators, PlantedCliqueContainsClique) {
  Rng rng(9);
  Graph g = planted_clique(100, 300, 8, rng);
  EXPECT_FALSE(has_parallel_edges(g));
  // Some set of 8 vertices is fully connected; verify via degrees lower
  // bound: the planted members each have degree >= 7.
  std::uint64_t high_degree = 0;
  for (VertexId v = 0; v < 100; ++v) {
    if (g.degree(v) >= 7) ++high_degree;
  }
  EXPECT_GE(high_degree, 8u);
}

TEST(Generators, WeightDistributionsPositive) {
  Rng rng(10);
  Graph g = gnm(30, 100, rng);
  for (const WeightDist d :
       {WeightDist::kUniform, WeightDist::kExponential, WeightDist::kIntegral,
        WeightDist::kPolarized}) {
    const auto w = random_edge_weights(g, d, rng);
    ASSERT_EQ(w.size(), g.num_edges());
    for (const double x : w) EXPECT_GT(x, 0.0);
  }
  const auto vw = random_vertex_weights(30, WeightDist::kUniform, rng);
  EXPECT_EQ(vw.size(), 30u);
}

TEST(Generators, PolarizedHasBothModes) {
  Rng rng(11);
  Graph g = gnm(50, 500, rng);
  const auto w = random_edge_weights(g, WeightDist::kPolarized, rng);
  int low = 0, high = 0;
  for (const double x : w) {
    if (x < 10.0) ++low;
    if (x > 100.0) ++high;
  }
  EXPECT_GT(low, 0);
  EXPECT_GT(high, 0);
}

// ----------------------------------------------------------- validators --

TEST(Validate, Matching) {
  Graph g(4, {{0, 1}, {1, 2}, {2, 3}});
  EXPECT_TRUE(is_matching(g, {0, 2}));
  EXPECT_FALSE(is_matching(g, {0, 1}));  // share vertex 1
  EXPECT_TRUE(is_matching(g, {}));
  EXPECT_FALSE(is_matching(g, {9}));  // bad id
}

TEST(Validate, MaximalMatching) {
  Graph g(4, {{0, 1}, {1, 2}, {2, 3}});
  EXPECT_TRUE(is_maximal_matching(g, {0, 2}));
  EXPECT_FALSE(is_maximal_matching(g, {}));
}

TEST(Validate, MaximalMatchingMiddleEdge) {
  // Path 0-1-2-3: the middle edge alone IS maximal.
  Graph g(4, {{0, 1}, {1, 2}, {2, 3}});
  EXPECT_TRUE(is_matching(g, {1}));
  // Edges {0,1} and {2,3} have endpoints 0 and 3 free... {0,1}: vertex 1
  // is used, so it cannot be added; {2,3}: vertex 2 is used. So maximal.
  EXPECT_TRUE(is_maximal_matching(g, {1}));
}

TEST(Validate, BMatching) {
  Graph g(3, {{0, 1}, {1, 2}, {0, 2}});
  const std::vector<std::uint32_t> b{1, 2, 1};
  EXPECT_TRUE(is_b_matching(g, {0, 1}, b));   // vertex 1 used twice, b=2
  EXPECT_FALSE(is_b_matching(g, {0, 2}, b));  // vertex 0 used twice, b=1
  EXPECT_FALSE(is_b_matching(g, {0, 0}, b));  // duplicate edge
}

TEST(Validate, MatchingWeight) {
  Graph g(4, {{0, 1}, {2, 3}}, {2.0, 3.5});
  EXPECT_DOUBLE_EQ(matching_weight(g, {0, 1}), 5.5);
}

TEST(Validate, IndependentSet) {
  Graph g(4, {{0, 1}, {1, 2}, {2, 3}});
  EXPECT_TRUE(is_independent_set(g, {0, 2}));
  EXPECT_FALSE(is_independent_set(g, {0, 1}));
  EXPECT_TRUE(is_maximal_independent_set(g, {0, 2}));
  EXPECT_FALSE(is_maximal_independent_set(g, {1}));  // 3 uncovered
  EXPECT_TRUE(is_maximal_independent_set(g, {1, 3}));
}

TEST(Validate, Clique) {
  Graph g(4, {{0, 1}, {0, 2}, {1, 2}, {2, 3}});
  EXPECT_TRUE(is_clique(g, {0, 1, 2}));
  EXPECT_FALSE(is_clique(g, {0, 1, 3}));
  EXPECT_TRUE(is_maximal_clique(g, {0, 1, 2}));
  EXPECT_FALSE(is_maximal_clique(g, {0, 1}));  // extendable by 2
  EXPECT_TRUE(is_maximal_clique(g, {2, 3}));
}

TEST(Validate, VertexCover) {
  Graph g(4, {{0, 1}, {1, 2}, {2, 3}});
  EXPECT_TRUE(is_vertex_cover(g, {1, 2}));
  EXPECT_FALSE(is_vertex_cover(g, {0, 3}));
  EXPECT_DOUBLE_EQ(vertex_set_weight({1, 2, 3, 4}, {1, 2}), 5.0);
}

TEST(Validate, VertexColouring) {
  Graph g(3, {{0, 1}, {1, 2}});
  EXPECT_TRUE(is_proper_vertex_colouring(g, {0, 1, 0}));
  EXPECT_FALSE(is_proper_vertex_colouring(g, {0, 0, 1}));
  EXPECT_FALSE(is_proper_vertex_colouring(g, {0, 1}));  // wrong size
  EXPECT_EQ(num_colours({0, 1, 0, 2}), 3u);
}

TEST(Validate, EdgeColouring) {
  Graph g(3, {{0, 1}, {1, 2}});
  EXPECT_TRUE(is_proper_edge_colouring(g, {0, 1}));
  EXPECT_FALSE(is_proper_edge_colouring(g, {0, 0}));  // share vertex 1
}

TEST(Validate, ParallelEdges) {
  Graph g(3, {{0, 1}, {1, 0}});
  EXPECT_TRUE(has_parallel_edges(g));
  Graph h(3, {{0, 1}, {1, 2}});
  EXPECT_FALSE(has_parallel_edges(h));
}

// ---------------------------------------------------------------- stats --

TEST(Stats, ComputeStats) {
  Rng rng(12);
  Graph g = gnm(100, 1000, rng);
  const auto s = compute_stats(g);
  EXPECT_EQ(s.n, 100u);
  EXPECT_EQ(s.m, 1000u);
  EXPECT_DOUBLE_EQ(s.avg_degree, 20.0);
  EXPECT_NEAR(s.density_exponent, 0.5, 0.01);
}

TEST(Stats, ConnectedComponents) {
  Graph g(6, {{0, 1}, {1, 2}, {3, 4}});
  EXPECT_EQ(connected_components(g), 3u);  // {0,1,2}, {3,4}, {5}
  EXPECT_EQ(connected_components(complete(5)), 1u);
  EXPECT_EQ(connected_components(Graph(4, {})), 4u);
}

// ------------------------------------------------------------------- io --

TEST(Io, RoundTripUnweighted) {
  Rng rng(13);
  Graph g = gnm(20, 50, rng);
  std::stringstream ss;
  write_edge_list(g, ss);
  Graph h = read_edge_list(ss);
  EXPECT_EQ(h.num_vertices(), g.num_vertices());
  EXPECT_EQ(h.edges(), g.edges());
  EXPECT_FALSE(h.weighted());
}

TEST(Io, RoundTripWeighted) {
  Graph g(3, {{0, 1}, {1, 2}}, {1.5, 2.25});
  std::stringstream ss;
  write_edge_list(g, ss);
  Graph h = read_edge_list(ss);
  ASSERT_TRUE(h.weighted());
  EXPECT_DOUBLE_EQ(h.weight(0), 1.5);
  EXPECT_DOUBLE_EQ(h.weight(1), 2.25);
}

TEST(Io, SkipsComments) {
  std::stringstream ss("# a comment\n3 1\n# another\n0 2\n");
  Graph g = read_edge_list(ss);
  EXPECT_EQ(g.num_edges(), 1u);
  EXPECT_EQ(g.edge(0), (Edge{0, 2}));
}

}  // namespace
}  // namespace mrlr::graph
