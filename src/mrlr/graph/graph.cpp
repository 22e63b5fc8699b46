#include "mrlr/graph/graph.hpp"

#include <algorithm>

#include "mrlr/util/require.hpp"

namespace mrlr::graph {

Graph::Graph(std::uint64_t num_vertices, std::vector<Edge> edges)
    : n_(num_vertices), edges_(std::move(edges)) {
  build_index();
}

Graph::Graph(std::uint64_t num_vertices, std::vector<Edge> edges,
             std::vector<double> weights)
    : n_(num_vertices), edges_(std::move(edges)), weights_(std::move(weights)) {
  MRLR_REQUIRE(weights_.empty() || weights_.size() == edges_.size(),
               "weight vector must match edge count");
  build_index();
}

void Graph::build_index() {
  offsets_.assign(n_ + 1, 0);
  for (const Edge& e : edges_) {
    MRLR_REQUIRE(e.u < n_ && e.v < n_, "edge endpoint out of range");
    MRLR_REQUIRE(e.u != e.v, "self-loops are not supported");
    ++offsets_[e.u + 1];
    ++offsets_[e.v + 1];
  }
  for (std::uint64_t v = 0; v < n_; ++v) offsets_[v + 1] += offsets_[v];
  adj_.resize(2 * edges_.size());
  // Edges in id order, so each vertex's list ascends by edge id
  // (incidence_sides relies on it).
  std::vector<std::uint64_t> cursor(offsets_.begin(), offsets_.end() - 1);
  for (EdgeId e = 0; e < edges_.size(); ++e) {
    const Edge& ed = edges_[e];
    adj_[cursor[ed.u]++] = Incidence{ed.v, e};
    adj_[cursor[ed.v]++] = Incidence{ed.u, e};
  }
  max_degree_ = 0;
  for (std::uint64_t v = 0; v < n_; ++v) {
    max_degree_ = std::max(max_degree_, degree(static_cast<VertexId>(v)));
  }
}

std::vector<std::uint8_t> incidence_sides(const Graph& g) {
  std::vector<std::uint8_t> side(2 * g.num_edges());
  std::vector<std::uint64_t> cursor(g.num_vertices());
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    cursor[v] = g.incidence_offset(v);
  }
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    const Edge& ed = g.edge(e);
    side[cursor[ed.u]++] = 1;
    side[cursor[ed.v]++] = 0;
  }
  return side;
}

double Graph::total_weight() const {
  double s = 0.0;
  for (EdgeId e = 0; e < edges_.size(); ++e) s += weight(e);
  return s;
}

Graph Graph::with_weights(std::vector<double> weights) const {
  return Graph(n_, edges_, std::move(weights));
}

}  // namespace mrlr::graph
