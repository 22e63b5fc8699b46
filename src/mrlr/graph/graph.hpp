#pragma once
// Graph representation shared by all algorithms.
//
// A Graph is an immutable simple undirected graph held as an edge list
// plus a CSR adjacency index (neighbour and incident-edge ids). Edge
// weights are optional; weight() on an unweighted graph returns 1.0, so
// unweighted problems are the uniform-weight special case throughout.

#include <cstdint>
#include <span>
#include <vector>

#include "mrlr/util/require.hpp"

namespace mrlr::graph {

using VertexId = std::uint32_t;
using EdgeId = std::uint32_t;

/// Largest admissible vertex count: ids are 32 bits, and generators and
/// file readers pack two of them into a 64-bit word (edge keys, .mgb
/// edge records), so every ingestion surface enforces n <= 2^32.
inline constexpr std::uint64_t kMaxVertexCount = 1ull << 32;

struct Edge {
  VertexId u = 0;
  VertexId v = 0;

  /// The endpoint that is not `x`. Requires x to be an endpoint: the
  /// precondition is checked in debug builds; a violation would
  /// otherwise silently return v, corrupting path walks.
  VertexId other(VertexId x) const {
    MRLR_DEBUG_REQUIRE(x == u || x == v, "Edge::other: x is not an endpoint");
    return x == u ? v : u;
  }
  bool has_endpoint(VertexId x) const { return x == u || x == v; }
  friend bool operator==(const Edge&, const Edge&) = default;
};

/// CSR adjacency entry: the neighbour reached and the id of the edge used.
struct Incidence {
  VertexId neighbour = 0;
  EdgeId edge = 0;
};

class Graph {
 public:
  /// Builds the graph and its adjacency index. Self-loops are rejected;
  /// parallel edges are permitted by the representation but the library's
  /// generators never produce them (validate::has_parallel_edges checks).
  Graph(std::uint64_t num_vertices, std::vector<Edge> edges);
  Graph(std::uint64_t num_vertices, std::vector<Edge> edges,
        std::vector<double> weights);

  std::uint64_t num_vertices() const { return n_; }
  std::uint64_t num_edges() const { return edges_.size(); }
  bool weighted() const { return !weights_.empty(); }

  const Edge& edge(EdgeId e) const { return edges_[e]; }
  const std::vector<Edge>& edges() const { return edges_; }

  /// Weight of edge e (1.0 when the graph is unweighted).
  double weight(EdgeId e) const {
    return weights_.empty() ? 1.0 : weights_[e];
  }
  const std::vector<double>& weights() const { return weights_; }

  std::uint64_t degree(VertexId v) const {
    return offsets_[v + 1] - offsets_[v];
  }

  /// Neighbours of v with the edge ids realizing them, in ascending
  /// edge id.
  std::span<const Incidence> neighbours(VertexId v) const {
    return {adj_.data() + offsets_[v], adj_.data() + offsets_[v + 1]};
  }

  /// Position of neighbours(v)[0] in the flat incidence order (all of
  /// vertex 0's incidences, then vertex 1's, ...), so per-incidence
  /// arrays of size 2m can be indexed as incidence_offset(v) + i.
  std::uint64_t incidence_offset(VertexId v) const { return offsets_[v]; }

  std::uint64_t max_degree() const { return max_degree_; }

  /// Total weight of all edges.
  double total_weight() const;

  /// A copy of this graph with the given edge weights attached.
  Graph with_weights(std::vector<double> weights) const;

 private:
  void build_index();

  std::uint64_t n_;
  std::vector<Edge> edges_;
  std::vector<double> weights_;
  std::vector<std::uint64_t> offsets_;  // size n_+1
  std::vector<Incidence> adj_;          // size 2m
  std::uint64_t max_degree_ = 0;
};

/// Per-incidence side byte in the flat incidence order: entry
/// incidence_offset(v) + i is 1 iff v is the `u` endpoint of
/// neighbours(v)[i].edge. Built in one pass over the edges in id order
/// (each vertex's list ascends by edge id), so it never reads edges at
/// random.
std::vector<std::uint8_t> incidence_sides(const Graph& g);

}  // namespace mrlr::graph
