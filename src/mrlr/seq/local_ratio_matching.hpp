#pragma once
// Sequential local ratio for maximum weight matching
// (Paz & Schwartzman; Theorem 5.1 in the paper).
//
// Edges are processed in arbitrary order. Processing edge e = {u, v} with
// positive *modified* weight g = w(e) - phi(u) - phi(v) raises phi(u) and
// phi(v) by g and pushes e on a stack; at the end the stack is unwound,
// adding edges greedily (newest first). The result is a 1/2-approximate
// maximum weight matching for any processing order — again the
// order-freedom the randomized version exploits.
//
// phi(v) is the paper's bookkeeping from Theorem 5.6: the total weight
// reduction applied to edges incident to v, so the modified weight of any
// unstacked edge is w(e) - phi(u) - phi(v) without storing per-edge
// residuals.

#include <cstdint>
#include <vector>

#include "mrlr/graph/graph.hpp"

namespace mrlr::seq {

struct MatchingResult {
  std::vector<graph::EdgeId> edges;
  double weight = 0.0;
  std::uint64_t stack_size = 0;  ///< stack depth before unwinding
};

class MatchingLocalRatio {
 public:
  explicit MatchingLocalRatio(const graph::Graph& g);

  /// Modified (residual) weight of e. Inline, like edge_alive, because
  /// the central scans call both per sampled edge.
  double modified_weight(graph::EdgeId e) const {
    return modified_weight(e, g_.weight(e));
  }

  /// As above, given w = the weight of e (bit-equal to g.weight(e)), as
  /// when the weight travelled with e in a message: the same
  /// subtraction in the same order, without the weight lookup.
  double modified_weight(graph::EdgeId e, double w) const {
    const graph::Edge& ed = g_.edge(e);
    return w - phi_[ed.u] - phi_[ed.v];
  }

  /// True if e has positive modified weight and is not on the stack;
  /// such edges are the paper's E_i at any point in time.
  bool edge_alive(graph::EdgeId e) const {
    return !stacked_[e] && modified_weight(e) > 0.0;
  }

  /// Process e: if alive, apply the weight reduction and stack it.
  /// Returns true if the edge was stacked.
  bool process(graph::EdgeId e);

  double phi(graph::VertexId v) const { return phi_[v]; }

  std::uint64_t stack_size() const { return stack_.size(); }

  /// Unwind the stack greedily into a matching. May be called once.
  MatchingResult unwind();

 private:
  const graph::Graph& g_;
  std::vector<double> phi_;
  std::vector<char> stacked_;
  std::vector<graph::EdgeId> stack_;
  bool unwound_ = false;
};

/// Full sequential algorithm with the given edge order (default: edge id
/// order). Always 1/2-approximate.
MatchingResult local_ratio_matching(
    const graph::Graph& g, const std::vector<graph::EdgeId>& order = {});

}  // namespace mrlr::seq
