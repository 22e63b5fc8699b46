#include "mrlr/seq/local_ratio_matching.hpp"

#include "mrlr/util/require.hpp"

namespace mrlr::seq {

using graph::EdgeId;
using graph::VertexId;

MatchingLocalRatio::MatchingLocalRatio(const graph::Graph& g)
    : g_(g), phi_(g.num_vertices(), 0.0), stacked_(g.num_edges(), 0) {}

bool MatchingLocalRatio::process(EdgeId e) {
  if (!edge_alive(e)) return false;
  const graph::Edge& ed = g_.edge(e);
  const double gain = modified_weight(e);
  phi_[ed.u] += gain;
  phi_[ed.v] += gain;
  stacked_[e] = 1;
  stack_.push_back(e);
  return true;
}

MatchingResult MatchingLocalRatio::unwind() {
  MRLR_REQUIRE(!unwound_, "unwind() may be called once");
  unwound_ = true;
  MatchingResult res;
  res.stack_size = stack_.size();
  std::vector<char> used(g_.num_vertices(), 0);
  for (auto it = stack_.rbegin(); it != stack_.rend(); ++it) {
    const graph::Edge& ed = g_.edge(*it);
    if (!used[ed.u] && !used[ed.v]) {
      used[ed.u] = used[ed.v] = 1;
      res.edges.push_back(*it);
      res.weight += g_.weight(*it);
    }
  }
  return res;
}

MatchingResult local_ratio_matching(const graph::Graph& g,
                                    const std::vector<EdgeId>& order) {
  MatchingLocalRatio lr(g);
  if (order.empty()) {
    for (EdgeId e = 0; e < g.num_edges(); ++e) (void)lr.process(e);
  } else {
    for (const EdgeId e : order) (void)lr.process(e);
    // Positive-weight edges the order missed must still be processed for
    // the guarantee to hold (no positive edge may remain).
    for (EdgeId e = 0; e < g.num_edges(); ++e) (void)lr.process(e);
  }
  return lr.unwind();
}

}  // namespace mrlr::seq
