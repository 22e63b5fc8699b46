#pragma once
// Randomized local ratio for minimum weight set cover — Algorithm 1,
// Theorem 2.3, and the MapReduce schedule of Theorem 2.4.
//
// Outline (per outer iteration r):
//   1. all machines count their active elements -> |U_r| (allreduce);
//   2. each active element joins the sample U' independently with
//      probability p = min(1, 2*eta / |U_r|), eta = n^{1+mu}; sampled
//      elements ship their dual sets T_j to the central machine
//      (fail if |U'| > 6*eta);
//   3. the central machine runs the sequential local ratio method on the
//      sample, extending its persistent residual-weight state; sets whose
//      residual reaches zero join the cover C;
//   4. the newly covered set ids are broadcast down a fanout-n^mu tree;
//      every machine deactivates its elements intersecting C.
// The loop ends when no active element remains; Theorem 2.3 shows
// ceil(c/mu) iterations suffice w.h.p., and the cover is f-approximate
// because Algorithm 1 is an instantiation of the sequential method with
// a randomized processing order.
//
// The f = 2 case (weighted vertex cover) replaces the tree broadcast by
// two direct forwarding rounds (central -> set owner -> element owners),
// which is what drops the round bound from O((c/mu)^2) to O(c/mu).

#include <cstdint>
#include <vector>

#include "mrlr/core/params.hpp"
#include "mrlr/graph/graph.hpp"
#include "mrlr/setcover/set_system.hpp"

namespace mrlr::core {

struct RlrSetCoverResult {
  std::vector<setcover::SetId> cover;
  double weight = 0.0;
  double lower_bound = 0.0;  ///< local ratio certificate: OPT >= this
  /// |U'| of each sample round, read as the central inbox_size (one
  /// frame per sampled element) and compared against the 6*eta cap.
  std::vector<std::uint64_t> sample_sizes;
  MrOutcome outcome;
};

/// General-f algorithm (Theorem 2.4, O((c/mu)^2) rounds).
RlrSetCoverResult rlr_set_cover(const setcover::SetSystem& sys,
                                const MrParams& params);

struct RlrVertexCoverResult {
  std::vector<graph::VertexId> cover;
  double weight = 0.0;
  double lower_bound = 0.0;
  /// Sampled edges of each sample round (the central inbox_size).
  std::vector<std::uint64_t> sample_sizes;
  MrOutcome outcome;
};

/// f = 2 specialization for weighted vertex cover (Theorem 2.4,
/// O(c/mu) rounds via direct bit forwarding).
RlrVertexCoverResult rlr_vertex_cover(const graph::Graph& g,
                                      const std::vector<double>& weights,
                                      const MrParams& params);

}  // namespace mrlr::core
