#include "mrlr/core/rlr_matching.hpp"

#include <algorithm>

#include "mrlr/mrc/lanes.hpp"
#include "mrlr/seq/local_ratio_matching.hpp"
#include "mrlr/util/math.hpp"
#include "mrlr/util/require.hpp"

namespace mrlr::core {

using graph::EdgeId;
using graph::VertexId;
using mrc::MachineContext;
using mrc::MachineId;
using mrc::Word;

RlrMatchingResult rlr_matching(const graph::Graph& g,
                               const MrParams& params) {
  const std::uint64_t n = g.num_vertices();
  const std::uint64_t m = g.num_edges();
  const std::uint64_t eta =
      std::max<std::uint64_t>(1, ipow_real(std::max<std::uint64_t>(n, 2),
                                           1.0 + params.mu));

  mrc::Topology topo;
  topo.num_machines = std::max<std::uint64_t>(1, ceil_div(std::max<std::uint64_t>(m, 1), eta));
  // Central words in one iteration: at most 8*eta sampled edges (the
  // Algorithm 4 fail threshold, scaled by sample_boost) at 2 words each,
  // or 4*|E_i| < 16*eta words in the ship-all endgame, plus one word per
  // sampled edge and one per vertex charged for the scan's index into
  // that inbox (an upper bound: the index itself is one word per
  // machine), plus the phi table (n words). slack/16 scales that
  // requirement (the default slack of 16 grants it exactly; smaller
  // slack under-provisions, which the failure-injection tests use to
  // prove the audit is live).
  topo.words_per_machine =
      static_cast<std::uint64_t>(
          (params.slack / 16.0) *
          (24.0 * std::max(1.0, params.sample_boost) *
               static_cast<double>(eta) +
           2.0 * static_cast<double>(n))) +
      64;
  topo.fanout = std::max<std::uint64_t>(2, ipow_real(n, params.mu, 2));
  topo.enforce = params.enforce_space;
  topo.num_threads = params.num_threads;
  topo.num_shards = std::max<std::uint64_t>(1, params.num_shards);
  mrc::Engine engine(topo);
  const std::uint64_t machines = topo.num_machines;

  // Central state: phi values + stack (Theorem 5.6). The central
  // machine is always coordinator-resident, so this stays a plain host
  // object under every backend.
  seq::MatchingLocalRatio lr(g);
  const std::uint64_t central_footprint = n + 2;

  // Edge e lives on owner_of(e); vertex v (and its adjacency list) on
  // owner_of(v). Footprints per machine (job-immutable).
  const FastOwnerOf owner(machines);
  std::vector<std::uint64_t> footprint(machines, 0);
  std::vector<std::uint64_t> owned_incidences(machines, 0);

  // Which end of its edge each incidence is (1 = the u end), so the
  // vertex-side rounds never look an edge up just to learn that. An
  // edge's two ends are numbered 2e + 1 (u) and 2e (v): per-end state
  // is indexed by end, and the rounds name an end, never a vertex.
  const std::vector<std::uint8_t> side = graph::incidence_sides(g);

  // Worker-resident per-machine state (the process-clean contract):
  // every slot below is mutated only by its owner machine's callbacks,
  // so a persistent worker keeps its shard's slots current across
  // rounds without ever reading coordinator memory.
  //
  // An edge is alive iff its modified weight w(e) - phi(u) - phi(v) is
  // positive: process() raises both endpoint phis by the (positive)
  // modified weight, so a stacked edge's modified weight is negative
  // forever after — aliveness is a pure function of phi. Edge owners
  // keep the two phi halves separately, per end (so the float
  // subtraction order matches MatchingLocalRatio::modified_weight
  // exactly), and notify the endpoint owners when an edge dies;
  // aliveness is monotone, so death notices are the only view updates
  // ever needed.
  std::vector<std::uint64_t> alive_cnt(machines, 0);  // owned alive edges
  std::vector<double> phi_end(2 * m, 0.0);  // edge-owner slots, per end
  std::vector<char> owner_alive(m, 0);      // edge-owner slots
  std::vector<char> end_alive(2 * m, 0);    // slot 2e + s: its vertex's owner
  for (EdgeId e = 0; e < m; ++e) {
    const MachineId o = owner(e);
    footprint[o] += 4;  // id + endpoints + weight
    ++alive_cnt[o];     // first-iteration count is all edges (historic)
    const char alive0 = g.weight(e) > 0.0 ? 1 : 0;  // == lr.edge_alive now
    owner_alive[e] = alive0;
    end_alive[2 * std::uint64_t{e}] = alive0;
    end_alive[2 * std::uint64_t{e} + 1] = alive0;
  }
  for (VertexId v = 0; v < n; ++v) {
    footprint[owner(v)] += 1 + g.degree(v);
    owned_incidences[owner(v)] += g.degree(v);
  }

  RlrMatchingResult res;
  Rng root_rng(params.seed);

  // --- Registered rounds: defined before the first invoke so worker
  // processes inherit the full registry at spawn. ---

  // Owned-alive count to central; also consumes the death notices the
  // previous iteration's recompute round addressed to vertex owners.
  // A notice names the dead edge's end at this machine's vertex.
  const mrc::RoundId r_count = engine.define_round(
      "count|Ei|", [&](MachineContext& ctx, std::span<const Word>) {
        ctx.charge_resident(footprint[ctx.id()] + 1);
        for (const mrc::MessageView msg : ctx.messages()) {
          for (const Word end : msg.payload) {
            MRLR_DEBUG_REQUIRE(end < 2 * m, "death notice names no edge end");
            end_alive[end] = 0;
          }
        }
        ctx.send(mrc::kCentral, {alive_cnt[ctx.id()]});
      });

  // Per-vertex sampling; ship (edge, weight) pairs to central. Every
  // owned vertex sends exactly one message (possibly empty) in
  // ascending vertex order, so the central machine can attribute
  // message i of sender s to vertex s + i*M without the vertex id on
  // the wire — empty frames carry zero payload words, so the engine's
  // word accounting is unchanged by the placeholders. All sample state
  // flows through the engine (no host-side side channels).
  const mrc::RoundId r_sample = engine.define_round(
      "sample", [&](MachineContext& ctx, std::span<const Word> ps) {
        const std::uint64_t iter = ps[0];
        const bool ship_all = ps[1] != 0;
        const double p = unpack_double(ps[2]);
        ctx.charge_resident(footprint[ctx.id()]);
        Rng rng = root_rng.stream((iter << 20) ^ ctx.id());
        // Room for every owned incidence, so the arena never regrows.
        ctx.reserve_outbox(2 * owned_incidences[ctx.id()]);
        for (VertexId v = static_cast<VertexId>(ctx.id()); v < n;
             v = static_cast<VertexId>(v + machines)) {
          mrc::MessageWriter msg = ctx.begin_message(mrc::kCentral);
          const std::uint8_t* at_u = side.data() + g.incidence_offset(v);
          for (const graph::Incidence& inc : g.neighbours(v)) {
            if (!end_alive[2 * std::uint64_t{inc.edge} + *at_u++]) continue;
            if (ship_all || rng.bernoulli(p)) {
              msg.push(inc.edge);
              msg.push(pack_double(g.weight(inc.edge)));
            }
          }
        }
      });

  // Vertex owners forward phi to incident edge owners, tagged with the
  // side so the edge owner knows which endpoint's half it is. Triples
  // travel one frame per edge owner; the receiver reads them by stride.
  // A counting pass sizes every frame, so each triple is written once,
  // straight into the arena.
  const mrc::RoundId r_forward_phi = engine.define_round(
      "forward-phi", [&](MachineContext& ctx, std::span<const Word>) {
        ctx.charge_resident(footprint[ctx.id()]);
        std::vector<std::uint64_t> words(machines, 0);
        for (const mrc::MessageView msg : ctx.messages()) {
          for (std::size_t k = 0; k + 1 < msg.payload.size(); k += 2) {
            const auto v = static_cast<VertexId>(msg.payload[k]);
            for (const graph::Incidence& inc : g.neighbours(v)) {
              words[owner(inc.edge)] += 3;
            }
          }
        }
        mrc::send_counted(ctx, words, [&](mrc::CountedLanes& out) {
          for (const mrc::MessageView msg : ctx.messages()) {
            for (std::size_t k = 0; k + 1 < msg.payload.size(); k += 2) {
              const auto v = static_cast<VertexId>(msg.payload[k]);
              const Word phi_w = msg.payload[k + 1];
              const std::uint8_t* at_u = side.data() + g.incidence_offset(v);
              for (const graph::Incidence& inc : g.neighbours(v)) {
                out.push(owner(inc.edge), {inc.edge, *at_u++, phi_w});
              }
            }
          }
        });
      });

  // Edge owners refresh their phi halves, recompute aliveness, update
  // their owned-alive count, and send death notices to the endpoint
  // owners (delivered into the next iteration's count round).
  const mrc::RoundId r_recompute = engine.define_round(
      "recompute-alive", [&](MachineContext& ctx, std::span<const Word>) {
        ctx.charge_resident(footprint[ctx.id()]);
        for (const mrc::MessageView msg : ctx.messages()) {
          for (std::size_t k = 0; k + 2 < msg.payload.size(); k += 3) {
            const Word end = 2 * msg.payload[k] + msg.payload[k + 1];
            MRLR_DEBUG_REQUIRE(end < 2 * m, "phi triple names no edge end");
            phi_end[end] = unpack_double(msg.payload[k + 2]);
          }
        }
        std::uint64_t count = 0;
        mrc::send_coalesced(ctx, [&](mrc::Lanes& out) {
          for (EdgeId e = static_cast<EdgeId>(ctx.id()); e < m;
               e = static_cast<EdgeId>(e + machines)) {
            const Word u_end = 2 * std::uint64_t{e} + 1;
            const double mw = g.weight(e) - phi_end[u_end] - phi_end[u_end - 1];
            const bool alive = mw > 0.0;
            if (alive) ++count;
            if (owner_alive[e] && !alive) {
              const graph::Edge& ed = g.edge(e);
              out.push(owner(ed.u), {u_end});
              out.push(owner(ed.v), {u_end - 1});
            }
            owner_alive[e] = alive ? 1 : 0;
          }
        });
        alive_cnt[ctx.id()] = count;
      });

  for (std::uint64_t iter = 0; iter < params.max_iterations; ++iter) {
    // --- 1. |E_i|: owned counts to central, summed centrally. ---
    engine.invoke_round(r_count, {iter});
    std::uint64_t ei = 0;
    engine.run_central_round("sum|Ei|", [&](MachineContext& ctx) {
      ctx.charge_resident(ctx.inbox_words() + 1);
      for (const mrc::MessageView msg : ctx.messages()) {
        for (const Word w : msg.payload) ei += w;
      }
    });
    if (ei == 0) break;
    ++res.outcome.iterations;

    const bool ship_all = ei < 4 * eta;
    const double p =
        ship_all ? 1.0
                 : std::min(1.0, params.sample_boost *
                                     static_cast<double>(eta) /
                                     static_cast<double>(ei));

    // --- 2. Per-vertex sampling. ---
    engine.invoke_round(
        r_sample,
        {iter, static_cast<Word>(ship_all ? 1 : 0), pack_double(p)});
    // Merged coordinator-side accounting: every sampled edge is exactly
    // one (id, weight) pair in the central inbox, identically under
    // every backend.
    const std::uint64_t total_sampled =
        engine.inbox_words(mrc::kCentral) / 2;

    if (!ship_all &&
        total_sampled > static_cast<std::uint64_t>(
                            8.0 * params.sample_boost *
                            static_cast<double>(eta))) {
      res.outcome.failed = true;
      break;
    }

    // --- 3. Central scan: heaviest alive sampled edge per vertex. ---
    engine.run_central_round("local-ratio", [&](MachineContext& ctx) {
      // Resident: phi table + stack, the inbox, and an upper bound on
      // the index into it (one word per sampled edge and one per vertex;
      // the index below is one word per machine). The bound is kept
      // because it feeds max_machine_words, and with it every hash.
      ctx.charge_resident(central_footprint + ctx.inbox_words() +
                          ctx.inbox_words() / 2 + n);
      // Messages arrive sender-major, and each sender's messages are its
      // owned vertices ascending, so vertex v's sample is message v / M
      // of sender v % M. first[s] is the inbox index of sender s's first
      // message; each vertex's (edge, weight) pairs are read in place, in
      // draw order.
      std::vector<std::size_t> first(machines + 1, 0);
      for (const mrc::MessageView msg : ctx.messages()) ++first[msg.from + 1];
      for (std::uint64_t s = 0; s < machines; ++s) first[s + 1] += first[s];
      for (VertexId v = 0; v < n; ++v) {
        const std::size_t at = first[v % machines] + v / machines;
        MRLR_DEBUG_REQUIRE(at < first[v % machines + 1],
                           "vertex without a sample message");
        const std::span<const Word> pairs = ctx.message(at).payload;
        EdgeId best = 0;
        double best_w = 0.0;
        bool found = false;
        for (std::size_t k = 0; k + 1 < pairs.size(); k += 2) {
          const auto e = static_cast<EdgeId>(pairs[k]);
          // The weight came with the sample. mw > best_w >= 0 already
          // means a positive modified weight, so edge_alive, checked
          // only for a new best, decides nothing but the stack.
          const double mw = lr.modified_weight(e, unpack_double(pairs[k + 1]));
          if (mw > best_w && lr.edge_alive(e)) {
            best = e;
            best_w = mw;
            found = true;
          }
        }
        if (found) (void)lr.process(best);
      }
    });

    // --- 4a. Central sends phi(v) to each vertex owner. ---
    engine.run_central_round("send-phi", [&](MachineContext& ctx) {
      ctx.charge_resident(central_footprint);
      mrc::send_coalesced(ctx, [&](mrc::Lanes& out) {
        for (VertexId v = 0; v < n; ++v) {
          out.push(owner(v), {v, pack_double(lr.phi(v))});
        }
      });
    });
    // --- 4b. Vertex owners forward phi to incident edge owners. ---
    engine.invoke_round(r_forward_phi);
    // --- 4c. Edge owners recompute aliveness and counts. ---
    engine.invoke_round(r_recompute);
  }

  res.stack_size = lr.stack_size();
  seq::MatchingResult unwound = lr.unwind();
  res.matching = std::move(unwound.edges);
  res.weight = unwound.weight;
  res.outcome.fill_from(engine.metrics());
  return res;
}

}  // namespace mrlr::core
