#pragma once
// Shared parameters and small communication helpers for the paper's
// MapReduce algorithms.

#include <bit>
#include <cstdint>
#include <vector>

#include "mrlr/mrc/broadcast.hpp"
#include "mrlr/mrc/engine.hpp"
#include "mrlr/util/require.hpp"
#include "mrlr/util/rng.hpp"

namespace mrlr::core {

/// Knobs common to all algorithms. The paper's conventions:
///   * mu — space exponent: machines have ~n^{1+mu} words;
///   * c  — density exponent: the input has ~n^{1+c} items. When
///     negative, it is derived from the instance (m = n^{1+c});
///   * slack — constant factor absorbed by the O(n^{1+mu}) space bound
///     (Algorithm 1 needs 6*eta for its sample, Algorithm 4 needs 8*eta).
struct MrParams {
  double mu = 0.2;
  double c = -1.0;
  std::uint64_t seed = 1;
  double slack = 16.0;
  /// Safety valve for tests: abort the algorithm (failed=true) if it has
  /// not converged after this many outer iterations.
  std::uint64_t max_iterations = 10000;
  /// When false, the engine records space violations instead of throwing.
  bool enforce_space = true;
  /// Execution backend, forwarded to Topology::num_threads: 1 = serial,
  /// N > 1 = persistent N-thread pool, 0 = pool sized to the hardware.
  /// Results are byte-identical at any setting; only wall-clock changes.
  std::uint64_t num_threads = 1;
  /// Process-sharded backend, forwarded to Topology::num_shards by
  /// every driver (all are process-clean; see the contract on the peek
  /// accessors in mrc/engine.hpp). K > 1 = K persistent worker shard
  /// processes spawned once per job, 0/1 = in-process. Composes with
  /// num_threads: each shard runs its machine range on a shard-local
  /// pool of num_threads threads (K x T concurrent callbacks). Results
  /// stay byte-identical at any (K, T) setting.
  std::uint64_t num_shards = 1;
  /// Sample-size multiplier ablation (DESIGN.md §5): scales the paper's
  /// sampling probability (2*eta/|U_r| for Alg. 1, eta/|E_i| for Alg. 4).
  double sample_boost = 1.0;
};

/// Round-robin ownership of `count` items over `machines` machines.
/// Deterministic and balanced; items are placed "arbitrarily" in the
/// paper, and round-robin gives per-machine load count/M exactly.
inline mrc::MachineId owner_of(std::uint64_t item, std::uint64_t machines) {
  return static_cast<mrc::MachineId>(item % machines);
}

/// owner_of for hot loops over 32-bit ids: the remainder comes from two
/// multiplications by a precomputed 64-bit reciprocal instead of a
/// division (Lemire, Kaser and Kurz, "Faster Remainder by Direct
/// Computation", arXiv:1902.01961), exact for every 32-bit item and
/// every machine count in [1, 2^32).
class FastOwnerOf {
 public:
  explicit FastOwnerOf(std::uint64_t machines)
      : machines_(machines), reciprocal_(~std::uint64_t{0} / machines + 1) {
    MRLR_REQUIRE(machines >= 1 && machines < (std::uint64_t{1} << 32),
                 "FastOwnerOf: machine count must be in [1, 2^32)");
  }

  mrc::MachineId operator()(std::uint32_t item) const {
    __extension__ typedef unsigned __int128 u128;
    const std::uint64_t low = reciprocal_ * item;
    return static_cast<mrc::MachineId>((u128{low} * machines_) >> 64);
  }

 private:
  std::uint64_t machines_;
  std::uint64_t reciprocal_;  // ceil(2^64 / machines); 0 when machines == 1
};

/// Bit-exact packing of weights into message words.
inline mrc::Word pack_double(double x) {
  return std::bit_cast<std::uint64_t>(x);
}
inline double unpack_double(mrc::Word w) { return std::bit_cast<double>(w); }

/// Two-round direct sum-allreduce for one small value per machine:
/// round 1 every machine sends its value to the central machine, round 2
/// the central machine sends the total back to everyone. Valid whenever
/// M (machine count) words fit in memory, which holds in the paper's
/// regime M = n^{c-mu} <= n^{1+mu}; the engine audits it regardless.
/// Returns the sum.
mrc::Word allreduce_sum_direct(mrc::Engine& engine,
                               const std::vector<mrc::Word>& values,
                               std::string_view label);

/// Component-wise sum-allreduce of one small vector per machine (e.g. the
/// per-degree-class counts of Algorithm 6). Same round structure as
/// allreduce_sum_direct. values[machine] must all have equal length.
std::vector<mrc::Word> allreduce_sum_vec(
    mrc::Engine& engine, const std::vector<std::vector<mrc::Word>>& values,
    std::string_view label);

/// Outcome fields shared by all the paper's algorithms.
struct MrOutcome {
  bool failed = false;           ///< a paper "fail" line fired
  std::uint64_t iterations = 0;  ///< outer-loop iterations
  std::uint64_t rounds = 0;      ///< engine rounds consumed
  std::uint64_t max_machine_words = 0;
  std::uint64_t max_central_inbox = 0;
  std::uint64_t total_communication = 0;
  std::uint64_t space_violations = 0;

  void fill_from(const mrc::Metrics& m) {
    rounds = m.rounds();
    max_machine_words = m.max_machine_words();
    max_central_inbox = m.max_central_inbox();
    total_communication = m.total_communication();
    space_violations = m.violations();
  }

  friend bool operator==(const MrOutcome&, const MrOutcome&) = default;
};

}  // namespace mrlr::core
