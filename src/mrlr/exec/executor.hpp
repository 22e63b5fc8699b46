#pragma once
// Execution backends for the round engine: how the M simulated machines
// of one synchronous round are mapped onto OS threads.
//
// Machines within a round are data-independent — each reads only its own
// inbox and writes only its own staging outbox and accounting slots — so
// an Executor is free to run them in any order and on any thread. The
// engine restores full determinism after the barrier by merging staged
// messages in machine-id order, which makes traces, metrics, and
// algorithm outputs byte-identical across backends and thread counts.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string_view>
#include <vector>

namespace mrlr::exec {

/// Host-side view of the per-machine state an out-of-process backend
/// must ship across the round barrier. The engine implements it: a
/// worker process serializes the machines it ran (their staged message
/// arenas and accounting slots) and the coordinator applies the bytes
/// into its own engine, after which the ordinary id-ordered merge
/// proceeds exactly as it would in-process. In-process backends never
/// touch it.
class ShardDataPlane {
 public:
  virtual ~ShardDataPlane() = default;

  /// Appends the wire encoding of machines [first, last) to `out`
  /// (worker side, after the callbacks ran). Consumes the staged frames:
  /// the ones addressed inside [first, last) stay with the worker as its
  /// share of the next round's inboxes.
  virtual void serialize_machines(std::uint64_t first, std::uint64_t last,
                                  std::vector<std::byte>& out) = 0;

  /// Installs the encoding produced by serialize_machines for the same
  /// range (coordinator side). Must validate `bytes` and throw
  /// TransportError(kBadPayload) on anything malformed.
  virtual void apply_machines(std::uint64_t first, std::uint64_t last,
                              std::span<const std::byte> bytes) = 0;
};

/// Job-scoped extension of the data plane for backends with persistent
/// workers: rounds are *registered* (closures defined before the job
/// starts, inherited by workers at spawn) and then *invoked* by id with
/// a small parameter vector, so a long-lived worker never needs a
/// closure shipped to it. Per-round inputs (each machine's inbox) flow
/// coordinator -> worker through serialize_round_input /
/// apply_round_input; results flow back through the inherited
/// serialize_machines / apply_machines pair. After the setup frame a
/// worker reads nothing from coordinator memory — every round's inputs
/// arrive on the wire.
class ShardJobPlane : public ShardDataPlane {
 public:
  /// Appends the wire encoding of the round inputs (delivered inbox
  /// frames and words) of machines [first, last) to `out`
  /// (coordinator side, before the round runs).
  virtual void serialize_round_input(std::uint64_t first, std::uint64_t last,
                                     std::vector<std::byte>& out) const = 0;

  /// Installs round inputs produced by serialize_round_input for the
  /// same range and resets the range's per-round scratch (worker side).
  /// Must validate `bytes` and throw TransportError(kBadPayload) on
  /// anything malformed.
  virtual void apply_round_input(std::uint64_t first, std::uint64_t last,
                                 std::span<const std::byte> bytes) = 0;

  /// Runs the registered round `round_id` on machine `machine` with the
  /// invoke parameters (worker side, and coordinator side for shard 0).
  virtual void run_registered(std::uint64_t round_id, std::uint64_t machine,
                              std::span<const std::uint64_t> params) = 0;

  /// Number of rounds registered before the job started; workers
  /// validate this against the setup frame so a coordinator/worker
  /// registry mismatch fails typed instead of invoking the wrong round.
  virtual std::uint64_t registered_rounds() const = 0;

  /// Label of registered round i (i < registered_rounds()), in
  /// registration order. The job bootstrap ships the full label table so
  /// a worker whose registry diverged in *content* — not just count —
  /// refuses the job instead of invoking the wrong closure.
  virtual std::string_view round_label(std::uint64_t i) const = 0;
};

/// Abstract machine-range runner.
class Executor {
 public:
  /// Per-machine callback; the argument is the machine id.
  using MachineFn = std::function<void(std::uint64_t)>;

  virtual ~Executor() = default;

  /// Invokes fn(m) exactly once for every m in [first, last). All
  /// invocations have completed (the round barrier) when this returns.
  /// No ordering is promised between machines; callbacks must touch only
  /// machine-disjoint state. If callbacks throw, the exception of the
  /// lowest-id throwing machine is rethrown after the barrier.
  virtual void run_machines(std::uint64_t first, std::uint64_t last,
                            const MachineFn& fn) = 0;

  /// run_machines with a data plane for out-of-process backends: the
  /// engine calls this form so a sharding backend can ship callback
  /// effects (staged messages, accounting) back to the coordinator.
  /// In-process backends ignore the data plane — shared memory already
  /// is the data plane.
  virtual void run_machines_sharded(std::uint64_t first, std::uint64_t last,
                                    const MachineFn& fn,
                                    ShardDataPlane* data_plane) {
    (void)data_plane;
    run_machines(first, last, fn);
  }

  /// Starts a persistent job: `plane` owns the registered rounds and
  /// the machine-range state for [0, num_machines). Backends with
  /// long-lived workers spawn them here (exactly once per job) and ship
  /// each worker its range over setup frames; in-process backends need
  /// no job lifecycle and ignore the call.
  virtual void start_job(std::uint64_t num_machines, ShardJobPlane* plane) {
    (void)num_machines;
    (void)plane;
  }

  /// Runs one registered round of the active job. `fn` is the
  /// coordinator-local form of the round (id -> run_registered bound by
  /// the caller); in-process backends just run it over every machine.
  /// Worker-backed backends ship (round_id, params, round inputs) to
  /// each worker instead and run only their local machines through
  /// `fn`. The exception contract matches run_machines (lowest-id
  /// throwing machine wins).
  virtual void run_job_round(std::uint64_t round_id,
                             std::span<const std::uint64_t> params,
                             std::uint64_t num_machines, const MachineFn& fn,
                             ShardJobPlane* plane) {
    (void)round_id;
    (void)params;
    (void)plane;
    run_machines(0, num_machines, fn);
  }

  /// Ends the active job: worker-backed backends send teardown frames
  /// and reap their workers. Must be safe to call without a job and
  /// after a job failure; must not throw.
  virtual void end_job() {}

  /// Backend name for traces and --help output.
  virtual std::string_view name() const = 0;

  /// Number of OS threads that may run callbacks concurrently (>= 1).
  virtual unsigned num_threads() const = 0;
};

/// Builds a backend from the shared `num_threads` knob (Topology,
/// MrParams, --threads all use the same convention):
///   1  -> SerialExecutor (the historical sequential simulation),
///   N>1-> ThreadPoolExecutor with N persistent workers (clamped to
///         1024 — OS thread counts beyond that only add overhead;
///         Executor::num_threads() reports the effective value),
///   0  -> ThreadPoolExecutor sized to the hardware.
std::unique_ptr<Executor> make_executor(std::uint64_t num_threads);

/// As above, plus the `num_shards` knob: when num_shards > 1 the result
/// is a ProcessShardExecutor with that many persistent per-job worker
/// shards. The knobs compose: each shard (the coordinator's shard 0 and
/// every worker) runs its machine range on a shard-local thread pool of
/// the resolved num_threads (1 = serial within the shard, 0 = hardware),
/// giving up to K x T concurrent callbacks with traces, metrics, and
/// results byte-identical to serial.
std::unique_ptr<Executor> make_executor(std::uint64_t num_threads,
                                        std::uint64_t num_shards);

}  // namespace mrlr::exec
