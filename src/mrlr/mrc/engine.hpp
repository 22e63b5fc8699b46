#pragma once
// The synchronous round engine: the simulated MapReduce cluster.
//
// Execution model (matching Karloff et al.'s MRC formalization):
//   * state lives on machines; machine 0 is the central machine;
//   * a round runs a user callback once per machine, giving it the
//     machine's inbox (messages sent in the previous round) and letting
//     it emit messages for the next round;
//   * after all machines have run, the engine audits per-machine space
//     (inbox words, declared resident words, outbox words against the
//     topology's cap), records metrics, and delivers the messages.
//
// Machines within a round are data-independent, so the engine routes the
// per-machine callbacks through an exec::Executor: the serial backend
// runs them in machine order on the calling thread, the thread-pool
// backend runs them concurrently (Topology::num_threads), and the
// process-sharded backend (Topology::num_shards) runs them in
// persistent worker processes spawned once per job; each round the
// engine ships every worker the inbox messages its machines receive
// from outside its range, and the workers ship back the messages that
// leave it, through the engine's ShardJobPlane implementation (a
// worker keeps the messages its machines send each other, and the
// coordinator sees only their counts). Either way the
// simulation is deterministic: each machine's sends append only to its
// own staging arena, and staged messages are merged into next-round
// inboxes in machine-id order after the round barrier, so traces,
// metrics, and SpaceLimitExceeded behavior are byte-identical across
// backends, thread counts, and shard counts. Since the quantities the paper bounds are
// rounds and words (not wall-clock), the backend is irrelevant to the
// measured results; determinism makes every experiment replayable from
// its seed.
//
// Message storage (the flat-buffer shuffle): each machine's staging slot
// is one contiguous Word buffer plus a small (to, offset, len) frame
// index — no per-message heap allocation. The post-barrier merge builds
// per-destination frame indexes in sender-id order and then moves the
// arena slabs wholesale into the delivered position; payload words are
// written exactly once, at send time. Callbacks read their inbox as
// MessageView spans into the senders' slabs via messages(); the owning
// inbox() remains as a compatibility shim that materializes Message
// copies on demand.
//
// Driver idiom: records for one destination travel as one frame per
// (sender, destination) — rounds that send many fixed-width records
// build them in mrc::send_coalesced's per-destination lanes, or count
// them first and write them in place with mrc::send_counted
// (mrc/lanes.hpp), and receivers read them by stride. Frame boundaries
// matter only where a receiver or an inbox_size peek counts frames
// (the per-vertex and per-element sample rounds), which keep one frame
// per item.
//
// Per-machine algorithm state is owned by the algorithms themselves
// (typically a std::vector sized by num_machines); the engine owns only
// the mailboxes and the cost accounting. Under a threaded backend, round
// callbacks must write only machine-disjoint algorithm state (per-machine
// slots or id-strided vector elements); shared reductions belong in
// per-machine slots merged after the round returns. Batched sends follow
// the same rule: a MessageWriter appends to its own machine's arena, so
// at most one writer per machine may be open at a time, and plain sends
// may not interleave with an open writer.

#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <initializer_list>
#include <iterator>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "mrlr/util/require.hpp"

#include "mrlr/exec/executor.hpp"
#include "mrlr/mrc/config.hpp"
#include "mrlr/mrc/message.hpp"
#include "mrlr/mrc/metrics.hpp"

namespace mrlr::mrc {

/// Thrown when Topology::enforce is set and a machine exceeds its
/// word cap in some round. The reported machine is the lowest-id
/// offender of the round, independent of the execution backend.
class SpaceLimitExceeded : public std::runtime_error {
 public:
  SpaceLimitExceeded(std::string what, std::uint64_t words,
                     std::uint64_t cap);
  std::uint64_t words;
  std::uint64_t cap;
};

/// Thrown by the coordinator when asked for message payloads that live
/// only in a worker process: under the process backend a worker keeps
/// the messages its machines send to each other, so the coordinator
/// holds only their counts. pending_inbox / inbox() of a worker-owned
/// machine throw it rather than return a partial list, and so does a
/// job round after an earlier round of the job stopped before delivery
/// (the worker-resident half of the undelivered inboxes cannot be
/// rebuilt). `machine` is the machine asked for.
class RemoteInboxError : public std::runtime_error {
 public:
  RemoteInboxError(std::string what, std::uint64_t machine);
  std::uint64_t machine;
};

class Engine;
class MachineContext;

/// Zero-copy batched message builder: words push straight into the
/// sending machine's staging arena; the frame is committed when the
/// writer is destroyed (or discarded entirely via cancel()). If the
/// writer dies during exception unwind the partial message is rolled
/// back, not committed — a half-built record must never become
/// deliverable traffic. At most one writer per machine may be open at a
/// time, and MachineContext::send may not be called while one is open —
/// frames must stay contiguous.
class MessageWriter {
 public:
  MessageWriter(const MessageWriter&) = delete;
  MessageWriter& operator=(const MessageWriter&) = delete;
  ~MessageWriter();

  void push(Word w);
  void append(std::span<const Word> words);

  /// Words written so far.
  std::uint64_t size() const;
  bool empty() const { return size() == 0; }

  /// Rolls the arena back to the pre-writer state: no message is sent
  /// and nothing is charged. The writer is dead afterwards.
  void cancel();

 private:
  friend class MachineContext;
  MessageWriter(Engine& engine, MachineId from, MachineId to);

  Engine* engine_;
  MachineId from_;
  MachineId to_;
  std::uint64_t begin_;
  int uncaught_on_open_;
  bool done_ = false;
};

/// Frames staged in place by MachineContext::stage_frames: one per
/// destination with a nonzero word count, zeroed and back to back in
/// ascending destination order at the tail of the sender's arena, for
/// the caller to fill through words(). commit() makes them deliverable;
/// a block that dies uncommitted (a fill that threw) is rolled back and
/// sends nothing. While a block is open its machine may not send
/// otherwise, as with an open MessageWriter.
class StagedFrames {
 public:
  StagedFrames(const StagedFrames&) = delete;
  StagedFrames& operator=(const StagedFrames&) = delete;
  ~StagedFrames();

  /// Every staged frame's words, destination-major.
  std::span<Word> words() const;

  void commit();

 private:
  friend class MachineContext;
  StagedFrames(Engine& engine, MachineId from,
               std::span<const std::uint64_t> lens);

  Engine* engine_;
  MachineId from_;
  std::span<const std::uint64_t> lens_;
  std::uint64_t begin_;
  bool done_ = false;
};

/// Lightweight range over one machine's delivered messages, yielding
/// MessageView spans into the senders' slabs. Valid only during the
/// round in which it was obtained.
class InboxView {
 public:
  class iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = MessageView;
    using difference_type = std::ptrdiff_t;

    MessageView operator*() const;
    iterator& operator++() {
      ++i_;
      return *this;
    }
    iterator operator++(int) {
      iterator t = *this;
      ++i_;
      return t;
    }
    friend bool operator==(const iterator&, const iterator&) = default;

   private:
    friend class InboxView;
    iterator(const Engine* engine, MachineId m, std::size_t i)
        : engine_(engine), m_(m), i_(i) {}
    const Engine* engine_;
    MachineId m_;
    std::size_t i_;
  };

  std::size_t size() const;
  bool empty() const { return size() == 0; }
  MessageView operator[](std::size_t i) const;
  iterator begin() const { return iterator(engine_, m_, 0); }
  iterator end() const { return iterator(engine_, m_, size()); }

 private:
  friend class MachineContext;
  InboxView(const Engine& engine, MachineId m) : engine_(&engine), m_(m) {}
  const Engine* engine_;
  MachineId m_;
};

/// Handle passed to the per-machine round callback. Under a threaded
/// backend each machine's context is used from one worker thread; all
/// members touch only that machine's slots, so contexts never contend.
class MachineContext {
 public:
  MachineId id() const { return id_; }
  std::uint64_t num_machines() const;
  bool is_central() const { return id_ == kCentral; }

  /// Zero-copy view of the messages delivered to this machine at the
  /// start of the round, in (sender id, send order) order. Views are
  /// invalidated by the end of the round.
  InboxView messages() const;

  /// Number of messages delivered this round.
  std::size_t inbox_size() const;

  /// The i-th delivered message as a zero-copy view.
  MessageView message(std::size_t i) const;

  /// Compatibility shim: the inbox as owning Message objects,
  /// materialized (and cached) on demand. Prefer messages(). Throws
  /// RemoteInboxError on a coordinator for a worker-owned machine.
  const std::vector<Message>& inbox() const;

  /// Total words in the inbox (precomputed; O(1)).
  std::uint64_t inbox_words() const;

  /// Queue a message for delivery at the start of the next round. The
  /// payload is copied once into this machine's staging arena (and not
  /// consumed — callers may reuse their buffer).
  void send(MachineId to, const std::vector<Word>& payload);
  void send(MachineId to, std::initializer_list<Word> payload);

  /// Span-based send: copies `payload` into the arena without requiring
  /// the caller to own a std::vector.
  void send_batch(MachineId to, std::span<const Word> payload);

  /// Zero-copy batched send: returns a writer appending directly to
  /// this machine's arena. The message is framed when the writer dies.
  MessageWriter begin_message(MachineId to);

  /// Stages one frame per destination `to` with lens[to] > 0 (lens has
  /// one entry per machine and must outlive the block) for the caller to
  /// fill in place: a callback that counts its records first writes each
  /// word once, straight into the arena. See StagedFrames.
  StagedFrames stage_frames(std::span<const std::uint64_t> lens);

  /// Makes room for `words` more words in this machine's staging arena,
  /// so the sends and writers that follow fill it without regrowing it.
  /// Capacity only: nothing is sent or charged, and reserved pages that
  /// are never written cost no resident memory.
  void reserve_outbox(std::uint64_t words);

  /// Declare the words of algorithm state resident on this machine during
  /// this round. Algorithms must call this with an honest figure; the
  /// engine audits it against the topology cap.
  void charge_resident(std::uint64_t words);

 private:
  friend class Engine;
  MachineContext(Engine& engine, MachineId id) : engine_(engine), id_(id) {}
  Engine& engine_;
  MachineId id_;
};

/// Identifier of a round registered with Engine::define_round.
using RoundId = std::uint32_t;

class Engine : private exec::ShardJobPlane {
 public:
  /// Builds the execution backend from topology.num_threads /
  /// topology.num_shards.
  explicit Engine(Topology topology);

  /// Uses a caller-provided backend (e.g. a pool shared across engines,
  /// or a specific executor under test). `executor` must not be null.
  Engine(Topology topology, std::shared_ptr<exec::Executor> executor);

  /// Ends the persistent job, if one started (tears worker processes
  /// down on backends that spawned them).
  ~Engine() override;

  const Topology& topology() const { return topology_; }
  std::uint64_t num_machines() const { return topology_.num_machines; }
  const exec::Executor& executor() const { return *executor_; }

  /// Registered round callback: the machine context plus the invoke
  /// parameters (small per-invocation words, e.g. iteration number or a
  /// packed probability — the coordinator ships them to every worker).
  using RoundFn =
      std::function<void(MachineContext&, std::span<const Word>)>;

  /// Registers a round for the job. All rounds must be defined before
  /// the first invoke_round (worker-backed executors snapshot the
  /// registry when the job starts); definition after that throws.
  /// `label` names the phase in the execution trace each time the round
  /// is invoked.
  RoundId define_round(std::string label, RoundFn fn);

  /// Execute one synchronous round of a registered callback. The first
  /// invocation starts the job on the executor (spawning persistent
  /// workers under the process backend). `params` is broadcast to every
  /// machine's callback.
  void invoke_round(RoundId round, std::span<const Word> params = {});
  void invoke_round(RoundId round, std::initializer_list<Word> params);

  /// Execute one synchronous round. `fn` is invoked once per machine
  /// (possibly concurrently; see the header comment for the rules).
  /// `label` names the phase in the execution trace. Ad-hoc rounds
  /// cannot ship to persistent workers, so under the process backend
  /// with more than one shard this throws — drivers use define_round /
  /// invoke_round instead.
  void run_round(std::string_view label,
                 const std::function<void(MachineContext&)>& fn);

  /// Convenience: run a round in which only the central machine does work
  /// (the paper's blue lines). Other machines still participate (their
  /// inboxes are cleared) but run no user code.
  void run_central_round(std::string_view label,
                         const std::function<void(MachineContext&)>& fn);

  const Metrics& metrics() const { return metrics_; }

  /// Control-plane peek at delivered traffic: total words (O(1)) and
  /// message count in the inbox machine m will read in the round now
  /// starting. Between rounds this is the coordinator's merged view, so
  /// it is identical across every backend.
  ///
  /// The process-clean driver contract. Under `--backend process` the
  /// non-central machines run in persistent worker processes that fork
  /// once, at job start; after the setup frames ship, nothing in
  /// coordinator memory is visible to them. A driver is *process-clean*
  /// — and therefore portable to every backend with bit-identical
  /// results — iff its registered (define_round) callbacks touch only:
  ///
  ///   * job-immutable data captured before the first invoke_round (the
  ///     graph, parameters, footprints, an unforked root Rng copy);
  ///   * per-machine state that only that machine's own callbacks
  ///     mutate (worker-resident between rounds — owner-strided vector
  ///     slots are the idiom);
  ///   * invoke_round parameters, inbox messages, and RNG streams
  ///     derived deterministically from (round/iteration, machine id);
  ///
  /// and its host-side code between rounds uses only
  /// coordinator-visible state: these peeks, metrics(), central-round
  /// effects (the central machine is always coordinator-resident, so
  /// central state and run_central_round closures are unrestricted).
  /// Host -> machine communication goes through invoke params or
  /// central sends; machine -> host through messages to the central
  /// machine.
  ///
  /// Every driver in the tree is ported to this contract and runs under
  /// every backend: rlr_matching, rlr_bmatching, rlr_setcover /
  /// rlr_vertex_cover, filtering_matching / filtering_vertex_cover /
  /// filtering_weighted_matching, coreset_matching, greedy_setcover_mr,
  /// sample_prune_setcover, hungry_mis, luby_mis, hungry_clique,
  /// colouring (greedy + Luby), and luby_mr.
  ///
  /// These peeks exist precisely so control flow (e.g. a sampling fail
  /// check, a "did anyone send?" termination test) can stay on the
  /// coordinator without materializing inboxes or breaking the
  /// contract. Throws std::out_of_range for machine ids outside
  /// [0, num_machines()).
  std::uint64_t inbox_words(MachineId m) const;
  std::uint64_t inbox_size(MachineId m) const;

  /// Direct access for algorithms that need to inspect what a machine
  /// will receive next round (testing only; materialized on demand).
  /// Non-empty only after a round that threw SpaceLimitExceeded, since
  /// delivery otherwise completes within run_round. Throws
  /// std::out_of_range for machine ids outside [0, num_machines()), and
  /// RemoteInboxError for a machine whose callbacks run in a worker
  /// process (part of its pending inbox may be resident there).
  const std::vector<Message>& pending_inbox(MachineId m) const;

 private:
  friend class MachineContext;
  friend class MessageWriter;
  friend class StagedFrames;
  friend class InboxView;

  /// ShardDataPlane / ShardJobPlane: the run-encoded shard wire of the
  /// process backend (layouts in docs/ARCHITECTURE.md, "Frame kinds").
  /// A worker keeps the frames its machines send inside its own range
  /// [first, last) and ships the coordinator only their per-destination
  /// frame and word counts; every other frame crosses the wire once, as
  /// (peer, frame count, word count, frame lengths, words) runs.
  ///
  /// serialize_machines (worker, after the callbacks): per machine the
  /// accounting slots and the runs to destinations outside the range,
  /// then the resident counts. The resident frames move into next_frames_
  /// as this worker's half of the next inbox. apply_machines
  /// (coordinator): installs the runs as the machines' staged frames and
  /// folds the resident counts into the next inbox totals, so the audit,
  /// metrics and inbox_words / inbox_size peeks see every message.
  void serialize_machines(std::uint64_t first, std::uint64_t last,
                          std::vector<std::byte>& out) override;
  void apply_machines(std::uint64_t first, std::uint64_t last,
                      std::span<const std::byte> bytes) override;

  /// serialize_round_input (coordinator): whether the current inbox
  /// holds the frames the workers kept last round (a central round in
  /// between consumed them), then per machine the inbox totals and the
  /// runs from senders outside the range. apply_round_input (worker):
  /// rebuilds each inbox in sender-id order from the shipped runs and
  /// the resident frames. Both decoders validate every field and throw
  /// exec::TransportError(kBadPayload) on malformed bytes.
  void serialize_round_input(std::uint64_t first, std::uint64_t last,
                             std::vector<std::byte>& out) const override;
  void apply_round_input(std::uint64_t first, std::uint64_t last,
                         std::span<const std::byte> bytes) override;
  void run_registered(std::uint64_t round_id, std::uint64_t machine,
                      std::span<const std::uint64_t> params) override;
  std::uint64_t registered_rounds() const override {
    return rounds_.size();
  }
  std::string_view round_label(std::uint64_t i) const override {
    return rounds_[i].label;
  }

  void check_machine_id(MachineId m, const char* what) const;
  /// Throws RemoteInboxError when m's messages live in a worker process.
  void check_local(MachineId m, const char* what) const;

  /// Shared body of run_round / run_central_round. `central_only`
  /// rounds skip the shard data plane: only the coordinator-resident
  /// central machine does work, so a process backend has nothing to
  /// ship.
  void run_round_impl(std::string_view label,
                      const std::function<void(MachineContext&)>& fn,
                      bool central_only);

  /// Round prologue/epilogue shared by run_round_impl and invoke_round:
  /// resets per-round scratch, runs `dispatch` (the executor call),
  /// then merges staged frames, records metrics, audits space, and
  /// delivers.
  void round_body(std::string_view label, bool central_only,
                  const std::function<void()>& dispatch);

  /// One message in a sender's staging arena: destination plus the
  /// [offset, offset+len) extent in that arena's word buffer.
  struct Frame {
    MachineId to;
    std::uint64_t offset;
    std::uint64_t len;
  };

  /// Per-sender round arena: one flat word buffer plus the frame index.
  /// Buffers keep their capacity across rounds, so steady-state rounds
  /// allocate nothing.
  struct Outbox {
    std::vector<Word> words;
    std::vector<Frame> frames;
  };

  /// Inbox index entry: the message occupies
  /// slabs_[from].words[offset, offset+len).
  struct InboxFrame {
    MachineId from;
    std::uint64_t offset;
    std::uint64_t len;
  };

  /// Zero-copy view of delivered message i of machine m.
  MessageView view_message(MachineId m, std::size_t i) const {
    const InboxFrame& f = inbox_frames_[m][i];
    return {f.from, {slabs_[f.from].words.data() + f.offset,
                     static_cast<std::size_t>(f.len)}};
  }

  const std::vector<Message>& materialized_inbox(MachineId m) const;

  /// Copies the messages a frame index describes out of their arenas
  /// into owning Message objects (the compatibility-shim slow path).
  static void materialize(const std::vector<InboxFrame>& frames,
                          const std::vector<Outbox>& arenas,
                          std::vector<Message>& out);

  Topology topology_;
  std::shared_ptr<exec::Executor> executor_;
  Metrics metrics_;
  /// Rounds registered via define_round; frozen once the job starts
  /// (worker processes inherit the registry at spawn, so it must never
  /// change afterwards).
  struct Registered {
    std::string label;
    RoundFn fn;
  };
  std::vector<Registered> rounds_;
  bool job_started_ = false;
  // staging_[m] = machine m's outgoing arena for the current round; only
  // machine m's callback (its sends and writers) touches it, so sends
  // never contend. After the barrier the arenas are merged by frame
  // index and then moved wholesale into slabs_.
  std::vector<Outbox> staging_;
  // slabs_[s] = sender s's arena from the previous round, backing this
  // round's inboxes. Spent slabs are recycled as staging buffers.
  std::vector<Outbox> slabs_;
  // inbox_frames_[m] = this round's messages for machine m, in
  // (sender id, send order) order; words live in slabs_.
  // On a worker only its own range's indexes are filled; on the
  // coordinator a worker-owned machine's index lists only the frames
  // that crossed the wire.
  std::vector<std::vector<InboxFrame>> inbox_frames_;
  std::vector<std::uint64_t> inbox_words_;  // per-destination totals
  // Merge scratch for the next round's inbox index. On a worker it holds
  // the resident frames its machines sent each other, in sender order.
  std::vector<std::vector<InboxFrame>> next_frames_;
  std::vector<std::uint64_t> next_inbox_words_;
  // Coordinator: frames of each inbox (current / next) that are resident
  // on a worker and so absent from inbox_frames_ / next_frames_.
  std::vector<std::uint64_t> inbox_resident_frames_;
  std::vector<std::uint64_t> next_resident_frames_;
  // Coordinator: remote_[m] = machine m runs in a worker process (its
  // staged frames arrived through apply_machines).
  std::vector<char> remote_;
  // Coordinator: this round's staged data came from workers, which now
  // hold resident frames for the next inbox; after delivery,
  // resident_live_ says whether the current inbox includes them.
  bool resident_pending_ = false;
  bool resident_live_ = false;
  // A round is between its start and its delivery; a round that found
  // the previous one still open sets delivery_skipped_ for good.
  bool round_open_ = false;
  bool delivery_skipped_ = false;
  // writer_open_[m] = machine m has a live MessageWriter (its frame is
  // still growing, so no other send may interleave).
  std::vector<char> writer_open_;
  // Per-round scratch, reset in run_round; slot m is written only by
  // machine m's callback.
  std::vector<std::uint64_t> outbox_words_;
  std::vector<std::uint64_t> resident_words_;
  // Lazy materialization caches for the compatibility shims. Slot m is
  // only touched by machine m's thread (inbox) or by the host between
  // rounds (pending), so no synchronization is needed.
  mutable std::vector<std::vector<Message>> inbox_cache_;
  mutable std::vector<char> inbox_cache_valid_;
  mutable std::vector<std::vector<Message>> pending_cache_;
};

// ------------------------------------------------------------ inline --
// Hot-path members live here so shuffle-heavy algorithm loops inline
// them; everything below only touches the calling machine's slots.

inline MessageView InboxView::operator[](std::size_t i) const {
  return engine_->view_message(m_, i);
}

inline std::size_t InboxView::size() const {
  return engine_->inbox_frames_[m_].size();
}

inline MessageView InboxView::iterator::operator*() const {
  return engine_->view_message(m_, i_);
}

inline InboxView MachineContext::messages() const {
  return InboxView(engine_, id_);
}

inline std::size_t MachineContext::inbox_size() const {
  return engine_.inbox_frames_[id_].size();
}

inline MessageView MachineContext::message(std::size_t i) const {
  return engine_.view_message(id_, i);
}

inline std::uint64_t MachineContext::inbox_words() const {
  return engine_.inbox_words_[id_];
}

inline MessageWriter::MessageWriter(Engine& engine, MachineId from,
                                    MachineId to)
    : engine_(&engine), from_(from), to_(to),
      begin_(engine.staging_[from].words.size()),
      uncaught_on_open_(std::uncaught_exceptions()) {
  engine.writer_open_[from] = 1;
}

inline MessageWriter::~MessageWriter() {
  if (done_) return;
  if (std::uncaught_exceptions() > uncaught_on_open_) {
    // Dying on the unwind path: roll the partial message back.
    cancel();
    return;
  }
  Engine::Outbox& out = engine_->staging_[from_];
  const std::uint64_t len = out.words.size() - begin_;
  out.frames.push_back({to_, begin_, len});
  engine_->outbox_words_[from_] += len;
  engine_->writer_open_[from_] = 0;
}

inline void MessageWriter::push(Word w) {
  MRLR_DEBUG_REQUIRE(!done_, "MessageWriter: push after cancel");
  engine_->staging_[from_].words.push_back(w);
}

inline void MessageWriter::append(std::span<const Word> words) {
  MRLR_DEBUG_REQUIRE(!done_, "MessageWriter: append after cancel");
  auto& buf = engine_->staging_[from_].words;
  buf.insert(buf.end(), words.begin(), words.end());
}

inline std::uint64_t MessageWriter::size() const {
  MRLR_DEBUG_REQUIRE(!done_, "MessageWriter: size after cancel");
  return engine_->staging_[from_].words.size() - begin_;
}

inline void MessageWriter::cancel() {
  engine_->staging_[from_].words.resize(begin_);
  engine_->writer_open_[from_] = 0;
  done_ = true;
}

}  // namespace mrlr::mrc
