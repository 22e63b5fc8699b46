#include "mrlr/mrc/engine.hpp"

#include <algorithm>
#include <cstring>

#include "mrlr/exec/shard_transport.hpp"
#include "mrlr/obs/telemetry.hpp"
#include "mrlr/util/require.hpp"

namespace mrlr::mrc {

SpaceLimitExceeded::SpaceLimitExceeded(std::string what, std::uint64_t words_,
                                       std::uint64_t cap_)
    : std::runtime_error(std::move(what)), words(words_), cap(cap_) {}

RemoteInboxError::RemoteInboxError(std::string what, std::uint64_t machine_)
    : std::runtime_error(std::move(what)), machine(machine_) {}

std::uint64_t MachineContext::num_machines() const {
  return engine_.num_machines();
}

const std::vector<Message>& MachineContext::inbox() const {
  return engine_.materialized_inbox(id_);
}

void MachineContext::send(MachineId to, const std::vector<Word>& payload) {
  send_batch(to, payload);
}

void MachineContext::send(MachineId to, std::initializer_list<Word> payload) {
  send_batch(to, std::span<const Word>(payload.begin(), payload.size()));
}

void MachineContext::send_batch(MachineId to, std::span<const Word> payload) {
  MRLR_REQUIRE(to < engine_.num_machines(), "send to nonexistent machine");
  MRLR_REQUIRE(!engine_.writer_open_[id_],
               "send while this machine's MessageWriter is open");
  Engine::Outbox& out = engine_.staging_[id_];
  const std::uint64_t offset = out.words.size();
  out.words.insert(out.words.end(), payload.begin(), payload.end());
  out.frames.push_back({to, offset, payload.size()});
  engine_.outbox_words_[id_] += payload.size();
}

MessageWriter MachineContext::begin_message(MachineId to) {
  MRLR_REQUIRE(to < engine_.num_machines(), "send to nonexistent machine");
  MRLR_REQUIRE(!engine_.writer_open_[id_],
               "at most one MessageWriter per machine may be open");
  return MessageWriter(engine_, id_, to);
}

StagedFrames MachineContext::stage_frames(
    std::span<const std::uint64_t> lens) {
  MRLR_REQUIRE(lens.size() == engine_.num_machines(),
               "stage_frames needs one length per machine");
  MRLR_REQUIRE(!engine_.writer_open_[id_],
               "stage_frames while this machine's MessageWriter is open");
  return StagedFrames(engine_, id_, lens);
}

StagedFrames::StagedFrames(Engine& engine, MachineId from,
                           std::span<const std::uint64_t> lens)
    : engine_(&engine), from_(from), lens_(lens),
      begin_(engine.staging_[from].words.size()) {
  std::uint64_t total = 0;
  for (const std::uint64_t len : lens) total += len;
  engine.staging_[from].words.resize(begin_ + total);
  engine.writer_open_[from] = 1;
}

StagedFrames::~StagedFrames() {
  if (done_) return;
  engine_->staging_[from_].words.resize(begin_);
  engine_->writer_open_[from_] = 0;
}

std::span<Word> StagedFrames::words() const {
  MRLR_DEBUG_REQUIRE(!done_, "StagedFrames: words after commit");
  std::vector<Word>& arena = engine_->staging_[from_].words;
  return {arena.data() + begin_, arena.size() - begin_};
}

void StagedFrames::commit() {
  MRLR_REQUIRE(!done_, "StagedFrames: commit twice");
  Engine::Outbox& out = engine_->staging_[from_];
  std::uint64_t offset = begin_;
  for (MachineId to = 0; to < lens_.size(); ++to) {
    if (lens_[to] == 0) continue;
    out.frames.push_back({to, offset, lens_[to]});
    offset += lens_[to];
  }
  engine_->outbox_words_[from_] += offset - begin_;
  engine_->writer_open_[from_] = 0;
  done_ = true;
}

void MachineContext::reserve_outbox(std::uint64_t words) {
  std::vector<Word>& out = engine_.staging_[id_].words;
  out.reserve(out.size() + words);
}

void MachineContext::charge_resident(std::uint64_t words) {
  engine_.resident_words_[id_] =
      std::max(engine_.resident_words_[id_], words);
}

Engine::Engine(Topology topology)
    : Engine(topology, exec::make_executor(topology.num_threads,
                                           topology.num_shards)) {}

Engine::Engine(Topology topology, std::shared_ptr<exec::Executor> executor)
    : topology_(topology), executor_(std::move(executor)) {
  MRLR_REQUIRE(topology_.num_machines >= 1, "need at least one machine");
  MRLR_REQUIRE(topology_.fanout >= 2, "broadcast fanout must be >= 2");
  MRLR_REQUIRE(executor_ != nullptr, "engine needs an executor");
  const std::uint64_t machines = topology_.num_machines;
  staging_.resize(machines);
  slabs_.resize(machines);
  inbox_frames_.resize(machines);
  inbox_words_.assign(machines, 0);
  next_frames_.resize(machines);
  next_inbox_words_.assign(machines, 0);
  inbox_resident_frames_.assign(machines, 0);
  next_resident_frames_.assign(machines, 0);
  remote_.assign(machines, 0);
  writer_open_.assign(machines, 0);
  outbox_words_.assign(machines, 0);
  resident_words_.assign(machines, 0);
  inbox_cache_.resize(machines);
  inbox_cache_valid_.assign(machines, 0);
  pending_cache_.resize(machines);
}

Engine::~Engine() {
  if (job_started_) {
    // end_job must not throw (Executor contract); belt and braces for a
    // destructor anyway.
    try {
      executor_->end_job();
    } catch (...) {
    }
  }
}

RoundId Engine::define_round(std::string label, RoundFn fn) {
  MRLR_REQUIRE(!job_started_,
               "define_round after the job started: worker processes "
               "snapshot the round registry at spawn");
  MRLR_REQUIRE(fn != nullptr, "define_round needs a callback");
  rounds_.push_back(Registered{std::move(label), std::move(fn)});
  return static_cast<RoundId>(rounds_.size() - 1);
}

void Engine::invoke_round(RoundId round, std::span<const Word> params) {
  MRLR_REQUIRE(round < rounds_.size(), "invoke_round: undefined round id");
  if (!job_started_) {
    job_started_ = true;
    executor_->start_job(topology_.num_machines, this);
  }
  round_body(rounds_[round].label, /*central_only=*/false, [&] {
    executor_->run_job_round(
        round, params, topology_.num_machines,
        [&](std::uint64_t m) { run_registered(round, m, params); }, this);
  });
}

void Engine::invoke_round(RoundId round, std::initializer_list<Word> params) {
  invoke_round(round, std::span<const Word>(params.begin(), params.size()));
}

void Engine::run_round(std::string_view label,
                       const std::function<void(MachineContext&)>& fn) {
  run_round_impl(label, fn, /*central_only=*/false);
}

void Engine::run_round_impl(std::string_view label,
                            const std::function<void(MachineContext&)>& fn,
                            bool central_only) {
  round_body(label, central_only, [&] {
    // The sharded entry point: in-process backends fall through to
    // plain run_machines; the process backend rejects ad-hoc sharded
    // rounds (persistent workers only run registered rounds).
    // Central-only rounds pass no data plane — the central machine
    // always lives in the coordinator process and every other callback
    // is a no-op, so there is nothing to ship.
    executor_->run_machines_sharded(
        0, topology_.num_machines,
        [&](std::uint64_t m) {
          MachineContext ctx(*this, static_cast<MachineId>(m));
          fn(ctx);
        },
        central_only ? nullptr : this);
  });
}

void Engine::round_body(std::string_view label, bool central_only,
                        const std::function<void()>& dispatch) {
  if (round_open_) delivery_skipped_ = true;
  round_open_ = true;
  std::fill(outbox_words_.begin(), outbox_words_.end(), 0);
  std::fill(resident_words_.begin(), resident_words_.end(), 0);

  // Telemetry never touches the data plane: when disabled the only cost
  // is one relaxed load, and when enabled it only samples clocks, so
  // traces, metrics, and hashes stay byte-identical either way.
  obs::Telemetry& tel = obs::Telemetry::instance();
  const bool telemetry = tel.enabled();
  const std::uint64_t round_ix = metrics_.rounds();
  const std::uint64_t round_start = telemetry ? tel.now_ns() : 0;
  std::uint64_t t0 = round_start;

  const auto machines = static_cast<MachineId>(topology_.num_machines);
  dispatch();
  if (telemetry) {
    tel.record_span(
        central_only ? obs::Phase::kCentral : obs::Phase::kCallback, t0,
        tel.now_ns(), round_ix, std::string(label));
    t0 = tel.now_ns();
  }

  // Merge staged frames in sender-id order: delivery order — and with
  // it every downstream inbox scan — matches the sequential simulation
  // regardless of which threads ran which machines. Only the frame
  // indexes move here; payload words stay where the senders wrote them.
  std::uint64_t frames = 0;
  for (MachineId s = 0; s < machines; ++s) {
    MRLR_REQUIRE(!writer_open_[s],
                 "MessageWriter left open across the round barrier");
    frames += staging_[s].frames.size();
    for (const Frame& f : staging_[s].frames) {
      next_frames_[f.to].push_back({s, f.offset, f.len});
      next_inbox_words_[f.to] += f.len;
    }
    // Consumed before the audit can throw: if this round violates the
    // cap, a subsequent round must not re-merge (and double-deliver)
    // these frames. The payload words stay put — next_frames_ points
    // into them (pending_inbox reads them, and delivery will move the
    // slab wholesale next round).
    staging_[s].frames.clear();
  }
  if (telemetry) {
    tel.record_span(obs::Phase::kArenaMerge, t0, tel.now_ns(), round_ix);
  }

  RoundMetrics rm;
  rm.label = std::string(label);
  bool violated = false;
  std::uint64_t offender_words = 0;
  MachineId offender = 0;
  for (MachineId m = 0; m < machines; ++m) {
    const std::uint64_t in = inbox_words_[m];
    rm.max_inbox = std::max(rm.max_inbox, in);
    rm.max_outbox = std::max(rm.max_outbox, outbox_words_[m]);
    rm.max_resident = std::max(rm.max_resident, resident_words_[m]);
    rm.total_sent += outbox_words_[m];
    if (m == kCentral) rm.central_inbox = in;
    const std::uint64_t peak = std::max({in, outbox_words_[m],
                                         resident_words_[m]});
    if (peak > topology_.words_per_machine && !violated) {
      violated = true;
      offender = m;
      offender_words = peak;
    }
  }
  rm.space_violation = violated;
  metrics_.record(rm);
  if (violated && topology_.enforce) {
    // Delivery is skipped: the staged arenas stay pending, observable
    // through pending_inbox for post-mortem inspection.
    throw SpaceLimitExceeded(
        "machine " + std::to_string(offender) + " used " +
            std::to_string(offender_words) + " words in round '" +
            std::string(label) + "' (cap " +
            std::to_string(topology_.words_per_machine) + ")",
        offender_words, topology_.words_per_machine);
  }

  // Deliver: the staging arenas move wholesale into the slab role (no
  // payload copy), and the spent slabs — whose views died with this
  // round — are recycled as next round's staging buffers, keeping their
  // capacity so steady-state rounds never touch the allocator.
  staging_.swap(slabs_);
  if (telemetry) {
    // Recycled slabs that kept their capacity are the allocations
    // steady-state rounds avoid.
    std::uint64_t reused = 0;
    for (const Outbox& out : staging_) {
      if (out.words.capacity() > 0) ++reused;
    }
    tel.add_counter("engine.slab_reuses", reused);
    tel.add_counter("engine.rounds", 1);
    // Frames this round delivers, the ones workers kept included, so
    // the count is the same under every backend.
    for (MachineId m = 0; m < machines; ++m) {
      frames += next_resident_frames_[m];
    }
    tel.add_counter("mrc.frames", frames);
  }
  for (Outbox& out : staging_) {
    out.words.clear();
    out.frames.clear();
  }
  inbox_frames_.swap(next_frames_);
  inbox_words_.swap(next_inbox_words_);
  inbox_resident_frames_.swap(next_resident_frames_);
  for (MachineId m = 0; m < machines; ++m) {
    next_frames_[m].clear();
    next_inbox_words_[m] = 0;
    next_resident_frames_[m] = 0;
  }
  resident_live_ = resident_pending_;
  resident_pending_ = false;
  round_open_ = false;
  std::fill(inbox_cache_valid_.begin(), inbox_cache_valid_.end(), 0);
  if (telemetry) {
    tel.record_span(obs::Phase::kRound, round_start, tel.now_ns(), round_ix,
                    std::string(label));
  }
}

void Engine::run_central_round(
    std::string_view label, const std::function<void(MachineContext&)>& fn) {
  run_round_impl(
      label,
      [&](MachineContext& ctx) {
        if (ctx.is_central()) fn(ctx);
      },
      /*central_only=*/true);
}

void Engine::materialize(const std::vector<InboxFrame>& frames,
                         const std::vector<Outbox>& arenas,
                         std::vector<Message>& out) {
  out.clear();
  out.reserve(frames.size());
  for (const InboxFrame& f : frames) {
    const Word* base = arenas[f.from].words.data() + f.offset;
    out.push_back(Message{f.from, std::vector<Word>(base, base + f.len)});
  }
}

const std::vector<Message>& Engine::materialized_inbox(MachineId m) const {
  check_local(m, "inbox");
  if (!inbox_cache_valid_[m]) {
    materialize(inbox_frames_[m], slabs_, inbox_cache_[m]);
    inbox_cache_valid_[m] = 1;
  }
  return inbox_cache_[m];
}

void Engine::check_machine_id(MachineId m, const char* what) const {
  if (m >= num_machines()) {
    throw std::out_of_range(
        std::string("Engine::") + what + ": machine id " +
        std::to_string(m) + " out of range [0, " +
        std::to_string(num_machines()) + ")");
  }
}

void Engine::check_local(MachineId m, const char* what) const {
  if (remote_[m]) {
    throw RemoteInboxError(
        std::string("Engine::") + what + ": machine " + std::to_string(m) +
            " runs in a worker process, which keeps the messages its "
            "machines send each other; the coordinator holds only their "
            "counts (use inbox_words / inbox_size)",
        m);
  }
}

const std::vector<Message>& Engine::pending_inbox(MachineId m) const {
  check_machine_id(m, "pending_inbox");
  check_local(m, "pending_inbox");
  materialize(next_frames_[m], staging_, pending_cache_[m]);
  return pending_cache_[m];
}

std::uint64_t Engine::inbox_words(MachineId m) const {
  check_machine_id(m, "inbox_words");
  return inbox_words_[m];
}

std::uint64_t Engine::inbox_size(MachineId m) const {
  check_machine_id(m, "inbox_size");
  return inbox_frames_[m].size() + inbox_resident_frames_[m];
}

// ----------------------------------------------- shard data plane --
//
// Both directions encode messages as runs: consecutive frames of one
// sender to one destination, written as
//
//   varint peer, varint frames (>= 1), varint words,
//   frames x varint length (summing to words), words x 8 bytes.
//
// `peer` is the destination on the way to the coordinator and the sender
// on the way to a worker. A run's words are one memcpy on the worker side,
// since a sender's frames sit back to back in its arena (MessageWriter::
// cancel truncates), so no frame offset is ever shipped.

namespace {

using exec::append_varint;

[[noreturn]] void bad_payload(const std::string& what) {
  throw exec::TransportError(exec::TransportError::Kind::kBadPayload,
                             "engine shard payload: " + what);
}

/// Cursor over the apply-side byte span; every read is bounds-checked
/// so truncated or adversarial payloads fail typed, never read OOB, and
/// no count is trusted beyond the bytes that must back it.
struct Cursor {
  std::span<const std::byte> in;

  std::uint64_t varint(const char* what) {
    std::uint64_t v = 0;
    for (unsigned shift = 0;; shift += 7) {
      if (in.empty()) bad_payload(std::string("truncated reading ") + what);
      const auto b = std::to_integer<std::uint64_t>(in[0]);
      in = in.subspan(1);
      if (shift == 63 && b > 1) bad_payload(std::string("overlong ") + what);
      v |= (b & 0x7F) << shift;
      if (b < 0x80) return v;
    }
  }

  /// Reads a count whose items each take at least `min_bytes` of what
  /// is left, so a hostile count fails here instead of driving a loop
  /// or an allocation.
  std::uint64_t count(const char* what, std::uint64_t min_bytes) {
    const std::uint64_t n = varint(what);
    if (n > in.size() / min_bytes) {
      bad_payload(std::string(what) + " " + std::to_string(n) +
                  " exceeds the remaining payload");
    }
    return n;
  }

  /// Appends `count` words to `out`.
  void words(std::vector<Word>& out, std::uint64_t count) {
    if (count > in.size() / sizeof(Word)) {
      bad_payload("truncated reading message words");
    }
    const std::size_t at = out.size();
    out.resize(at + count);
    if (count > 0) {
      std::memcpy(out.data() + at, in.data(), count * sizeof(Word));
      in = in.subspan(count * sizeof(Word));
    }
  }
};

struct Run {
  std::uint64_t peer;
  std::uint64_t frames;
  std::uint64_t words;
};

Run read_run_header(Cursor& cur, std::uint64_t num_machines) {
  Run r;
  r.peer = cur.varint("run peer");
  if (r.peer >= num_machines) {
    bad_payload("run peer " + std::to_string(r.peer) + " out of range");
  }
  r.frames = cur.count("run frame count", 1);
  if (r.frames == 0) bad_payload("empty run");
  r.words = cur.count("run word count", sizeof(Word));
  return r;
}

/// Reads a run's frame lengths, handing each to frame(offset_in_run,
/// length), and checks they sum to the run's words.
template <typename FrameFn>
void read_frame_lengths(Cursor& cur, const Run& r, FrameFn&& frame) {
  std::uint64_t at = 0;
  for (std::uint64_t i = 0; i < r.frames; ++i) {
    const std::uint64_t len = cur.varint("frame length");
    if (len > r.words - at) {
      bad_payload("frame lengths sum past the run's " +
                  std::to_string(r.words) + " words");
    }
    frame(at, len);
    at += len;
  }
  if (at != r.words) {
    bad_payload("frame lengths sum to " + std::to_string(at) +
                " of the run's " + std::to_string(r.words) + " words");
  }
}

/// Appends the header and frame lengths of the run `frames` (a span of
/// Frame or InboxFrame) and returns its word count.
template <typename F>
std::uint64_t append_run_header(std::vector<std::byte>& out,
                                std::uint64_t peer, std::span<const F> frames) {
  std::uint64_t words = 0;
  for (const F& f : frames) words += f.len;
  append_varint(out, peer);
  append_varint(out, frames.size());
  append_varint(out, words);
  for (const F& f : frames) append_varint(out, f.len);
  return words;
}

bool in_range(std::uint64_t m, std::uint64_t first, std::uint64_t last) {
  return m >= first && m < last;
}

}  // namespace

void Engine::serialize_machines(std::uint64_t first, std::uint64_t last,
                                std::vector<std::byte>& out) {
  for (std::uint64_t m = first; m < last; ++m) {
    Outbox& o = staging_[m];
    append_varint(out, outbox_words_[m]);
    append_varint(out, resident_words_[m]);
    append_varint(out, writer_open_[m]);
    const std::size_t n = o.frames.size();
    // A run ends where the destination changes.
    const auto run_end = [&](std::size_t i) {
      std::size_t j = i + 1;
      while (j < n && o.frames[j].to == o.frames[i].to) ++j;
      return j;
    };
    std::uint64_t shipped_runs = 0;
    for (std::size_t i = 0; i < n; i = run_end(i)) {
      if (!in_range(o.frames[i].to, first, last)) ++shipped_runs;
    }
    append_varint(out, shipped_runs);
    for (std::size_t i = 0, j = 0; i < n; i = j) {
      j = run_end(i);
      const MachineId to = o.frames[i].to;
      if (in_range(to, first, last)) {
        // Resident: this worker delivers it, in sender-id order since
        // senders are visited ascending.
        for (std::size_t k = i; k < j; ++k) {
          const Frame& f = o.frames[k];
          next_frames_[to].push_back({static_cast<MachineId>(m), f.offset,
                                      f.len});
          next_inbox_words_[to] += f.len;
        }
        continue;
      }
      const std::uint64_t words = append_run_header(
          out, to, std::span<const Frame>(o.frames).subspan(i, j - i));
      const std::size_t at = out.size();
      out.resize(at + words * sizeof(Word));
      if (words > 0) {
        std::memcpy(out.data() + at, o.words.data() + o.frames[i].offset,
                    words * sizeof(Word));
      }
    }
    // Consumed, as the coordinator's merge consumes staged frames.
    o.frames.clear();
  }
  std::uint64_t destinations = 0;
  for (std::uint64_t d = first; d < last; ++d) {
    if (!next_frames_[d].empty()) ++destinations;
  }
  append_varint(out, destinations);
  for (std::uint64_t d = first; d < last; ++d) {
    if (next_frames_[d].empty()) continue;
    append_varint(out, d);
    append_varint(out, next_frames_[d].size());
    append_varint(out, next_inbox_words_[d]);
  }
}

void Engine::apply_machines(std::uint64_t first, std::uint64_t last,
                            std::span<const std::byte> bytes) {
  Cursor cur{bytes};
  std::uint64_t outbox_total = 0;
  std::uint64_t shipped_total = 0;
  for (std::uint64_t m = first; m < last; ++m) {
    remote_[m] = 1;
    outbox_words_[m] = cur.varint("outbox words");
    resident_words_[m] = cur.varint("resident words");
    const std::uint64_t writer_open = cur.varint("writer-open flag");
    if (writer_open > 1) bad_payload("invalid writer-open flag");
    writer_open_[m] = static_cast<char>(writer_open);
    if (outbox_words_[m] > ~outbox_total) bad_payload("outbox words overflow");
    outbox_total += outbox_words_[m];

    // Each run takes at least 4 bytes: peer, counts, one frame length.
    const std::uint64_t runs = cur.count("run count", 4);
    Outbox& o = staging_[m];
    for (std::uint64_t r = 0; r < runs; ++r) {
      const Run run = read_run_header(cur, num_machines());
      if (in_range(run.peer, first, last)) {
        bad_payload("machine " + std::to_string(m) + " shipped a run to " +
                    std::to_string(run.peer) +
                    ", inside its own shard's range");
      }
      const auto to = static_cast<MachineId>(run.peer);
      const std::uint64_t base = o.words.size();
      read_frame_lengths(cur, run, [&](std::uint64_t at, std::uint64_t len) {
        o.frames.push_back({to, base + at, len});
      });
      cur.words(o.words, run.words);
      shipped_total += run.words;
    }
  }
  if (shipped_total > outbox_total) {
    bad_payload("shipped words exceed the shard's outbox words");
  }

  // Resident counts: one (destination, frames, words) triple per
  // destination in the range that its own shard sent to.
  std::uint64_t resident_total = 0;
  std::uint64_t resident_frames = 0;
  const std::uint64_t destinations = cur.count("resident destination count", 3);
  for (std::uint64_t i = 0, prev = 0; i < destinations; ++i) {
    const std::uint64_t d = cur.varint("resident destination");
    const std::uint64_t frames = cur.varint("resident frame count");
    const std::uint64_t words = cur.varint("resident word count");
    if (!in_range(d, first, last)) {
      bad_payload("resident count for machine " + std::to_string(d) +
                  ", outside the sending shard's range [" +
                  std::to_string(first) + ", " + std::to_string(last) + ")");
    }
    if (i > 0 && d <= prev) bad_payload("resident destinations not ascending");
    if (frames == 0) bad_payload("resident count with no frames");
    if (words > outbox_total - shipped_total - resident_total) {
      bad_payload("resident words exceed the shard's outbox words");
    }
    prev = d;
    resident_total += words;
    resident_frames += frames;
    next_inbox_words_[d] += words;
    next_resident_frames_[d] += frames;
  }
  if (shipped_total + resident_total != outbox_total) {
    bad_payload("shipped and resident words do not add up to the shard's "
                "outbox words");
  }
  if (!cur.in.empty()) bad_payload("trailing bytes after the resident counts");
  resident_pending_ = true;
  obs::count("exec.resident_frames", resident_frames);
  obs::count("exec.resident_words", resident_total);
}

// ------------------------------------------------ shard job plane --

void Engine::serialize_round_input(std::uint64_t first, std::uint64_t last,
                                   std::vector<std::byte>& out) const {
  if (delivery_skipped_) {
    // An undelivered round left frames pending on both sides of the
    // wire, interleaved in an order neither side has in full.
    throw RemoteInboxError(
        "Engine: an earlier round of this job stopped before delivery, so "
        "the inboxes of worker-owned machines [" +
            std::to_string(first) + ", " + std::to_string(last) +
            ") cannot be rebuilt; restart the job",
        first);
  }
  append_varint(out, resident_live_ ? 1 : 0);
  for (std::uint64_t m = first; m < last; ++m) {
    const std::vector<InboxFrame>& frames = inbox_frames_[m];
    append_varint(out, inbox_words_[m]);
    append_varint(out, frames.size() + inbox_resident_frames_[m]);
    const std::size_t n = frames.size();
    // Frames are sender-ordered, so a run is all of one sender's.
    const auto run_end = [&](std::size_t i) {
      std::size_t j = i + 1;
      while (j < n && frames[j].from == frames[i].from) ++j;
      return j;
    };
    std::uint64_t runs = 0;
    for (std::size_t i = 0; i < n; i = run_end(i)) ++runs;
    append_varint(out, runs);
    for (std::size_t i = 0, j = 0; i < n; i = j) {
      j = run_end(i);
      const std::uint64_t words = append_run_header(
          out, frames[i].from,
          std::span<const InboxFrame>(frames).subspan(i, j - i));
      // A sender's frames to one machine are scattered through its
      // arena: one copy per frame.
      const std::size_t start = out.size();
      out.resize(start + words * sizeof(Word));
      std::byte* at = out.data() + start;
      const Word* slab = slabs_[frames[i].from].words.data();
      for (std::size_t k = i; k < j; ++k) {
        const std::size_t bytes = frames[k].len * sizeof(Word);
        if (bytes > 0) std::memcpy(at, slab + frames[k].offset, bytes);
        at += bytes;
      }
    }
  }
}

void Engine::apply_round_input(std::uint64_t first, std::uint64_t last,
                               std::span<const std::byte> bytes) {
  Cursor cur{bytes};
  const std::uint64_t live = cur.varint("resident flag");
  if (live > 1) bad_payload("invalid resident flag");

  // Worker side. Shipped payloads of the previous round are spent. The
  // range's own arenas from the previous round back this round's
  // resident frames when they are live, and are dropped when a central
  // round consumed them in between. Capacity is kept throughout, so
  // steady-state rounds avoid the allocator.
  for (MachineId s = 0; s < num_machines(); ++s) {
    if (!in_range(s, first, last)) {
      slabs_[s].words.clear();
      continue;
    }
    if (live) {
      std::swap(slabs_[s], staging_[s]);
    } else {
      slabs_[s].words.clear();
      next_frames_[s].clear();
      next_inbox_words_[s] = 0;
    }
    staging_[s].words.clear();
    staging_[s].frames.clear();
    outbox_words_[s] = 0;
    resident_words_[s] = 0;
    writer_open_[s] = 0;
  }
  for (std::vector<InboxFrame>& f : inbox_frames_) f.clear();
  std::fill(inbox_words_.begin(), inbox_words_.end(), 0);
  std::fill(inbox_cache_valid_.begin(), inbox_cache_valid_.end(), 0);

  for (std::uint64_t m = first; m < last; ++m) {
    const std::uint64_t in_words = cur.varint("inbox word total");
    const std::uint64_t in_frames = cur.varint("inbox frame total");
    std::vector<InboxFrame>& inbox = inbox_frames_[m];
    std::vector<InboxFrame>& resident = next_frames_[m];
    std::uint64_t words = next_inbox_words_[m];
    bool merged = false;
    // Sender-id order: shipped runs from senders below the range, the
    // range's own senders (resident, already in order), then the rest.
    const auto merge_resident = [&] {
      inbox.insert(inbox.end(), resident.begin(), resident.end());
      merged = true;
    };
    const std::uint64_t runs = cur.count("run count", 4);
    for (std::uint64_t r = 0, prev = 0; r < runs; ++r) {
      const Run run = read_run_header(cur, num_machines());
      if (in_range(run.peer, first, last)) {
        bad_payload("shipped sender " + std::to_string(run.peer) +
                    " is inside the receiving shard's range [" +
                    std::to_string(first) + ", " + std::to_string(last) +
                    ")");
      }
      if (r > 0 && run.peer <= prev) {
        bad_payload("shipped senders not ascending");
      }
      prev = run.peer;
      if (!merged && run.peer >= last) merge_resident();
      const auto from = static_cast<MachineId>(run.peer);
      std::vector<Word>& slab = slabs_[from].words;
      const std::uint64_t base = slab.size();
      read_frame_lengths(cur, run, [&](std::uint64_t at, std::uint64_t len) {
        inbox.push_back({from, base + at, len});
      });
      cur.words(slab, run.words);
      words += run.words;
    }
    if (!merged) merge_resident();
    if (inbox.size() != in_frames || words != in_words) {
      bad_payload("machine " + std::to_string(m) + " inbox totals (" +
                  std::to_string(in_frames) + " frames, " +
                  std::to_string(in_words) +
                  " words) do not match its shipped and resident messages (" +
                  std::to_string(inbox.size()) + ", " +
                  std::to_string(words) + ")");
    }
    inbox_words_[m] = in_words;
    resident.clear();
    next_inbox_words_[m] = 0;
  }
  if (!cur.in.empty()) bad_payload("trailing bytes after the last machine");
}

void Engine::run_registered(std::uint64_t round_id, std::uint64_t machine,
                            std::span<const std::uint64_t> params) {
  MRLR_REQUIRE(round_id < rounds_.size(),
               "run_registered: undefined round id");
  MachineContext ctx(*this, static_cast<MachineId>(machine));
  rounds_[round_id].fn(ctx, params);
}

}  // namespace mrlr::mrc
