#pragma once
// One frame per destination for rounds that send many small records.
//
// A round that sends fixed-width records (an (edge, side, phi) triple
// per incidence, a one-word death notice per edge end) would otherwise
// pay a frame per record: an index entry in the sender's staging arena,
// another in the receiver's inbox, and a run entry on the shard wire.
// The cost model counts words, not frames, so send_coalesced gathers a
// callback's records into per-destination lanes and sends each lane as
// one frame. A callback that counts its records per destination first
// uses send_counted, which writes them straight into frames staged in
// the arena: no lanes, no copy.
//
// Every inbox keeps exactly the word sequence per-record sends gave it:
// the merge still visits senders in id order, and each lane holds its
// sender's records to that destination in the order they were pushed.
// Only the frame boundaries inside one sender's contribution disappear,
// so receivers must decode by stride over a frame's payload. Rounds
// whose receivers (or inbox_size peeks) count frames must not use it.

#include <algorithm>
#include <initializer_list>
#include <span>
#include <utility>
#include <vector>

#include "mrlr/mrc/engine.hpp"
#include "mrlr/util/require.hpp"

namespace mrlr::mrc {

/// Per-destination record buffers of one machine's callback; filled by
/// the callback handed to send_coalesced.
class Lanes {
 public:
  explicit Lanes(std::uint64_t num_machines) : lanes_(num_machines) {}

  /// Appends one record to the lane for `to`.
  void push(MachineId to, std::initializer_list<Word> record) {
    append(to, std::span<const Word>(record.begin(), record.size()));
  }

  /// Appends raw words to the lane for `to`.
  void append(MachineId to, std::span<const Word> words) {
    MRLR_REQUIRE(to < lanes_.size(), "send to nonexistent machine");
    std::vector<Word>& lane = lanes_[to];
    lane.insert(lane.end(), words.begin(), words.end());
  }

 private:
  template <typename Fill>
  friend void send_coalesced(MachineContext& ctx, Fill&& fill);

  std::vector<std::vector<Word>> lanes_;
};

/// Runs `fill(Lanes&)`, then sends every non-empty lane as one frame
/// through send_batch, in ascending destination order, into an arena
/// sized for all of them up front. If `fill` throws,
/// nothing is sent (as with a MessageWriter dying on the unwind path).
template <typename Fill>
void send_coalesced(MachineContext& ctx, Fill&& fill) {
  Lanes lanes(ctx.num_machines());
  std::forward<Fill>(fill)(lanes);
  std::uint64_t total = 0;
  for (const std::vector<Word>& lane : lanes.lanes_) total += lane.size();
  ctx.reserve_outbox(total);
  for (MachineId to = 0; to < lanes.lanes_.size(); ++to) {
    std::vector<Word>& lane = lanes.lanes_[to];
    if (lane.empty()) continue;
    ctx.send_batch(to, lane);
    // Released as soon as it is copied, so the copy in the arena and
    // the lanes not yet sent are all that is live at once.
    std::vector<Word>().swap(lane);
  }
}

/// Write cursors into the frames send_counted stages, one per
/// destination.
class CountedLanes {
 public:
  /// Writes one record into the frame for `to`, in place.
  void push(MachineId to, std::initializer_list<Word> record) {
    MRLR_REQUIRE(to < at_.size(), "send to nonexistent machine");
    Word*& at = at_[to];
    MRLR_REQUIRE(record.size() <= static_cast<std::size_t>(end_[to] - at),
                 "send_counted: more words pushed than counted");
    at = std::copy(record.begin(), record.end(), at);
  }

 private:
  template <typename Fill>
  friend void send_counted(MachineContext& ctx,
                           std::span<const std::uint64_t> words, Fill&& fill);

  CountedLanes(std::span<Word> staged, std::span<const std::uint64_t> words)
      : at_(words.size()), end_(words.size()) {
    Word* p = staged.data();
    for (std::size_t to = 0; to < words.size(); ++to) {
      at_[to] = p;
      p += words[to];
      end_[to] = p;
    }
  }

  bool full() const { return at_ == end_; }

  std::vector<Word*> at_;
  std::vector<Word*> end_;
};

/// As send_coalesced, for a callback that counts its records first:
/// `words[to]` is exactly the number of words `fill` pushes to `to`. The
/// frames are staged in the arena before `fill` runs (see
/// MachineContext::stage_frames), so each record is written once, in
/// place: no lane buffers and no copy. Every inbox receives the words
/// and frames send_coalesced would deliver. If `fill` throws, nothing
/// is sent; pushing more or fewer words than counted fails MRLR_REQUIRE.
template <typename Fill>
void send_counted(MachineContext& ctx, std::span<const std::uint64_t> words,
                  Fill&& fill) {
  StagedFrames staged = ctx.stage_frames(words);
  CountedLanes lanes(staged.words(), words);
  std::forward<Fill>(fill)(lanes);
  MRLR_REQUIRE(lanes.full(), "send_counted: fewer words pushed than counted");
  staged.commit();
}

}  // namespace mrlr::mrc
