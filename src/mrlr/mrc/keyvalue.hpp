#pragma once
// The literal MRC programming model of Karloff, Suri and Vassilvitskii:
// data is a multiset of (key, value) pairs; one MapReduce round applies a
// *mapper* to every pair, shuffles the emitted pairs by key, and applies
// a *reducer* to each key group. The paper's algorithms are written
// against the friendlier Engine interface (Section 1.3 notes the map/
// reduce framing is "not particularly relevant" to them), but this layer
// exists so the substrate genuinely implements the model the paper is
// set in — and it is used by tests to cross-check the engine's
// accounting against the canonical formulation.
//
// Cost accounting: one MRC round costs two engine rounds (map+shuffle
// delivery, then reduce), and the shuffle traffic is audited against the
// per-machine cap like all other traffic. Keys are hashed to machines;
// the reducer for a key runs on the machine owning that key. A pair
// costs 2 + |value| words wherever it lives — key, length, value — so
// resident data and shuffle traffic are charged under one cost model.

#include <cstddef>
#include <functional>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "mrlr/mrc/engine.hpp"

namespace mrlr::mrc {

/// Thrown by decode_kv_frames when a shuffle message's framing is
/// corrupt (truncated header or a declared value length running past
/// the end of the payload).
class FramingError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Parses one shuffle payload framed as repeated [key, value_len,
/// value...] records, invoking fn(key, value) per record with a view
/// into the payload. Validates the framing: a trailing partial header
/// or a value_len exceeding the remaining words throws FramingError
/// instead of reading out of bounds.
template <typename Fn>
void decode_kv_frames(std::span<const Word> payload, Fn&& fn) {
  std::size_t i = 0;
  while (i < payload.size()) {
    if (payload.size() - i < 2) {
      throw FramingError(
          "kv shuffle framing: truncated record header at word " +
          std::to_string(i) + " of " + std::to_string(payload.size()));
    }
    const Word key = payload[i];
    const Word len = payload[i + 1];
    i += 2;
    if (len > payload.size() - i) {
      throw FramingError(
          "kv shuffle framing: key " + std::to_string(key) +
          " declares value_len " + std::to_string(len) + " but only " +
          std::to_string(payload.size() - i) + " words remain");
    }
    fn(key, payload.subspan(i, static_cast<std::size_t>(len)));
    i += static_cast<std::size_t>(len);
  }
}

struct KeyValue {
  Word key = 0;
  std::vector<Word> value;

  friend bool operator==(const KeyValue&, const KeyValue&) = default;
};

/// Mapper: consumes one pair, emits any number of pairs.
using Mapper = std::function<std::vector<KeyValue>(const KeyValue&)>;

/// Reducer: consumes a key and all values shuffled to it (in
/// deterministic sender/arrival order), emits any number of pairs that
/// become the key's data for the next round.
using Reducer = std::function<std::vector<KeyValue>(
    Word key, const std::vector<std::vector<Word>>& values)>;

class MapReduceJob {
 public:
  /// Distributes `input` round-robin across the engine's machines (the
  /// MRC model's arbitrary initial partition).
  MapReduceJob(Engine& engine, std::vector<KeyValue> input);

  /// Executes one MRC round (two engine rounds).
  void round(std::string_view label, const Mapper& map,
             const Reducer& reduce);

  /// Current data across all machines, sorted by (key, value) for
  /// deterministic inspection.
  std::vector<KeyValue> collect() const;

  /// Words of data resident on machine m, charged under the same cost
  /// model as the shuffle framing: 2 + |value| words per pair.
  std::uint64_t resident_words(MachineId m) const;

  Engine& engine() { return engine_; }

 private:
  MachineId machine_of_key(Word key) const;

  Engine& engine_;
  // data_[m] = pairs currently living on machine m.
  std::vector<std::vector<KeyValue>> data_;
};

}  // namespace mrlr::mrc
