#include "mrlr/mrc/keyvalue.hpp"

#include <algorithm>
#include <map>

#include "mrlr/mrc/lanes.hpp"
#include "mrlr/util/rng.hpp"

namespace mrlr::mrc {

MapReduceJob::MapReduceJob(Engine& engine, std::vector<KeyValue> input)
    : engine_(engine), data_(engine.num_machines()) {
  for (std::size_t i = 0; i < input.size(); ++i) {
    data_[i % engine_.num_machines()].push_back(std::move(input[i]));
  }
}

MachineId MapReduceJob::machine_of_key(Word key) const {
  // Stateless splitmix64 hash spreads adversarial key patterns.
  std::uint64_t s = key;
  return static_cast<MachineId>(splitmix64_next(s) %
                                engine_.num_machines());
}

std::uint64_t MapReduceJob::resident_words(MachineId m) const {
  // Same cost model as the shuffle framing: key + length + value.
  std::uint64_t words = 0;
  for (const KeyValue& kv : data_[m]) words += 2 + kv.value.size();
  return words;
}

void MapReduceJob::round(std::string_view label, const Mapper& map,
                         const Reducer& reduce) {
  // Engine round 1: map local pairs, ship emissions keyed by target.
  // Message framing: [key, value_len, value...] repeated.
  engine_.run_round(label, [&](MachineContext& ctx) {
    ctx.charge_resident(resident_words(ctx.id()));
    // One frame per destination; the reducer decodes records by length.
    send_coalesced(ctx, [&](Lanes& out) {
      for (const KeyValue& kv : data_[ctx.id()]) {
        for (const KeyValue& emitted : map(kv)) {
          const MachineId to = machine_of_key(emitted.key);
          out.push(to, {emitted.key, emitted.value.size()});
          out.append(to, emitted.value);
        }
      }
    });
  });

  // Engine round 2: group received values by key and reduce.
  std::vector<std::vector<KeyValue>> next(engine_.num_machines());
  engine_.run_round(label, [&](MachineContext& ctx) {
    ctx.charge_resident(ctx.inbox_words());
    // std::map gives deterministic key order; values keep arrival order.
    std::map<Word, std::vector<std::vector<Word>>> groups;
    for (const MessageView msg : ctx.messages()) {
      decode_kv_frames(msg.payload, [&](Word key, std::span<const Word> v) {
        groups[key].emplace_back(v.begin(), v.end());
      });
    }
    for (const auto& [key, values] : groups) {
      for (KeyValue& out : reduce(key, values)) {
        next[ctx.id()].push_back(std::move(out));
      }
    }
  });
  data_ = std::move(next);
}

std::vector<KeyValue> MapReduceJob::collect() const {
  std::vector<KeyValue> all;
  for (const auto& part : data_) {
    all.insert(all.end(), part.begin(), part.end());
  }
  std::sort(all.begin(), all.end(), [](const KeyValue& a, const KeyValue& b) {
    if (a.key != b.key) return a.key < b.key;
    return a.value < b.value;
  });
  return all;
}

}  // namespace mrlr::mrc
