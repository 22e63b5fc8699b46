// Tests for the flat-buffer message layer: the MessageWriter /
// send_batch arena encode path, span-view decode, slab move-merge
// delivery, and equality with the legacy owned-payload send path on
// adversarial workloads, across execution backends.

#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "mrlr/exec/serial_executor.hpp"
#include "mrlr/exec/thread_pool_executor.hpp"
#include "mrlr/mrc/engine.hpp"
#include "mrlr/mrc/lanes.hpp"
#include "mrlr/mrc/trace.hpp"
#include "mrlr/util/rng.hpp"

namespace mrlr::mrc {
namespace {

Topology topo(std::uint64_t machines, std::uint64_t cap = 1 << 20) {
  Topology t;
  t.num_machines = machines;
  t.words_per_machine = cap;
  t.fanout = 2;
  return t;
}

// ------------------------------------------------- coalesced records --

enum class SendMode { kPerRecord, kCoalesced, kCounted };

// Machine s sends records {s, i} to destination (s + i) % M for
// i = 0..7, in that order: destinations interleave within one sender.
void send_interleaved_records(MachineContext& ctx, SendMode mode) {
  const MachineId machines = static_cast<MachineId>(ctx.num_machines());
  const auto to = [&](Word i) {
    return static_cast<MachineId>((ctx.id() + i) % machines);
  };
  switch (mode) {
    case SendMode::kPerRecord:
      for (Word i = 0; i < 8; ++i) ctx.send(to(i), {ctx.id(), i});
      return;
    case SendMode::kCoalesced:
      send_coalesced(ctx, [&](Lanes& out) {
        for (Word i = 0; i < 8; ++i) out.push(to(i), {ctx.id(), i});
      });
      return;
    case SendMode::kCounted: {
      std::vector<std::uint64_t> words(machines, 0);
      for (Word i = 0; i < 8; ++i) words[to(i)] += 2;
      send_counted(ctx, words, [&](CountedLanes& out) {
        for (Word i = 0; i < 8; ++i) out.push(to(i), {ctx.id(), i});
      });
      return;
    }
  }
}

// Per machine: its inbox's words in delivery order, and its frame count.
struct Delivered {
  std::vector<std::vector<Word>> words;
  std::vector<std::uint64_t> frames;
};

Delivered deliver_records(SendMode mode) {
  Engine e(topo(3));
  Delivered d{std::vector<std::vector<Word>>(3),
              std::vector<std::uint64_t>(3)};
  e.run_round("send", [&](MachineContext& ctx) {
    send_interleaved_records(ctx, mode);
  });
  e.run_round("recv", [&](MachineContext& ctx) {
    d.frames[ctx.id()] = ctx.inbox_size();
    for (const MessageView m : ctx.messages()) {
      d.words[ctx.id()].insert(d.words[ctx.id()].end(), m.payload.begin(),
                               m.payload.end());
    }
  });
  return d;
}

TEST(Lanes, OneFramePerDestinationWithTheSameWords) {
  const Delivered per_record = deliver_records(SendMode::kPerRecord);
  const Delivered coalesced = deliver_records(SendMode::kCoalesced);
  EXPECT_EQ(coalesced.words, per_record.words);
  for (MachineId m = 0; m < 3; ++m) {
    EXPECT_EQ(per_record.frames[m], 8u);  // every sender's records to m
    EXPECT_EQ(coalesced.frames[m], 3u);   // one frame per sender
  }
}

TEST(CountedLanes, DeliversWhatSendCoalescedDelivers) {
  const Delivered coalesced = deliver_records(SendMode::kCoalesced);
  const Delivered counted = deliver_records(SendMode::kCounted);
  EXPECT_EQ(counted.words, coalesced.words);
  EXPECT_EQ(counted.frames, coalesced.frames);
}

TEST(CountedLanes, SkipsDestinationsCountedEmpty) {
  Engine e(topo(4));
  e.run_round("send", [](MachineContext& ctx) {
    if (!ctx.is_central()) return;
    const std::vector<std::uint64_t> words{0, 1, 0, 2};
    send_counted(ctx, words, [](CountedLanes& out) {
      out.push(3, {30});
      out.push(1, {10});
      out.push(3, {31});
    });
  });
  EXPECT_EQ(e.metrics().per_round().back().total_sent, 3u);
  e.run_round("recv", [](MachineContext& ctx) {
    const bool gets = ctx.id() == 1 || ctx.id() == 3;
    ASSERT_EQ(ctx.inbox_size(), gets ? 1u : 0u);
    if (!gets) return;
    const MessageView m = ctx.message(0);
    const std::vector<Word> got(m.payload.begin(), m.payload.end());
    const std::vector<Word> want =
        ctx.id() == 1 ? std::vector<Word>{10} : std::vector<Word>{30, 31};
    EXPECT_EQ(got, want);
  });
}

TEST(CountedLanes, ThrowingFillSendsNothingAndFreesTheMachine) {
  Engine e(topo(2));
  e.run_round("send", [](MachineContext& ctx) {
    if (!ctx.is_central()) return;
    const std::vector<std::uint64_t> words{0, 3};
    EXPECT_THROW(send_counted(ctx, words,
                              [](CountedLanes& out) {
                                out.push(1, {1, 2});
                                throw std::runtime_error("fill failed");
                              }),
                 std::runtime_error);
    ctx.send(1, {7});  // the rolled-back block left no writer open
  });
  EXPECT_EQ(e.metrics().per_round().back().total_sent, 1u);
  e.run_round("recv", [](MachineContext& ctx) {
    if (ctx.id() != 1) return;
    ASSERT_EQ(ctx.inbox_size(), 1u);
    EXPECT_EQ(ctx.message(0).payload[0], 7u);
  });
}

TEST(CountedLanes, MiscountedFillDies) {
  const auto push_short = [] {
    Engine e(topo(2));
    e.run_round("send", [](MachineContext& ctx) {
      const std::vector<std::uint64_t> words{0, 2};
      send_counted(ctx, words, [](CountedLanes& out) { out.push(1, {1}); });
    });
  };
  const auto push_long = [] {
    Engine e(topo(2));
    e.run_round("send", [](MachineContext& ctx) {
      const std::vector<std::uint64_t> words{0, 1};
      send_counted(ctx, words,
                   [](CountedLanes& out) { out.push(1, {1, 2}); });
    });
  };
  EXPECT_DEATH(push_short(), "fewer words pushed than counted");
  EXPECT_DEATH(push_long(), "more words pushed than counted");
}

TEST(ReserveOutbox, ChangesNoDeliveredWord) {
  const auto run = [](bool reserve) {
    Engine e(topo(3));
    std::vector<Word> got;
    e.run_round("send", [&](MachineContext& ctx) {
      if (reserve) ctx.reserve_outbox(1000);
      ctx.send(0, {ctx.id(), 1});
      MessageWriter w = ctx.begin_message(0);
      w.push(ctx.id() + 10);
    });
    e.run_round("recv", [&](MachineContext& ctx) {
      if (!ctx.is_central()) return;
      for (const MessageView m : ctx.messages()) {
        got.insert(got.end(), m.payload.begin(), m.payload.end());
      }
    });
    return std::make_pair(got, e.metrics().total_communication());
  };
  EXPECT_EQ(run(true), run(false));
}

TEST(Lanes, FramesLeaveInAscendingDestinationOrder) {
  Engine e(topo(4));
  e.run_round("send", [](MachineContext& ctx) {
    if (!ctx.is_central()) return;
    send_coalesced(ctx, [](Lanes& out) {
      out.push(3, {30});
      out.push(1, {10});
      out.push(3, {31});
    });
  });
  EXPECT_EQ(e.metrics().per_round().back().total_sent, 3u);
  e.run_round("recv", [](MachineContext& ctx) {
    if (ctx.id() == 2 || ctx.is_central()) {
      EXPECT_EQ(ctx.inbox_size(), 0u);
      return;
    }
    ASSERT_EQ(ctx.inbox_size(), 1u);
    const MessageView m = ctx.message(0);
    const std::vector<Word> got(m.payload.begin(), m.payload.end());
    const std::vector<Word> want =
        ctx.id() == 1 ? std::vector<Word>{10} : std::vector<Word>{30, 31};
    EXPECT_EQ(got, want);
  });
}

TEST(Lanes, ThrowingFillSendsNothing) {
  Engine e(topo(2));
  e.run_round("send", [](MachineContext& ctx) {
    if (!ctx.is_central()) return;
    EXPECT_THROW(send_coalesced(ctx,
                                [](Lanes& out) {
                                  out.push(1, {1, 2, 3});
                                  throw std::runtime_error("fill failed");
                                }),
                 std::runtime_error);
  });
  EXPECT_EQ(e.metrics().per_round().back().total_sent, 0u);
  e.run_round("recv", [](MachineContext& ctx) {
    EXPECT_EQ(ctx.inbox_size(), 0u);
  });
}

// ------------------------------------------------------- writer basics --

TEST(MessageWriter, BuildsOneContiguousMessage) {
  Engine e(topo(3));
  e.run_round("send", [](MachineContext& ctx) {
    if (ctx.id() != 1) return;
    MessageWriter w = ctx.begin_message(2);
    w.push(10);
    const std::vector<Word> tail{11, 12};
    w.append(tail);
    EXPECT_EQ(w.size(), 3u);
  });
  e.run_round("recv", [](MachineContext& ctx) {
    if (ctx.id() != 2) return;
    ASSERT_EQ(ctx.inbox_size(), 1u);
    const MessageView m = ctx.message(0);
    EXPECT_EQ(m.from, 1u);
    EXPECT_EQ(std::vector<Word>(m.payload.begin(), m.payload.end()),
              (std::vector<Word>{10, 11, 12}));
  });
}

TEST(MessageWriter, CancelSendsNothingAndChargesNothing) {
  Engine e(topo(2));
  e.run_round("send", [](MachineContext& ctx) {
    if (!ctx.is_central()) return;
    {
      MessageWriter w = ctx.begin_message(1);
      w.push(1);
      w.push(2);
      w.cancel();
    }
    // The arena must have rolled back: a subsequent message is intact.
    ctx.send(1, {7});
  });
  EXPECT_EQ(e.metrics().per_round().back().total_sent, 1u);
  e.run_round("recv", [](MachineContext& ctx) {
    if (ctx.id() != 1) return;
    ASSERT_EQ(ctx.inbox_size(), 1u);
    ASSERT_EQ(ctx.message(0).payload.size(), 1u);
    EXPECT_EQ(ctx.message(0).payload[0], 7u);
  });
}

TEST(MessageWriter, EmptyCommitDeliversEmptyMessage) {
  // Parity with the legacy path: send(to, {}) delivers a 0-word message.
  Engine e(topo(2));
  e.run_round("send", [](MachineContext& ctx) {
    if (!ctx.is_central()) return;
    { MessageWriter w = ctx.begin_message(1); }
    ctx.send(1, std::vector<Word>{});
  });
  e.run_round("recv", [](MachineContext& ctx) {
    if (ctx.id() != 1) return;
    EXPECT_EQ(ctx.inbox_size(), 2u);
    EXPECT_EQ(ctx.inbox_words(), 0u);
    for (const MessageView m : ctx.messages()) {
      EXPECT_TRUE(m.payload.empty());
    }
  });
}

TEST(MessageWriter, InterleavedPlainSendDies) {
  Engine e(topo(2));
  EXPECT_DEATH(e.run_round("send",
                           [](MachineContext& ctx) {
                             if (!ctx.is_central()) return;
                             MessageWriter w = ctx.begin_message(1);
                             w.push(1);
                             ctx.send(1, {2});  // would corrupt w's frame
                           }),
               "MessageWriter");
}

TEST(MessageWriter, SecondOpenWriterDies) {
  Engine e(topo(2));
  EXPECT_DEATH(e.run_round("send",
                           [](MachineContext& ctx) {
                             if (!ctx.is_central()) return;
                             MessageWriter a = ctx.begin_message(1);
                             MessageWriter b = ctx.begin_message(1);
                           }),
               "MessageWriter");
}

// ------------------------------------------------- shim / view parity --

TEST(InboxShim, MaterializedInboxMatchesViews) {
  Engine e(topo(4));
  e.run_round("send", [](MachineContext& ctx) {
    for (MachineId to = 0; to < 4; ++to) {
      ctx.send(to, {ctx.id(), to, 99});
    }
  });
  e.run_round("check", [](MachineContext& ctx) {
    const std::vector<Message>& owned = ctx.inbox();
    ASSERT_EQ(owned.size(), ctx.inbox_size());
    ASSERT_EQ(owned.size(), ctx.messages().size());
    std::size_t i = 0;
    for (const MessageView v : ctx.messages()) {
      EXPECT_EQ(owned[i].from, v.from);
      EXPECT_EQ(owned[i].payload,
                std::vector<Word>(v.payload.begin(), v.payload.end()));
      ++i;
    }
  });
}

TEST(PendingInbox, ExposesStagedMessagesAfterSpaceThrow) {
  Engine e(topo(2, /*cap=*/4));
  try {
    e.run_round("send", [](MachineContext& ctx) {
      if (ctx.is_central()) ctx.send(1, {1, 2, 3, 4, 5});
    });
    FAIL() << "expected SpaceLimitExceeded";
  } catch (const SpaceLimitExceeded&) {
  }
  const std::vector<Message>& pending = e.pending_inbox(1);
  ASSERT_EQ(pending.size(), 1u);
  EXPECT_EQ(pending[0].from, 0u);
  EXPECT_EQ(pending[0].payload, (std::vector<Word>{1, 2, 3, 4, 5}));
}

TEST(PendingInbox, NoDoubleDeliveryWhenEngineReusedAfterThrow) {
  // Regression: staged frames must be consumed by the merge even when
  // the audit throws, or the next round re-merges them and every
  // message from the violating round arrives twice.
  Engine e(topo(2, /*cap=*/4));
  try {
    e.run_round("violate", [](MachineContext& ctx) {
      if (ctx.is_central()) ctx.send(1, {1, 2, 3, 4, 5});  // outbox 5 > 4
    });
    FAIL() << "expected SpaceLimitExceeded";
  } catch (const SpaceLimitExceeded&) {
  }
  ASSERT_EQ(e.pending_inbox(1).size(), 1u);
  // Next round is legal (outbox 1 <= cap; the violating message was
  // never delivered so machine 1's current inbox is still empty) and
  // must deliver the pending message exactly once, alongside the new
  // traffic — not re-merge it into a duplicate.
  e.run_round("after", [](MachineContext& ctx) {
    if (ctx.is_central()) ctx.send(1, {9});
  });
  EXPECT_TRUE(e.pending_inbox(1).empty());
  // The delivered 6-word inbox now itself exceeds the cap: the read
  // round's callback observes it (callbacks run before the audit), and
  // the audit then reports the violation.
  try {
    e.run_round("read", [](MachineContext& ctx) {
      if (ctx.id() != 1) return;
      ASSERT_EQ(ctx.inbox_size(), 2u);
      EXPECT_EQ(std::vector<Word>(ctx.message(0).payload.begin(),
                                  ctx.message(0).payload.end()),
                (std::vector<Word>{1, 2, 3, 4, 5}));
      EXPECT_EQ(std::vector<Word>(ctx.message(1).payload.begin(),
                                  ctx.message(1).payload.end()),
                (std::vector<Word>{9}));
    });
    FAIL() << "expected SpaceLimitExceeded (6-word inbox over cap 4)";
  } catch (const SpaceLimitExceeded&) {
  }
}

// -------------------------------------------- adversarial round-trips --

/// One message of a synthetic workload.
struct SentMsg {
  MachineId from;
  MachineId to;
  std::vector<Word> payload;
};

enum class Shape { kEmpty, kMaxLen, kManyTiny, kAllToOne, kMixed };

std::vector<SentMsg> make_workload(Shape shape, std::uint64_t machines,
                                   std::uint64_t seed) {
  Rng rng(seed);
  std::vector<SentMsg> ms;
  const auto M = static_cast<MachineId>(machines);
  switch (shape) {
    case Shape::kEmpty:
      // Every machine sends several empty messages; framing must carry
      // them even though they contribute zero words.
      for (MachineId s = 0; s < M; ++s) {
        for (int k = 0; k < 5; ++k) {
          ms.push_back({s, static_cast<MachineId>(rng.uniform(machines)), {}});
        }
      }
      break;
    case Shape::kMaxLen: {
      // A few senders ship one near-cap message each.
      for (MachineId s = 0; s < M; ++s) {
        std::vector<Word> big(4096);
        for (Word& w : big) w = rng();
        ms.push_back({s, static_cast<MachineId>((s + 1) % M),
                      std::move(big)});
      }
      break;
    }
    case Shape::kManyTiny:
      for (MachineId s = 0; s < M; ++s) {
        for (int k = 0; k < 300; ++k) {
          ms.push_back({s, static_cast<MachineId>((s + k) % M),
                        {rng(), static_cast<Word>(k)}});
        }
      }
      break;
    case Shape::kAllToOne:
      // Skew: everything converges on the central machine.
      for (MachineId s = 0; s < M; ++s) {
        for (int k = 0; k < 50; ++k) {
          std::vector<Word> p(1 + rng.uniform(7));
          for (Word& w : p) w = rng();
          ms.push_back({s, kCentral, std::move(p)});
        }
      }
      break;
    case Shape::kMixed:
      for (MachineId s = 0; s < M; ++s) {
        for (int k = 0; k < 40; ++k) {
          std::vector<Word> p(rng.uniform(33));
          for (Word& w : p) w = rng();
          ms.push_back({s, static_cast<MachineId>(rng.uniform(machines)),
                        std::move(p)});
        }
      }
      break;
  }
  return ms;
}

/// Runs the workload through one engine round and fingerprints every
/// delivered (receiver, sender, payload) plus the full metrics trace.
/// `arena` selects the encode/decode pair: MessageWriter + span views
/// versus the legacy owned-vector send + materialized inbox().
std::string run_fingerprint(const std::vector<SentMsg>& ms,
                            std::uint64_t machines, bool arena,
                            std::shared_ptr<exec::Executor> ex) {
  Engine e(topo(machines), std::move(ex));
  e.run_round("send", [&](MachineContext& ctx) {
    for (const SentMsg& m : ms) {
      if (m.from != ctx.id()) continue;
      if (arena) {
        MessageWriter w = ctx.begin_message(m.to);
        w.append(m.payload);
      } else {
        ctx.send(m.to, m.payload);
      }
    }
  });
  std::vector<std::string> lines(machines);
  e.run_round("recv", [&](MachineContext& ctx) {
    std::ostringstream os;
    os << "machine " << ctx.id() << " words=" << ctx.inbox_words() << "\n";
    if (arena) {
      for (const MessageView m : ctx.messages()) {
        os << "  from " << m.from << ":";
        for (const Word w : m.payload) os << " " << w;
        os << "\n";
      }
    } else {
      for (const Message& m : ctx.inbox()) {
        os << "  from " << m.from << ":";
        for (const Word w : m.payload) os << " " << w;
        os << "\n";
      }
    }
    lines[ctx.id()] = os.str();  // per-machine slot: no race
  });
  std::ostringstream os;
  for (const std::string& l : lines) os << l;
  write_trace_csv(e.metrics(), os);
  return os.str();
}

TEST(ArenaRoundTrip, MatchesLegacyPathOnAdversarialShapes) {
  for (const Shape shape : {Shape::kEmpty, Shape::kMaxLen, Shape::kManyTiny,
                            Shape::kAllToOne, Shape::kMixed}) {
    for (const std::uint64_t machines : {1ull, 3ull, 8ull}) {
      const auto ms =
          make_workload(shape, machines, 100 + static_cast<int>(shape));
      const std::string legacy = run_fingerprint(
          ms, machines, /*arena=*/false,
          std::make_shared<exec::SerialExecutor>());
      const std::string arena = run_fingerprint(
          ms, machines, /*arena=*/true,
          std::make_shared<exec::SerialExecutor>());
      EXPECT_EQ(legacy, arena)
          << "shape=" << static_cast<int>(shape) << " machines=" << machines;
    }
  }
}

TEST(ArenaRoundTrip, ByteIdenticalAcrossBackends) {
  for (const Shape shape : {Shape::kManyTiny, Shape::kAllToOne,
                            Shape::kMixed}) {
    const std::uint64_t machines = 8;
    const auto ms = make_workload(shape, machines, 7);
    const std::string serial = run_fingerprint(
        ms, machines, /*arena=*/true, std::make_shared<exec::SerialExecutor>());
    for (const unsigned threads : {1u, 2u, 8u}) {
      EXPECT_EQ(serial,
                run_fingerprint(
                    ms, machines, /*arena=*/true,
                    std::make_shared<exec::ThreadPoolExecutor>(threads)))
          << "shape=" << static_cast<int>(shape) << " threads=" << threads;
    }
  }
}

TEST(ArenaReuse, SteadyStateRoundsStayCorrect) {
  // Slabs and staging buffers swap roles every round; contents must stay
  // exact over many rounds of shifting traffic.
  const std::uint64_t machines = 5;
  Engine e(topo(machines));
  for (std::uint64_t round = 0; round < 60; ++round) {
    e.run_round("shift", [&](MachineContext& ctx) {
      // Check what arrived from the previous round.
      if (round > 0) {
        ASSERT_EQ(ctx.inbox_size(), 1u);
        const MessageView m = ctx.message(0);
        const auto expect_from = static_cast<MachineId>(
            (ctx.id() + machines - (round - 1) % machines) % machines);
        EXPECT_EQ(m.from, expect_from);
        ASSERT_EQ(m.payload.size(), 2u + (round - 1) % 3);
        EXPECT_EQ(m.payload[0], round - 1);
        EXPECT_EQ(m.payload[1], m.from);
      }
      // Send to a rotating neighbour with a round-varying length.
      const auto to =
          static_cast<MachineId>((ctx.id() + round % machines) % machines);
      MessageWriter w = ctx.begin_message(to);
      w.push(round);
      w.push(ctx.id());
      for (std::uint64_t k = 0; k < round % 3; ++k) w.push(k);
    });
  }
}

}  // namespace
}  // namespace mrlr::mrc
