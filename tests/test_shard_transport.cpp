// Adversarial tests for the shard transport (exec/shard_transport.hpp):
// frame round-trips over real socketpairs, and the typed TransportError
// taxonomy on truncated, corrupt, reordered, oversized, and misrouted
// frames — a bad peer must fail loudly with the precise kind, never
// deadlock or silently merge.

#include <gtest/gtest.h>

#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

#include "mrlr/exec/shard_transport.hpp"

namespace mrlr::exec {
namespace {

std::vector<std::byte> bytes_of(std::initializer_list<unsigned> vals) {
  std::vector<std::byte> out;
  for (const unsigned v : vals) out.push_back(static_cast<std::byte>(v));
  return out;
}

/// In-memory loopback channel: writes append to a buffer, reads drain
/// it. Lets tests hand-craft corrupt byte streams without an OS pipe.
class MemChannel final : public ShardChannel {
 public:
  void write_all(const std::byte* data, std::size_t n) override {
    buf_.insert(buf_.end(), data, data + n);
  }
  std::size_t read_some(std::byte* data, std::size_t n) override {
    const std::size_t take = std::min(n, buf_.size() - pos_);
    std::memcpy(data, buf_.data() + pos_, take);
    pos_ += take;
    return take;
  }

  std::vector<std::byte>& buffer() { return buf_; }
  void truncate_to(std::size_t n) { buf_.resize(n); }

 private:
  std::vector<std::byte> buf_;
  std::size_t pos_ = 0;
};

TEST(FrameChecksum, SensitiveToEveryByteAndLength) {
  const auto a = bytes_of({1, 2, 3, 4, 5, 6, 7, 8, 9});
  auto b = a;
  b[8] = std::byte{10};
  EXPECT_NE(frame_checksum(a), frame_checksum(b));
  // Length matters even when the content prefix matches (zero padding
  // must not alias a shorter payload).
  const auto c = bytes_of({1, 2, 3, 4, 5, 6, 7, 8});
  const auto d = bytes_of({1, 2, 3, 4, 5, 6, 7, 8, 0});
  EXPECT_NE(frame_checksum(c), frame_checksum(d));
  EXPECT_EQ(frame_checksum(a), frame_checksum(a));
}

TEST(FrameRoundTrip, EmptySmallAndLargePayloads) {
  for (const std::size_t size : {0u, 1u, 7u, 8u, 9u, 100000u}) {
    MemChannel ch;
    std::vector<std::byte> payload(size);
    for (std::size_t i = 0; i < size; ++i) {
      payload[i] = static_cast<std::byte>(i * 13 + 7);
    }
    write_frame(ch, FrameKind::kShardData, 3, 42, payload);
    const Frame f = read_frame(ch);
    EXPECT_EQ(f.kind, FrameKind::kShardData);
    EXPECT_EQ(f.shard, 3u);
    EXPECT_EQ(f.sequence, 42u);
    EXPECT_EQ(f.payload, payload);
  }
}

TEST(FrameRoundTrip, OverARealSocketpair) {
  auto [parent, child] = make_socketpair_channel();
  std::vector<std::byte> payload(1 << 20);
  for (std::size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<std::byte>(i);
  }
  // A megabyte exceeds the socket buffer, so writer and reader must
  // overlap: ship from a thread like a worker process would.
  std::thread writer([&] {
    write_frame(child, FrameKind::kShardStatus, 1, 9, payload);
  });
  const Frame f = expect_frame(parent, FrameKind::kShardStatus, 1, 9);
  writer.join();
  EXPECT_EQ(f.payload, payload);
}

TEST(FrameRead, TruncatedHeaderAndPayloadAreTyped) {
  // Stream ends inside the header.
  {
    MemChannel ch;
    write_frame(ch, FrameKind::kShardData, 0, 1, bytes_of({1, 2, 3}));
    ch.truncate_to(10);
    try {
      (void)read_frame(ch);
      FAIL() << "expected TransportError";
    } catch (const TransportError& e) {
      EXPECT_EQ(e.kind, TransportError::Kind::kTruncated);
      EXPECT_NE(std::string(e.what()).find("header"), std::string::npos);
    }
  }
  // Stream ends inside the payload (peer death mid-round looks exactly
  // like this).
  {
    MemChannel ch;
    write_frame(ch, FrameKind::kShardData, 0, 1,
                std::vector<std::byte>(64));
    ch.truncate_to(40 + 10);
    try {
      (void)read_frame(ch);
      FAIL() << "expected TransportError";
    } catch (const TransportError& e) {
      EXPECT_EQ(e.kind, TransportError::Kind::kTruncated);
      EXPECT_NE(std::string(e.what()).find("payload"), std::string::npos);
    }
  }
}

TEST(FrameRead, CorruptionIsTyped) {
  const auto corrupt_at = [](std::size_t offset, auto check) {
    MemChannel ch;
    write_frame(ch, FrameKind::kShardData, 2, 7, bytes_of({9, 9, 9, 9}));
    ch.buffer()[offset] ^= std::byte{0x40};
    try {
      (void)read_frame(ch);
      FAIL() << "expected TransportError at offset " << offset;
    } catch (const TransportError& e) {
      check(e);
    }
  };
  // Magic (offset 0), version (offset 4), checksum field (offset 32),
  // payload byte (offset 40).
  corrupt_at(0, [](const TransportError& e) {
    EXPECT_EQ(e.kind, TransportError::Kind::kBadMagic);
  });
  corrupt_at(4, [](const TransportError& e) {
    EXPECT_EQ(e.kind, TransportError::Kind::kBadVersion);
  });
  corrupt_at(32, [](const TransportError& e) {
    EXPECT_EQ(e.kind, TransportError::Kind::kBadChecksum);
  });
  corrupt_at(40, [](const TransportError& e) {
    EXPECT_EQ(e.kind, TransportError::Kind::kBadChecksum);
  });
}

TEST(FrameRead, UnknownKindAndReservedBitsRejected) {
  {
    MemChannel ch;
    write_frame(ch, FrameKind::kShardData, 0, 0, {});
    ch.buffer()[6] = std::byte{0x7F};  // kind -> unknown
    EXPECT_THROW((void)read_frame(ch), TransportError);
  }
  {
    MemChannel ch;
    write_frame(ch, FrameKind::kShardData, 0, 0, {});
    ch.buffer()[12] = std::byte{1};  // reserved must be zero
    EXPECT_THROW((void)read_frame(ch), TransportError);
  }
}

TEST(FrameRead, UnknownKindFailsTypedBeforePayloadIsTrusted) {
  // A frame kind one past the known set (a newer peer, or corruption
  // that lands in the kind field) must fail with a typed error while
  // still reading the header — never hang waiting for payload bytes it
  // cannot interpret, and never surface the payload to the caller.
  MemChannel ch;
  write_frame(ch, FrameKind::kShardData, 0, 3, bytes_of({1, 2, 3, 4}));
  ch.buffer()[6] = std::byte{kMaxFrameKind + 1};  // one past the known set
  try {
    (void)read_frame(ch);
    FAIL() << "expected TransportError";
  } catch (const TransportError& e) {
    EXPECT_EQ(e.kind, TransportError::Kind::kBadMagic);
    EXPECT_NE(std::string(e.what()).find("kind"), std::string::npos);
  }
}

TEST(FrameRoundTrip, TelemetryFramesShipLikeDataFrames) {
  // The telemetry frame kind added for cross-process span shipping
  // rides the same checksummed protocol as the data plane.
  MemChannel ch;
  const auto payload = bytes_of({8, 6, 7, 5, 3, 0, 9});
  write_frame(ch, FrameKind::kShardTelemetry, 2, 11, payload);
  const Frame f = expect_frame(ch, FrameKind::kShardTelemetry, 2, 11);
  EXPECT_EQ(f.kind, FrameKind::kShardTelemetry);
  EXPECT_EQ(f.shard, 2u);
  EXPECT_EQ(f.sequence, 11u);
  EXPECT_EQ(f.payload, payload);
}

TEST(FrameRead, TelemetryFrameWhereDataExpectedIsUnexpected) {
  // Protocol-position validation covers the new kind: a telemetry
  // frame arriving where the coordinator expects shard data is a typed
  // kUnexpected, not a hang or a misinterpreted merge.
  MemChannel ch;
  write_frame(ch, FrameKind::kShardTelemetry, 1, 5, {});
  try {
    (void)expect_frame(ch, FrameKind::kShardData, 1, 5);
    FAIL() << "expected TransportError";
  } catch (const TransportError& e) {
    EXPECT_EQ(e.kind, TransportError::Kind::kUnexpected);
  }
}

TEST(FrameRead, OversizedLengthRejectedBeforeAllocation) {
  MemChannel ch;
  write_frame(ch, FrameKind::kShardData, 0, 0, bytes_of({1}));
  // Rewrite payload_len (offset 24) to an absurd value; the reader must
  // throw kBadLength without trying to allocate it.
  const std::uint64_t huge = ~std::uint64_t{0} / 2;
  std::memcpy(ch.buffer().data() + 24, &huge, 8);
  try {
    (void)read_frame(ch);
    FAIL() << "expected TransportError";
  } catch (const TransportError& e) {
    EXPECT_EQ(e.kind, TransportError::Kind::kBadLength);
  }
  // And a tight caller-provided cap also applies.
  MemChannel ch2;
  write_frame(ch2, FrameKind::kShardData, 0, 0,
              std::vector<std::byte>(128));
  try {
    (void)read_frame(ch2, /*max_payload=*/64);
    FAIL() << "expected TransportError";
  } catch (const TransportError& e) {
    EXPECT_EQ(e.kind, TransportError::Kind::kBadLength);
  }
}

/// Peak resident set (VmHWM) of this process in KiB, or -1 if unknown.
long peak_rss_kib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stol(line.substr(6));
  }
  return -1;
}

/// A 40-byte header announcing a 512 MiB payload, then end of stream.
MemChannel header_claiming_512mib() {
  MemChannel ch;
  write_frame(ch, FrameKind::kJobSubmit, 0, 1, bytes_of({1}));
  const std::uint64_t claim = std::uint64_t{512} << 20;
  std::memcpy(ch.buffer().data() + 24, &claim, 8);
  ch.truncate_to(40);
  return ch;
}

TEST(FrameRead, HugeClaimedPayloadCostsNoMemoryBeforeItArrives) {
  MemChannel ch = header_claiming_512mib();
  try {
    (void)read_frame(ch);
    FAIL() << "expected TransportError";
  } catch (const TransportError& e) {
    EXPECT_EQ(e.kind, TransportError::Kind::kTruncated);
    EXPECT_NE(std::string(e.what()).find("payload"), std::string::npos);
  }
  // The same read in a fresh child, where the peak resident set starts
  // near this test's footprint: it must barely move (exit 0), not grow
  // by the claimed 512 MiB.
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    MemChannel child_ch = header_claiming_512mib();
    const long before = peak_rss_kib();
    int code = 3;
    try {
      (void)read_frame(child_ch);
    } catch (const TransportError& e) {
      code = e.kind == TransportError::Kind::kTruncated ? 0 : 2;
    }
    const long after = peak_rss_kib();
    if (code == 0 && (before < 0 || after - before >= 16 * 1024)) code = 1;
    ::_exit(code);
  }
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0)
      << "1 = VmHWM grew by 16 MiB or more, 2 = wrong error kind, "
         "3 = no error";
}

TEST(FrameRead, ReusedFrameKeepsItsBufferAcrossReads) {
  MemChannel ch;
  write_frame(ch, FrameKind::kShardData, 0, 1,
              std::vector<std::byte>(100000, std::byte{7}));
  write_frame(ch, FrameKind::kShardData, 0, 2, bytes_of({1, 2, 3}));
  write_frame(ch, FrameKind::kShardData, 0, 3,
              std::vector<std::byte>(90000, std::byte{9}));
  Frame f;
  read_frame(ch, f);
  EXPECT_EQ(f.payload.size(), 100000u);
  const std::byte* buffer = f.payload.data();
  expect_frame(ch, f, FrameKind::kShardData, 0, 2);
  EXPECT_EQ(f.payload, bytes_of({1, 2, 3}));
  expect_frame(ch, f, FrameKind::kShardData, 0, 3);
  EXPECT_EQ(f.payload, std::vector<std::byte>(90000, std::byte{9}));
  EXPECT_EQ(f.payload.data(), buffer);  // no reallocation
}

TEST(FrameRead, ReorderedAndMisroutedFramesAreTyped) {
  // A status frame arriving where data is expected (worker protocol
  // violation / reordering).
  {
    MemChannel ch;
    write_frame(ch, FrameKind::kShardStatus, 1, 5, {});
    try {
      (void)expect_frame(ch, FrameKind::kShardData, 1, 5);
      FAIL() << "expected TransportError";
    } catch (const TransportError& e) {
      EXPECT_EQ(e.kind, TransportError::Kind::kUnexpected);
    }
  }
  // Wrong shard (misrouted) and stale sequence (replayed round).
  {
    MemChannel ch;
    write_frame(ch, FrameKind::kShardData, 2, 5, {});
    EXPECT_THROW((void)expect_frame(ch, FrameKind::kShardData, 1, 5),
                 TransportError);
  }
  {
    MemChannel ch;
    write_frame(ch, FrameKind::kShardData, 1, 4, {});
    try {
      (void)expect_frame(ch, FrameKind::kShardData, 1, 5);
      FAIL() << "expected TransportError";
    } catch (const TransportError& e) {
      EXPECT_EQ(e.kind, TransportError::Kind::kUnexpected);
      EXPECT_NE(std::string(e.what()).find("reordered"),
                std::string::npos);
    }
  }
}

TEST(FdChannel, PeerCloseReadsAsTruncation) {
  auto [parent, child] = make_socketpair_channel();
  child.close_now();  // worker died before shipping anything
  try {
    (void)read_frame(parent);
    FAIL() << "expected TransportError";
  } catch (const TransportError& e) {
    EXPECT_EQ(e.kind, TransportError::Kind::kTruncated);
  }
}

TEST(ErrorTaxonomy, DerivesFromExecError) {
  // Callers can catch the whole backend-failure family at one level.
  try {
    throw TransportError(TransportError::Kind::kBadChecksum, "x");
  } catch (const ExecError&) {
  }
  try {
    throw WorkerError(3, 17, "shard 3 died");
  } catch (const ExecError& e) {
    EXPECT_STREQ(e.what(), "shard 3 died");
  }
  try {
    throw ShardCallbackError(11, 4, "machine 11 threw");
  } catch (const ExecError&) {
  }
  const WorkerError w(3, 17, "x");
  EXPECT_EQ(w.shard, 3u);
  EXPECT_EQ(w.round, 17u);
  const ShardCallbackError c(11, 4, "y");
  EXPECT_EQ(c.machine, 11u);
  EXPECT_EQ(c.round, 4u);
}

}  // namespace
}  // namespace mrlr::exec
