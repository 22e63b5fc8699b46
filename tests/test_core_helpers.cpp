// Direct unit tests for the core-module communication helpers and
// parameter plumbing (owner_of, pack_double, allreduce_sum_direct,
// allreduce_sum_vec), which the algorithm suites only exercise
// indirectly.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "mrlr/core/params.hpp"

namespace mrlr::core {
namespace {

mrc::Topology topo(std::uint64_t machines) {
  mrc::Topology t;
  t.num_machines = machines;
  t.words_per_machine = 1 << 20;
  t.fanout = 2;
  return t;
}

TEST(OwnerOf, RoundRobinBalanced) {
  const std::uint64_t machines = 7;
  std::vector<std::uint64_t> load(machines, 0);
  for (std::uint64_t item = 0; item < 700; ++item) {
    const auto o = owner_of(item, machines);
    ASSERT_LT(o, machines);
    ++load[o];
  }
  for (const auto l : load) EXPECT_EQ(l, 100u);
}

TEST(FastOwnerOf, MatchesModuloAtEdges) {
  constexpr std::uint64_t kTop = (std::uint64_t{1} << 32) - 1;
  for (const std::uint64_t machines : std::initializer_list<std::uint64_t>{
           1, 2, 3, 7, (std::uint64_t{1} << 31) + 1, kTop}) {
    const FastOwnerOf owner(machines);
    for (const std::uint64_t item : std::initializer_list<std::uint64_t>{
             0, 1, machines - 1, machines, kTop}) {
      EXPECT_EQ(owner(static_cast<std::uint32_t>(item)), item % machines)
          << "item " << item << " machines " << machines;
    }
  }
}

TEST(FastOwnerOf, MatchesModuloOnRandomPairs) {
  Rng rng(0xFA57);
  for (int i = 0; i < 100000; ++i) {
    // Half the machine counts small, as drivers use them; half anywhere
    // in [1, 2^32).
    const std::uint64_t machines =
        1 + rng.uniform(i % 2 == 0 ? 1024 : (std::uint64_t{1} << 32) - 1);
    const auto item = static_cast<std::uint32_t>(rng());
    ASSERT_EQ(FastOwnerOf(machines)(item), item % machines)
        << "item " << item << " machines " << machines;
  }
}

TEST(PackDouble, BitExactRoundTrip) {
  for (const double x :
       {0.0, 1.0, -1.0, 3.141592653589793, 1e-300, 1e300,
        std::numeric_limits<double>::infinity(),
        -std::numeric_limits<double>::denorm_min()}) {
    EXPECT_EQ(unpack_double(pack_double(x)), x);
  }
  // NaN round-trips bit-exactly even though NaN != NaN.
  const double nan = std::nan("");
  EXPECT_TRUE(std::isnan(unpack_double(pack_double(nan))));
}

TEST(AllreduceDirect, SumsAndCountsRounds) {
  for (const std::uint64_t machines : {1ull, 2ull, 5ull, 32ull}) {
    mrc::Engine engine(topo(machines));
    std::vector<mrc::Word> values(machines);
    for (std::uint64_t m = 0; m < machines; ++m) values[m] = m + 1;
    const auto sum = allreduce_sum_direct(engine, values, "t");
    EXPECT_EQ(sum, machines * (machines + 1) / 2);
    // One machine: free. Otherwise: gather, scatter, drain = 3 rounds.
    EXPECT_EQ(engine.metrics().rounds(), machines == 1 ? 0u : 3u);
  }
}

TEST(AllreduceDirect, CentralInboxIsMachineCount) {
  mrc::Engine engine(topo(10));
  std::vector<mrc::Word> values(10, 1);
  (void)allreduce_sum_direct(engine, values, "t");
  // Nine 1-word messages arrive at the central machine.
  EXPECT_EQ(engine.metrics().max_central_inbox(), 9u);
}

TEST(AllreduceVec, ComponentWiseSums) {
  const std::uint64_t machines = 6;
  mrc::Engine engine(topo(machines));
  std::vector<std::vector<mrc::Word>> values(machines,
                                             std::vector<mrc::Word>(3, 0));
  for (std::uint64_t m = 0; m < machines; ++m) {
    values[m] = {m, 2 * m, 1};
  }
  const auto total = allreduce_sum_vec(engine, values, "t");
  ASSERT_EQ(total.size(), 3u);
  EXPECT_EQ(total[0], 15u);  // 0+1+...+5
  EXPECT_EQ(total[1], 30u);
  EXPECT_EQ(total[2], 6u);
}

TEST(AllreduceVec, SingleMachineShortCircuits) {
  mrc::Engine engine(topo(1));
  const auto total =
      allreduce_sum_vec(engine, {{7, 8}}, "t");
  EXPECT_EQ(total, (std::vector<mrc::Word>{7, 8}));
  EXPECT_EQ(engine.metrics().rounds(), 0u);
}

TEST(MrParams, DefaultsAreSane) {
  const MrParams p;
  EXPECT_GT(p.mu, 0.0);
  EXPECT_LT(p.c, 0.0);  // derive-from-instance sentinel
  EXPECT_GT(p.slack, 1.0);
  EXPECT_TRUE(p.enforce_space);
  EXPECT_DOUBLE_EQ(p.sample_boost, 1.0);
}

TEST(MrOutcome, FillFromMetrics) {
  mrc::Engine engine(topo(3));
  engine.run_round("r", [](mrc::MachineContext& ctx) {
    if (ctx.id() == 1) ctx.send(0, {1, 2, 3});
    ctx.charge_resident(42);
  });
  engine.run_round("r", [](mrc::MachineContext&) {});
  MrOutcome o;
  o.fill_from(engine.metrics());
  EXPECT_EQ(o.rounds, 2u);
  EXPECT_EQ(o.total_communication, 3u);
  EXPECT_EQ(o.max_central_inbox, 3u);
  EXPECT_GE(o.max_machine_words, 42u);
  EXPECT_EQ(o.space_violations, 0u);
}

}  // namespace
}  // namespace mrlr::core
