// The benchmark's own arithmetic: the tail-percentile rule, the
// frame-equivalent FPS conversion and span self-time subtraction.
#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "harness/paper_reference.hpp"
#include "perfbench/src/ledger.hpp"

namespace omu::perfbench {
namespace {

TEST(PercentileRule, CountsSamplesBeyondTheNearestRank) {
  EXPECT_EQ(samples_beyond(100, 90.0), 10u);
  EXPECT_EQ(samples_beyond(99, 90.0), 9u);   // rank ceil(89.1) = 90
  EXPECT_EQ(samples_beyond(1000, 99.0), 10u);
  EXPECT_EQ(samples_beyond(10, 50.0), 5u);
  EXPECT_EQ(samples_beyond(0, 50.0), 0u);
}

TEST(PercentileRule, TailIsTheHighestWithTenBeyond) {
  EXPECT_EQ(tail_percentile(10000), 99.9);
  EXPECT_EQ(tail_percentile(1000), 99.0);
  EXPECT_EQ(tail_percentile(999), 95.0);
  EXPECT_EQ(tail_percentile(100), 90.0);
  EXPECT_EQ(tail_percentile(99), 75.0);
  EXPECT_EQ(tail_percentile(19), 0.0);
}

TEST(PercentileRule, NearestRankValues) {
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);
  EXPECT_EQ(percentile(v, 50.0), 50.0);
  EXPECT_EQ(percentile(v, 90.0), 90.0);
  EXPECT_EQ(v.front(), 100.0);  // the caller's order is untouched
  EXPECT_EQ(reported_percentile(v, 90.0, "t"), 90.0);
  v.pop_back();
  EXPECT_THROW(reported_percentile(v, 90.0, "t"), std::runtime_error);
  EXPECT_THROW(percentile({}, 50.0), std::invalid_argument);
}

TEST(PercentileRule, ItemBestKeepsEachItemsFastestRepeat) {
  // Three repeats of 100 items; repeat 1 is slowed by a noisy moment on
  // every item, repeat 2 only on odd items.
  ItemBest best;
  for (int repeat = 0; repeat < 3; ++repeat) {
    for (int i = 0; i < 100; ++i) {
      const double cost = i + 1.0;
      const double slowdown = repeat == 1 || (repeat == 2 && i % 2 == 1) ? 1.5 : 1.0;
      best.add(i, cost * slowdown);
    }
  }
  EXPECT_EQ(best.items(), 100u);
  EXPECT_EQ(best.samples(), 300u);
  EXPECT_EQ(best.percentile_over_items(50.0, "t"), 50.0);
  EXPECT_EQ(best.percentile_over_items(90.0, "t"), 90.0);
  EXPECT_DOUBLE_EQ(best.sum(), 100.0 * 101.0 / 2.0);

  // Items never seen do not count; too few items for a tail throws.
  ItemBest sparse;
  sparse.add(3, 2.0);
  sparse.add(7, 1.0);
  sparse.add(3, 4.0);
  EXPECT_EQ(sparse.values(), (std::vector<double>{2.0, 1.0}));
  EXPECT_THROW(sparse.percentile_over_items(90.0, "t"), std::runtime_error);
}

TEST(FrameFps, DividesByThePapersFrameConstant) {
  EXPECT_DOUBLE_EQ(frame_fps(static_cast<uint64_t>(harness::kVoxelUpdatesPerFrame * 30), 1.0), 30.0);
  EXPECT_DOUBLE_EQ(frame_fps(2'304'000, 2.0), 2'304'000 / 2.0 / harness::kVoxelUpdatesPerFrame);
  EXPECT_THROW(frame_fps(1, 0.0), std::invalid_argument);
}

TEST(SelfTime, SubtractsDirectChildrenOnly) {
  SpanLog log("t");
  const uint32_t root = log.add(Span{"scan", 7, kNoParent, 0, 100});
  const uint32_t a = log.add(Span{"omu_api.insert", 7, root, 10, 40});
  log.add(Span{"map.apply", 7, a, 20, 30});
  log.add(Span{"omu_api.flush", 7, root, 50, 90});
  const std::vector<int64_t> self = self_times(log.spans());
  EXPECT_EQ(self[0], 100 - 30 - 40);
  EXPECT_EQ(self[1], 30 - 10);
  EXPECT_EQ(self[2], 10);
  EXPECT_EQ(self[3], 40);

  Ledger ledger;
  ledger.add(log);
  ledger.add(log);
  EXPECT_EQ(ledger.at("scan").calls, 2u);
  EXPECT_EQ(ledger.at("scan").total_ns, 200);
  EXPECT_EQ(ledger.at("omu_api.insert").self_ns, 40);
  EXPECT_EQ(ledger.at("scan").self_ns, 2 * 30);
  EXPECT_DOUBLE_EQ(ledger.mean("omu_api.flush", 10.0), 4.0);
  EXPECT_EQ(ledger.at("missing").calls, 0u);
}

TEST(SelfTime, ScopedSpansNestAndRejectMisorderedCloses) {
  SpanLog log("t");
  {
    ScopedSpan outer(&log, "scan", 1);
    ScopedSpan inner(&log, "omu_api.insert", 1);
  }
  ASSERT_EQ(log.spans().size(), 2u);
  EXPECT_EQ(log.spans()[1].parent, 0u);
  EXPECT_LE(log.spans()[0].start_ns, log.spans()[1].start_ns);
  EXPECT_GE(log.spans()[0].end_ns, log.spans()[1].end_ns);
  { ScopedSpan untraced(nullptr, "scan", 2); }
  EXPECT_EQ(log.spans().size(), 2u);

  const uint32_t a = log.open("a", 3);
  log.open("b", 3);
  EXPECT_THROW(log.close(a), std::logic_error);
}

}  // namespace
}  // namespace omu::perfbench
