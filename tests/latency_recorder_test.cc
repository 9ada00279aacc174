// LatencyRecorder: percentile extraction must interpolate (no nearest-rank
// rounding bias), the ring must evict oldest-first, and Merge must be
// honest — retained samples are never silently truncated and count()
// reflects TOTAL recorded ops across sources.

#include <gtest/gtest.h>

#include <vector>

#include "workloads/latency_recorder.h"

namespace wazi::bench::workloads {
namespace {

TEST(LatencyRecorderTest, EmptyRecorderReportsZeros) {
  LatencyRecorder rec;
  EXPECT_EQ(rec.count(), 0u);
  EXPECT_EQ(rec.retained(), 0u);
  EXPECT_EQ(rec.PercentileNs(0), 0);
  EXPECT_EQ(rec.PercentileNs(50), 0);
  EXPECT_EQ(rec.PercentileNs(100), 0);
}

TEST(LatencyRecorderTest, SingleSampleIsEveryPercentile) {
  LatencyRecorder rec;
  rec.Record(42);
  for (const double pct : {0.0, 1.0, 50.0, 99.0, 100.0}) {
    EXPECT_EQ(rec.PercentileNs(pct), 42) << "pct " << pct;
  }
  EXPECT_EQ(rec.count(), 1u);
  EXPECT_EQ(rec.retained(), 1u);
}

TEST(LatencyRecorderTest, PercentilesInterpolateLinearly) {
  LatencyRecorder rec;
  // 0, 10, ..., 100: rank r maps to value 10 * r, so pNN == NN * 10
  // exactly, and off-grid percentiles interpolate between neighbours.
  for (int i = 0; i <= 10; ++i) rec.Record(i * 10);
  EXPECT_EQ(rec.PercentileNs(0), 0);    // min
  EXPECT_EQ(rec.PercentileNs(50), 50);  // exact median
  EXPECT_EQ(rec.PercentileNs(100), 100);  // max
  EXPECT_EQ(rec.PercentileNs(95), 95);    // between 90 and 100
  EXPECT_EQ(rec.PercentileNs(99), 99);    // nearest-rank would say 100
  // Two samples: the median is their midpoint, not either endpoint.
  LatencyRecorder two;
  two.Record(10);
  two.Record(20);
  EXPECT_EQ(two.PercentileNs(50), 15);
  EXPECT_EQ(two.PercentileNs(0), 10);
  EXPECT_EQ(two.PercentileNs(100), 20);
  // Out-of-range pct clamps instead of reading out of bounds.
  EXPECT_EQ(two.PercentileNs(-5), 10);
  EXPECT_EQ(two.PercentileNs(250), 20);
}

TEST(LatencyRecorderTest, SmallWindowP99IsNotBiasedToTheMax) {
  // 99 samples of 100ns and one 10000ns outlier: nearest-rank with +0.5
  // rounding reported the outlier as p99; interpolation keeps p99 inside
  // [100, 10000) and p90 at the bulk.
  LatencyRecorder rec;
  for (int i = 0; i < 99; ++i) rec.Record(100);
  rec.Record(10000);
  EXPECT_EQ(rec.PercentileNs(90), 100);
  EXPECT_LT(rec.PercentileNs(99), 10000);
  EXPECT_GE(rec.PercentileNs(99), 100);
  EXPECT_EQ(rec.PercentileNs(100), 10000);
}

TEST(LatencyRecorderTest, RingEvictsOldestFirst) {
  LatencyRecorder rec(4);
  for (int i = 1; i <= 6; ++i) rec.Record(i);
  // 1 and 2 were evicted; the retained window is {3, 4, 5, 6}.
  EXPECT_EQ(rec.count(), 6u);
  EXPECT_EQ(rec.retained(), 4u);
  EXPECT_EQ(rec.PercentileNs(0), 3);
  EXPECT_EQ(rec.PercentileNs(100), 6);
  // Keep recording: the window slides, count keeps the total.
  rec.Record(7);
  rec.Record(8);
  EXPECT_EQ(rec.count(), 8u);
  EXPECT_EQ(rec.PercentileNs(0), 5);
  EXPECT_EQ(rec.PercentileNs(100), 8);
}

TEST(LatencyRecorderTest, CountingOnlyRecorderKeepsNoSamples) {
  LatencyRecorder rec(0);
  rec.Record(5);
  rec.Record(6);
  EXPECT_EQ(rec.count(), 2u);
  EXPECT_EQ(rec.retained(), 0u);
  EXPECT_EQ(rec.PercentileNs(50), 0);
}

TEST(LatencyRecorderTest, MergeGrowsInsteadOfTruncating) {
  // Destination window (2) is smaller than the combined sample count (4):
  // an honest merge grows the window so nothing retained is dropped.
  LatencyRecorder a(2);
  a.Record(1);
  a.Record(2);
  LatencyRecorder b(2);
  b.Record(3);
  b.Record(4);
  a.Merge(b);
  EXPECT_EQ(a.retained(), 4u);
  EXPECT_EQ(a.count(), 4u);
  EXPECT_GE(a.capacity(), 4u);
  EXPECT_EQ(a.PercentileNs(0), 1);
  EXPECT_EQ(a.PercentileNs(100), 4);
  // {1,2,3,4}: the interpolated median is 2.5, rounded half-up to 3.
  EXPECT_EQ(a.PercentileNs(50), 3);
}

TEST(LatencyRecorderTest, MergeCountsEvictedSourceOps) {
  // The source recorded 6 ops but retains 4: the merged count() must say
  // 6 (total ops), while only the 4 retained samples transfer.
  LatencyRecorder src(4);
  for (int i = 1; i <= 6; ++i) src.Record(i * 10);
  LatencyRecorder dst(16);
  dst.Record(5);
  dst.Merge(src);
  EXPECT_EQ(dst.count(), 7u);
  EXPECT_EQ(dst.retained(), 5u);
  EXPECT_EQ(dst.PercentileNs(0), 5);
  EXPECT_EQ(dst.PercentileNs(100), 60);
}

TEST(LatencyRecorderTest, MergeIntoCountingOnlyStaysCountingOnly) {
  LatencyRecorder src(4);
  src.Record(10);
  src.Record(20);
  LatencyRecorder dst(0);
  dst.Merge(src);
  EXPECT_EQ(dst.count(), 2u);
  EXPECT_EQ(dst.retained(), 0u);
}

TEST(LatencyRecorderTest, PercentileCacheInvalidatesOnRecord) {
  LatencyRecorder rec;
  rec.Record(10);
  EXPECT_EQ(rec.PercentileNs(100), 10);  // populates the sorted cache
  rec.Record(20);
  EXPECT_EQ(rec.PercentileNs(100), 20);  // cache refreshed
  LatencyRecorder other;
  other.Record(30);
  rec.Merge(other);
  EXPECT_EQ(rec.PercentileNs(100), 30);  // Merge invalidates too
}

}  // namespace
}  // namespace wazi::bench::workloads
