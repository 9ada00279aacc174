#include "serve_replay.h"

#include "common.h"
#include "workloads.h"

namespace perfbench {

using wazi::serve::ShardedVersionedIndex;
using wazi::serve::ShardTopology;
using wazi::serve::SnapshotRef;

bool ReplayPoint(const ShardedVersionedIndex& index, const wazi::Point& p,
                 int32_t parent, SpanRecorder* rec) {
  // Timestamps first, spans after, so recording costs stay out of them.
  int64_t t[7];
  t[0] = NowNs();
  std::shared_ptr<ShardTopology> topo = index.AcquireTopology();
  t[1] = NowNs();
  const int s = topo->router.ShardOf(p);
  t[2] = NowNs();
  SnapshotRef snap = topo->shards[static_cast<size_t>(s)]->Acquire();
  t[3] = NowNs();
  wazi::QueryStats st;
  const bool found = snap->index().PointQuery(p, &st);
  t[4] = NowNs();
  snap.Release();
  t[5] = NowNs();
  topo.reset();
  t[6] = NowNs();
  rec->Child(parent, SpanName::kTopologyPin, t[0], t[1]);
  rec->Child(parent, SpanName::kRouter, t[1], t[2]);
  rec->Child(parent, SpanName::kSnapshotPin, t[2], t[3]);
  rec->Child(parent, SpanName::kPointLocate, t[3], t[4]);
  rec->Child(parent, SpanName::kSnapshotPin, t[4], t[5]);
  rec->Child(parent, SpanName::kTopologyPin, t[5], t[6]);
  return found;
}

void ReplayRange(const ShardedVersionedIndex& index, const wazi::Rect& rect,
                 int32_t parent, SpanRecorder* rec,
                 std::vector<wazi::Point>* out) {
  // Per-shard timestamps are kept until the end, as in ReplayPoint.
  static thread_local std::vector<wazi::serve::ShardSubquery> subs;
  static thread_local std::vector<int64_t> shard_t;
  shard_t.clear();
  const int64_t t0 = NowNs();
  std::shared_ptr<ShardTopology> topo = index.AcquireTopology();
  const int64_t t1 = NowNs();
  topo->router.Decompose(rect, &subs);
  const int64_t t2 = NowNs();
  wazi::QueryStats total;
  for (const wazi::serve::ShardSubquery& sub : subs) {
    shard_t.push_back(NowNs());
    SnapshotRef snap = topo->shards[static_cast<size_t>(sub.shard)]->Acquire();
    shard_t.push_back(NowNs());
    snap->index().RangeQuery(sub.rect, out, &total);
    shard_t.push_back(NowNs());
    snap.Release();
    shard_t.push_back(NowNs());
  }
  const int64_t t3 = NowNs();
  topo.reset();
  const int64_t t4 = NowNs();
  rec->Child(parent, SpanName::kTopologyPin, t0, t1);
  rec->Child(parent, SpanName::kRouter, t1, t2);
  for (size_t i = 0; i + 3 < shard_t.size(); i += 4) {
    rec->Child(parent, SpanName::kSnapshotPin, shard_t[i], shard_t[i + 1]);
    rec->Child(parent, SpanName::kShardRange, shard_t[i + 1], shard_t[i + 2]);
    rec->Child(parent, SpanName::kSnapshotPin, shard_t[i + 2], shard_t[i + 3]);
  }
  rec->Child(parent, SpanName::kTopologyPin, t3, t4);
  rec->Count("range_fanout", static_cast<double>(subs.size()));
  CountRangeWork(total, rec);
}

double IndexBytesPerPoint(const ShardedVersionedIndex& index) {
  const std::shared_ptr<ShardTopology> topo = index.AcquireTopology();
  double bytes = 0.0;
  for (const auto& shard : topo->shards) {
    const SnapshotRef snap = shard->Acquire();
    bytes += static_cast<double>(snap->index().SizeBytes());
  }
  const double n = static_cast<double>(topo->num_points());
  return n > 0 ? bytes / n : 0.0;
}

int64_t CounterValue(wazi::serve::ServeLoop& loop, const std::string& name) {
  return loop.metrics().GetCounter(name)->value();
}

std::unique_ptr<wazi::SpatialIndex> MakeServedIndex() {
  return wazi::MakeIndex("wazi");
}

}  // namespace perfbench
