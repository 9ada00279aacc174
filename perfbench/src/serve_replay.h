// Layer-by-layer replays of serve-path reads, shared by serve_read and
// serve_mixed. Each replay calls the public entry point of every layer a
// direct read passes through, in the order the serve path calls them, and
// records one child span per call under `parent`.

#ifndef PERFBENCH_SERVE_REPLAY_H_
#define PERFBENCH_SERVE_REPLAY_H_

#include <string>
#include <vector>

#include "serve/serve_loop.h"
#include "trace.h"

namespace perfbench {

// Topology pin, ShardOf, snapshot pin, PointQuery on the pinned snapshot,
// snapshot release, topology release. Returns whether the point was found.
bool ReplayPoint(const wazi::serve::ShardedVersionedIndex& index,
                 const wazi::Point& p, int32_t parent, SpanRecorder* rec);

// Topology pin, Decompose, then per touched shard: snapshot pin, RangeQuery
// on the pinned snapshot, snapshot release; then topology release. Appends
// the hits to *out and counts the fan-out and the work shape.
void ReplayRange(const wazi::serve::ShardedVersionedIndex& index,
                 const wazi::Rect& rect, int32_t parent, SpanRecorder* rec,
                 std::vector<wazi::Point>* out);

// Sum of SizeBytes over the current shards' live snapshots, per point.
double IndexBytesPerPoint(const wazi::serve::ShardedVersionedIndex& index);

int64_t CounterValue(wazi::serve::ServeLoop& loop, const std::string& name);

// The index every serve workload serves.
std::unique_ptr<wazi::SpatialIndex> MakeServedIndex();

}  // namespace perfbench

#endif  // PERFBENCH_SERVE_REPLAY_H_
