// serve_read: a read-only closed loop on the direct ServeLoop path. Two
// client threads over 500k CaliNev points in 2 shards; 90% Zipf(0.99)
// point lookups of stored points, 10% ranges at 0.0016% selectivity.
// Result cache, auto-rebuild and the repartition monitor are off, so per
// query work is small and the read path's fixed costs (topology pin,
// snapshot pin, shared counters) dominate. Reads never overlap writes:
// after each read slice one thread submits a burst of inserts and waits
// for them to be applied.

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <memory>
#include <numeric>

#include "common/rng.h"
#include "serve/epoch.h"
#include "serve_replay.h"
#include "workload/query_generator.h"
#include "workload/region_generator.h"
#include "workloads.h"

namespace perfbench {
namespace {

using wazi::serve::ServeLoop;

constexpr size_t kPoints = 500'000;
constexpr uint64_t kDataSeed = 2;
constexpr size_t kTrainingQueries = 2'000;
constexpr uint64_t kTrainingSeed = 11;
constexpr size_t kTimedRanges = 4096;
constexpr int kClients = 2;
constexpr int kShards = 2;
constexpr double kZipfTheta = 0.99;
constexpr uint64_t kRangePct = 10;
constexpr size_t kOpsPerClient = size_t{1} << 20;  // cycled
constexpr uint32_t kRangeBit = 0x80000000u;
constexpr size_t kInserts = 200'000;  // split into one burst per slice
constexpr int kSlices = 10;  // read slices, each followed by a 20k burst
constexpr size_t kSliceSampleEvery = 8;  // per-slice latency subsample
constexpr size_t kVisibleEvery = 16;
constexpr uint32_t kTraceEvery = 64;
constexpr size_t kRangeCheckEvery = 61;
constexpr size_t kMaxRangeChecks = 128;  // per client
constexpr int kSetups = 3;

struct Inputs {
  wazi::Dataset data;
  wazi::Workload training;
  wazi::Workload ranges;
  // Per client: kRangeBit | range index, or a data point index.
  std::vector<std::vector<uint32_t>> ops;
};

Inputs MakeInputs(uint64_t seed) {
  Inputs in;
  in.data = wazi::GenerateRegion(wazi::Region::kCaliNev, kPoints, kDataSeed);
  CheckinQueries(wazi::Region::kCaliNev, in.data.bounds,
                 wazi::kSelectivityLow, kTrainingSeed, kTrainingQueries,
                 kTimedRanges, seed, &in.training, &in.ranges);
  // Popularity rank -> point, shuffled so hot points are not spatially
  // clustered by the generator's point order.
  std::vector<uint32_t> by_rank(kPoints);
  std::iota(by_rank.begin(), by_rank.end(), 0u);
  wazi::Rng shuffle(SubSeed(seed, 2));
  for (size_t i = by_rank.size() - 1; i > 0; --i) {
    std::swap(by_rank[i], by_rank[shuffle.NextBelow(i + 1)]);
  }
  const ZipfSampler zipf(kPoints, kZipfTheta);
  in.ops.resize(kClients);
  for (int c = 0; c < kClients; ++c) {
    wazi::Rng rng(SubSeed(seed, 100 + static_cast<uint64_t>(c)));
    std::vector<uint32_t>& ops = in.ops[static_cast<size_t>(c)];
    ops.resize(kOpsPerClient);
    for (uint32_t& op : ops) {
      if (rng.NextBelow(100) < kRangePct) {
        op = kRangeBit | static_cast<uint32_t>(rng.NextBelow(kTimedRanges));
      } else {
        op = by_rank[zipf.Sample(rng.NextDouble())];
      }
    }
  }
  return in;
}

std::unique_ptr<ServeLoop> Setup(const Inputs& in, double* seconds) {
  wazi::serve::ServeOptions opts;
  opts.num_shards = kShards;
  opts.num_threads = kClients;
  opts.auto_rebuild = false;
  const int64_t t0 = NowNs();
  auto loop = std::make_unique<ServeLoop>(
      [] { return MakeServedIndex(); }, in.data, in.training,
      wazi::BuildOptions{}, opts);
  *seconds = static_cast<double>(NowNs() - t0) / 1e9;
  return loop;
}

// One client's results over the slices of one phase; `op` is where its
// op stream continues from.
struct ClientResult {
  PhaseResult phase;
  int64_t failed = 0;
  int64_t attempted = 0;
  std::vector<RangeCheck> checks;
  size_t ranges = 0;
  // The current slice's latencies of every kSliceSampleEvery-th op.
  std::vector<double> slice_range_ns;
  std::vector<double> slice_point_ns;
};

void ClientLoop(ServeLoop& loop, const Inputs& in, int client,
                int64_t deadline, size_t inserted, SpanRecorder* rec,
                size_t* cursor, ClientResult* out) {
  const std::vector<uint32_t>& ops = in.ops[static_cast<size_t>(client)];
  const wazi::serve::ShardedVersionedIndex& index = loop.sharded_index();
  std::vector<wazi::Point> replay;
  const size_t first = *cursor;
  size_t i = first;
  for (;; ++i) {
    if ((i & 15) == 0 && NowNs() >= deadline) break;
    const uint32_t op = ops[i % ops.size()];
    if (op & kRangeBit) {
      const uint32_t qi = op & ~kRangeBit;
      const wazi::Rect& rect = in.ranges.queries[qi];
      const int64_t t0 = NowNs();
      wazi::serve::QueryResult r = loop.Range(rect);
      const int64_t t1 = NowNs();
      out->phase.range.Record(t1 - t0);
      if (i % kSliceSampleEvery == 0) {
        out->slice_range_ns.push_back(static_cast<double>(t1 - t0));
      }
      if (rec != nullptr && rec->Sample()) {
        const int32_t root = rec->Root(SpanName::kLoopRange, t0, t1);
        replay.clear();
        ReplayRange(index, rect, root, rec, &replay);
        ++out->attempted;
        if (SortedIds(replay) != SortedIds(r.hits)) ++out->failed;
      }
      if (out->ranges++ % kRangeCheckEvery == 0 &&
          out->checks.size() < kMaxRangeChecks) {
        out->checks.push_back(RangeCheck{qi, std::move(r.hits), inserted});
      }
    } else {
      const wazi::Point& p = in.data.points[op];
      const int64_t t0 = NowNs();
      const bool found = loop.PointLookup(p);
      const int64_t t1 = NowNs();
      out->phase.point.Record(t1 - t0);
      if (i % kSliceSampleEvery == 0) {
        out->slice_point_ns.push_back(static_cast<double>(t1 - t0));
      }
      if (!found) ++out->failed;
      if (rec != nullptr && rec->Sample()) {
        const int32_t root = rec->Root(SpanName::kLoopPoint, t0, t1);
        ++out->attempted;
        if (!ReplayPoint(index, p, root, rec)) ++out->failed;
      }
    }
  }
  *cursor = i;
  out->phase.reads += static_cast<int64_t>(i - first);
  out->attempted += static_cast<int64_t>(i - first);
}

// One read slice of `slice_ns`: every client runs its closed loop,
// continuing its op stream, into its ClientResult. Returns the slice's
// elapsed seconds.
double ReadSlice(ServeLoop& loop, const Inputs& in, int64_t slice_ns,
                 size_t inserted, std::vector<SpanRecorder>* recs,
                 size_t* cursors, ClientResult* results) {
  std::atomic<bool> go{false};
  std::vector<std::thread> clients;
  const int64_t start = NowNs() + 5'000'000;  // let every client park
  const int64_t deadline = start + slice_ns;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      // acquire: pairs with the release-store below.
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      ClientLoop(loop, in, c, deadline, inserted,
                 recs != nullptr ? &(*recs)[static_cast<size_t>(c)] : nullptr,
                 &cursors[c], &results[c]);
    });
  }
  while (NowNs() < start) std::this_thread::yield();
  go.store(true, std::memory_order_release);
  for (std::thread& t : clients) t.join();
  return static_cast<double>(NowNs() - start) / 1e9;
}

// Folds the slice every client just ran into `phase`'s per-slice figures.
void FinishSlice(ClientResult* results, int64_t reads_before, double seconds,
                 PhaseResult* phase) {
  std::vector<double> range_ns, point_ns;
  int64_t reads = -reads_before;
  for (int c = 0; c < kClients; ++c) {
    ClientResult& r = results[c];
    range_ns.insert(range_ns.end(), r.slice_range_ns.begin(),
                    r.slice_range_ns.end());
    point_ns.insert(point_ns.end(), r.slice_point_ns.begin(),
                    r.slice_point_ns.end());
    r.slice_range_ns.clear();
    r.slice_point_ns.clear();
    reads += r.phase.reads;
  }
  AddSlice(&range_ns, &point_ns, reads, seconds, phase);
}

// Reads so far by every client of one phase.
int64_t ReadsSoFar(const ClientResult* results) {
  int64_t reads = 0;
  for (int c = 0; c < kClients; ++c) reads += results[c].phase.reads;
  return reads;
}

// Serve-layer counters of the insert bursts.
struct WriteCounters {
  int64_t publishes = 0;
  int64_t stall_copies = 0;
  std::vector<double> flush_ms;
};

// One insert burst: an embedded insert is acked when SubmitInsert
// returns; the burst's throughput runs until Flush says every insert is
// applied. write_qps and flush_ms are medians over the bursts.
void InsertBurst(ServeLoop& loop, const wazi::Point* inserts, size_t n,
                 VisibilityProber* prober, PhaseResult* phase,
                 WriteCounters* wc) {
  const int64_t publishes0 =
      CounterValue(loop, "serve_snapshot_publishes_total");
  const int64_t stalls0 = CounterValue(loop, "serve_stall_copies_total");
  const int64_t w0 = NowNs();
  for (size_t k = 0; k < n; ++k) {
    loop.SubmitInsert(inserts[k]);
    if (k % kVisibleEvery == 0) prober->Add(inserts[k], NowNs());
  }
  const int64_t f0 = NowNs();
  loop.Flush();
  const int64_t w1 = NowNs();
  phase->write_rates.push_back(static_cast<double>(n) /
                               (static_cast<double>(w1 - w0) / 1e9));
  phase->writes += static_cast<int64_t>(n);
  wc->flush_ms.push_back(static_cast<double>(w1 - f0) / 1e6);
  wc->publishes +=
      CounterValue(loop, "serve_snapshot_publishes_total") - publishes0;
  wc->stall_copies +=
      CounterValue(loop, "serve_stall_copies_total") - stalls0;
}

}  // namespace

uint64_t ServeReadDigest(uint64_t seed) {
  const Inputs in = MakeInputs(seed);
  Digest d;
  d.Add(in.data.points);
  d.Add(in.training.queries);
  d.Add(in.ranges.queries);
  for (const auto& ops : in.ops) d.Add(ops.data(), ops.size() * sizeof(ops[0]));
  d.Add(InsertStream(in.data.bounds, kInserts, seed));
  return d.value();
}

Report RunServeRead(const Args& args) {
  Report report;
  report.Param("region", "CaliNev");
  report.Param("points", static_cast<double>(kPoints));
  report.Param("shards", static_cast<double>(kShards));
  report.Param("clients", static_cast<double>(kClients));
  report.Param("loop", "closed");
  report.Param("point_pct", static_cast<double>(100 - kRangePct));
  report.Param("point_zipf_theta", kZipfTheta);
  report.Param("range_selectivity", wazi::kSelectivityLow);
  report.Param("training_queries", static_cast<double>(kTrainingQueries));
  report.Param("cache", "off");
  report.Param("auto_rebuild", "off");
  report.Param("repartition", "off");
  report.Param("inserts", static_cast<double>(kInserts));
  report.Param("slices", static_cast<double>(kSlices));

  const Inputs in = MakeInputs(args.seed);
  const std::vector<wazi::Point> inserts =
      InsertStream(in.data.bounds, kInserts, args.seed);
  std::vector<RangeCheck> checks;

  // Untraced, traced; allocated before the RSS baseline.
  ClientResult results[2][kClients];
  PhaseResult phases[2];
  const size_t rss_before = CurrentRssBytes();
  std::vector<double> setups(1);
  std::unique_ptr<ServeLoop> loop = Setup(in, &setups[0]);
  const double index_bytes_per_point =
      IndexBytesPerPoint(loop->sharded_index());

  std::map<std::string, double> layer;
  PeakSampler limbo(
      [] { return wazi::serve::EpochDomain::Global().limbo_size(); });
  std::vector<SpanRecorder> recs(kClients, SpanRecorder(kTraceEvery));
  size_t cursors[kClients] = {};
  WriteCounters wc;
  {
    VisibilityProber prober(
        [&loop](const wazi::Point& p) { return loop->PointLookup(p); });
    const int slices = args.trace ? 2 * kSlices : kSlices;
    const int64_t slice_ns = int64_t{args.seconds} * 1'000'000'000 / kSlices;
    const size_t per_slice = inserts.size() / static_cast<size_t>(slices);
    for (int s = 0; s < slices; ++s) {
      const int k = args.trace && s % 2 == 1 ? 1 : 0;
      const size_t inserted = static_cast<size_t>(s) * per_slice;
      const int64_t reads_before = ReadsSoFar(results[k]);
      const double seconds =
          ReadSlice(*loop, in, slice_ns, inserted, k == 1 ? &recs : nullptr,
                    cursors, results[k]);
      phases[k].read_seconds += seconds;
      FinishSlice(results[k], reads_before, seconds, &phases[k]);
      InsertBurst(*loop, &inserts[inserted], per_slice, &prober, &phases[k],
                  &wc);
    }
    prober.Finish();
    // Visibility samples are not told apart by phase: the bursts are never
    // traced.
    phases[0].visible_ns = prober.samples();
    phases[1].visible_ns = prober.samples();
    report.attempted += prober.probed();
    report.failed += prober.lost();
  }
  for (int k = 0; k < 2; ++k) {
    for (ClientResult& r : results[k]) {
      phases[k].range.Merge(r.phase.range);
      phases[k].point.Merge(r.phase.point);
      phases[k].reads += r.phase.reads;
      report.failed += r.failed;
      report.attempted += r.attempted;
      checks.insert(checks.end(), std::make_move_iterator(r.checks.begin()),
                    std::make_move_iterator(r.checks.end()));
    }
    report.attempted += phases[k].writes;
  }
  const PhaseResult& phase = phases[args.trace ? 1 : 0];
  if (args.trace) {
    AddTraceOverhead(phases[0], phases[1], &layer);
    SpanRecorder all(kTraceEvery);
    for (const SpanRecorder& r : recs) all.Merge(r);
    const TraceSummary sum(all);
    layer["serve.topology_pin_ns"] = sum.MedianSelfNs({SpanName::kTopologyPin});
    layer["serve.router_ns"] = sum.MedianSelfNs({SpanName::kRouter});
    layer["serve.snapshot_pin_ns"] = sum.MedianSelfNs({SpanName::kSnapshotPin});
    layer["core.point_locate_ns"] = sum.MedianSelfNs({SpanName::kPointLocate});
    layer["serve.loop_overhead_ns"] =
        sum.MedianSelfNs({SpanName::kLoopPoint}, {SpanName::kLoopPoint});
    layer["serve.range_fanout"] = sum.MeanCount("range_fanout");
    RangeWorkMetrics(sum, &layer);
    layer["core.index_bytes_per_point"] = index_bytes_per_point;
    layer["serve.writer_ops_per_publish"] =
        wc.publishes > 0 ? static_cast<double>(inserts.size()) /
                               static_cast<double>(wc.publishes)
                         : 0.0;
    layer["serve.flush_ms"] = Median(&wc.flush_ms);
    layer["serve.stall_copies"] = static_cast<double>(wc.stall_copies);
    if (!WriteSpans(all, args.out_dir + "/spans-serve_read.tsv")) {
      report.Note("span dump not written");
    }
  }
  layer["serve.epoch_limbo_peak"] = static_cast<double>(limbo.Finish());
  const size_t live = loop->sharded_index().num_points();
  const size_t rss_after = CurrentRssBytes();
  const double bytes_per_point =
      static_cast<double>(rss_after - std::min(rss_after, rss_before)) /
      static_cast<double>(live);
  if (live != kPoints + inserts.size()) {
    ++report.failed;
    report.Note("live point count does not match the acked inserts");
  }
  loop.reset();

  const int64_t mismatches =
      CountMismatches(in.data, inserts, in.ranges, checks);
  report.failed += mismatches;
  char buf[200];
  std::snprintf(buf, sizeof(buf),
                "checked %zu sampled range results against a full scan: "
                "%lld mismatches",
                checks.size(), static_cast<long long>(mismatches));
  report.Note(buf);

  if (!args.trace) {
    for (int s = 1; s < kSetups; ++s) {
      double t = 0.0;
      Setup(in, &t).reset();
      setups.push_back(t);
    }
  }
  std::snprintf(buf, sizeof(buf), "setup_s is the median of %zu set-ups",
                setups.size());
  report.Note(buf);
  NoteSamples(phase, &report);
  AddEndToEnd(phase, Median(&setups), bytes_per_point, &report);
  AddPerLayer(layer, &report);
  return report;
}

}  // namespace perfbench
