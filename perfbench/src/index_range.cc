// index_range: the paper's experiment on the library path. One thread, no
// serve layer: WaZI built over 1M CaliNev points from 20k check-in
// training queries at 0.0256% selectivity, then timed range queries from
// a seed-derived stream of the same distribution interleaved with point
// lookups of stored points, with a batch of library-path inserts after
// each read slice.

#include <cstdio>

#include "core/wazi.h"
#include "workload/query_generator.h"
#include "workload/region_generator.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr size_t kPoints = 1'000'000;
constexpr uint64_t kDataSeed = 1;
constexpr size_t kTrainingQueries = 20'000;
constexpr uint64_t kTrainingSeed = 7;
constexpr size_t kTimedRanges = 20'000;
constexpr size_t kTimedPoints = 50'000;
constexpr int kPointsPerRange = 4;  // op mix: 1 range, then 4 point lookups
constexpr size_t kInserts = 200'000;  // 20% of the data, uniform, as in Fig. 11
constexpr size_t kInsertBatch = 1'000;
constexpr int kSlices = 50;  // read slices, each followed by 4k inserts
constexpr size_t kVisibleEvery = 8;  // insert visibility sample rate
constexpr uint32_t kTraceEvery = 16;
constexpr size_t kRangeCheckEvery = 97;
constexpr size_t kMaxRangeChecks = 256;

struct Inputs {
  wazi::Dataset data;
  wazi::Workload training;
  wazi::Workload ranges;
  std::vector<wazi::Point> points;
};

Inputs MakeInputs(uint64_t seed) {
  Inputs in;
  in.data = wazi::GenerateRegion(wazi::Region::kCaliNev, kPoints, kDataSeed);
  CheckinQueries(wazi::Region::kCaliNev, in.data.bounds,
                 wazi::kSelectivityMid2, kTrainingSeed, kTrainingQueries,
                 kTimedRanges, seed, &in.training, &in.ranges);
  in.points = wazi::SamplePointQueries(in.data, kTimedPoints, SubSeed(seed, 2));
  return in;
}

// Where the interleaved read stream continues from, across slices.
struct ReadCursor {
  size_t op = 0;
};

// One read slice of `slice_ns`: ranges interleaved 1:4 with point lookups,
// accumulated into `phase`. With `rec`, every kTraceEvery-th op is
// replayed layer by layer.
void ReadSlice(const wazi::Wazi& index, const Inputs& in, int64_t slice_ns,
               size_t inserted, SpanRecorder* rec, ReadCursor* cursor,
               std::vector<RangeCheck>* checks, PhaseResult* phase,
               Report* report) {
  std::vector<wazi::Point> out;
  wazi::Projection proj;
  std::vector<double> range_ns, point_ns;
  const int64_t start = NowNs();
  const int64_t deadline = start + slice_ns;
  size_t& i = cursor->op;
  int64_t reads = 0;
  int64_t now = start;
  while (now < deadline) {
    const uint32_t qi = static_cast<uint32_t>(i % in.ranges.queries.size());
    const wazi::Rect& q = in.ranges.queries[qi];
    out.clear();
    wazi::QueryStats st;
    int64_t t0 = NowNs();
    index.RangeQuery(q, &out, &st);
    int64_t t1 = NowNs();
    phase->range.Record(t1 - t0);
    range_ns.push_back(static_cast<double>(t1 - t0));
    if (i % kRangeCheckEvery == 0 && checks->size() < kMaxRangeChecks) {
      checks->push_back(RangeCheck{qi, out, inserted});
    }
    if (rec != nullptr && rec->Sample()) {
      const int32_t root = rec->Root(SpanName::kLibRange, t0, t1);
      wazi::QueryStats rs;
      proj.clear();
      std::vector<wazi::Point> replay;
      const int64_t a = NowNs();
      index.Project(q, &proj, &rs);
      const int64_t b = NowNs();
      index.ScanProjection(proj, q, &replay, &rs);
      const int64_t c = NowNs();
      rec->Child(root, SpanName::kProject, a, b);
      rec->Child(root, SpanName::kScan, b, c);
      CountRangeWork(rs, rec);
      if (replay.size() != out.size()) ++report->failed;
      ++report->attempted;
    }
    for (int j = 0; j < kPointsPerRange; ++j) {
      const wazi::Point& p =
          in.points[(i * kPointsPerRange + static_cast<size_t>(j)) %
                    in.points.size()];
      wazi::QueryStats ps;
      t0 = NowNs();
      const bool found = index.PointQuery(p, &ps);
      t1 = NowNs();
      phase->point.Record(t1 - t0);
      point_ns.push_back(static_cast<double>(t1 - t0));
      if (!found) ++report->failed;
      if (rec != nullptr && rec->Sample()) {
        const int32_t root = rec->Root(SpanName::kLibPoint, t0, t1);
        const int64_t a = NowNs();
        const bool again = index.PointQuery(p, &ps);
        const int64_t b = NowNs();
        rec->Child(root, SpanName::kPointLocate, a, b);
        if (!again) ++report->failed;
        ++report->attempted;
      }
    }
    ++i;
    reads += 1 + kPointsPerRange;
    now = NowNs();
  }
  const double seconds = static_cast<double>(now - start) / 1e9;
  phase->reads += reads;
  phase->read_seconds += seconds;
  report->attempted += reads;
  AddSlice(&range_ns, &point_ns, reads, seconds, phase);
}

// Library-path writes: an insert is acked when Insert returns and is
// visible to the next lookup on the same thread. Each kInsertBatch
// inserts add one rate sample; write_qps is their median.
void InsertBatch(wazi::Wazi& index, const wazi::Point* inserts, size_t n,
                 PhaseResult* phase, Report* report) {
  int64_t batch_ns = 0;
  for (size_t k = 0; k < n; ++k) {
    const int64_t t0 = NowNs();
    const bool ok = index.Insert(inserts[k]);
    const int64_t t1 = NowNs();
    batch_ns += t1 - t0;
    if (!ok) ++report->failed;
    if ((k + 1) % kInsertBatch == 0) {
      phase->write_rates.push_back(static_cast<double>(kInsertBatch) /
                                   (static_cast<double>(batch_ns) / 1e9));
      batch_ns = 0;
    }
    if (k % kVisibleEvery == 0) {
      const bool found = index.PointQuery(inserts[k]);
      const int64_t t2 = NowNs();
      ++report->attempted;
      if (found) {
        phase->visible_ns.push_back(static_cast<double>(t2 - t1));
      } else {
        ++report->failed;
      }
    }
  }
  phase->writes += static_cast<int64_t>(n);
  report->attempted += static_cast<int64_t>(n);
}

}  // namespace

uint64_t IndexRangeDigest(uint64_t seed) {
  const Inputs in = MakeInputs(seed);
  Digest d;
  d.Add(in.data.points);
  d.Add(in.training.queries);
  d.Add(in.ranges.queries);
  d.Add(in.points);
  d.Add(InsertStream(in.data.bounds, kInserts, seed));
  return d.value();
}

Report RunIndexRange(const Args& args) {
  Report report;
  report.Param("region", "CaliNev");
  report.Param("points", static_cast<double>(kPoints));
  report.Param("training_queries", static_cast<double>(kTrainingQueries));
  report.Param("selectivity", wazi::kSelectivityMid2);
  report.Param("timed_ranges", static_cast<double>(kTimedRanges));
  report.Param("timed_points", static_cast<double>(kTimedPoints));
  report.Param("op_mix", "1 range : 4 point lookups");
  report.Param("inserts", static_cast<double>(kInserts));
  report.Param("slices", static_cast<double>(kSlices));
  report.Param("threads", 1.0);

  const Inputs in = MakeInputs(args.seed);
  const std::vector<wazi::Point> inserts =
      InsertStream(in.data.bounds, kInserts, args.seed);
  std::vector<RangeCheck> checks;

  // One build: at ~15 s it is a long average on its own, and two more
  // would not fit the run budget.
  PhaseResult phases[2];  // untraced, traced; allocated before the baseline
  const size_t rss_before = CurrentRssBytes();
  wazi::Wazi index;
  const int64_t b0 = NowNs();
  index.Build(in.data, in.training, wazi::BuildOptions{});
  const double setup_s = static_cast<double>(NowNs() - b0) / 1e9;
  const double index_bytes_per_point =
      static_cast<double>(index.SizeBytes()) / static_cast<double>(kPoints);

  std::map<std::string, double> layer;
  SpanRecorder rec(kTraceEvery);
  ReadCursor cursor;
  const int slices = args.trace ? 2 * kSlices : kSlices;
  const int64_t slice_ns = int64_t{args.seconds} * 1'000'000'000 / kSlices;
  const size_t per_slice = inserts.size() / static_cast<size_t>(slices);
  for (int s = 0; s < slices; ++s) {
    const bool traced = args.trace && s % 2 == 1;
    PhaseResult& phase = phases[traced ? 1 : 0];
    const size_t inserted = static_cast<size_t>(s) * per_slice;
    ReadSlice(index, in, slice_ns, inserted, traced ? &rec : nullptr,
              &cursor, &checks, &phase, &report);
    InsertBatch(index, &inserts[inserted], per_slice, &phase, &report);
  }
  const PhaseResult& phase = phases[args.trace ? 1 : 0];
  if (args.trace) {
    AddTraceOverhead(phases[0], phases[1], &layer);
    const TraceSummary sum(rec);
    layer["core.project_ns"] = sum.MedianSelfNs({SpanName::kProject});
    layer["common.scan_ns"] = sum.MedianSelfNs({SpanName::kScan});
    layer["core.point_locate_ns"] = sum.MedianSelfNs({SpanName::kPointLocate});
    layer["core.index_bytes_per_point"] = index_bytes_per_point;
    RangeWorkMetrics(sum, &layer);
    if (!WriteSpans(rec, args.out_dir + "/spans-index_range.tsv")) {
      report.Note("span dump not written");
    }
  }
  const size_t live = kPoints + inserts.size();
  const size_t rss_after = CurrentRssBytes();
  const double bytes_per_point =
      static_cast<double>(rss_after - std::min(rss_after, rss_before)) /
      static_cast<double>(live);

  const int64_t mismatches =
      CountMismatches(in.data, inserts, in.ranges, checks);
  report.failed += mismatches;
  char buf[200];
  std::snprintf(buf, sizeof(buf),
                "checked %zu sampled range results against a full scan: "
                "%lld mismatches",
                checks.size(), static_cast<long long>(mismatches));
  report.Note(buf);
  NoteSamples(phase, &report);
  AddEndToEnd(phase, setup_s, bytes_per_point, &report);
  AddPerLayer(layer, &report);
  return report;
}

}  // namespace perfbench
