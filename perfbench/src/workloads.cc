#include "workloads.h"

#include <algorithm>
#include <cstdio>

#include "common/rng.h"
#include "workload/query_generator.h"

namespace perfbench {
namespace {

// The per-layer catalog, in output order. Must match BENCHMARK.json.
struct LayerMetric {
  const char* name;
  const char* unit;
};
constexpr LayerMetric kLayerMetrics[] = {
    {"core.project_ns", "ns"},
    {"core.bbs_checked_per_query", "count"},
    {"core.pages_scanned_per_query", "count"},
    {"core.point_locate_ns", "ns"},
    {"core.index_bytes_per_point", "B"},
    {"common.scan_ns", "ns"},
    {"common.points_scanned_per_query", "count"},
    {"common.scan_useful_ratio", "ratio"},
    {"common.scalar_tail_share", "ratio"},
    {"serve.topology_pin_ns", "ns"},
    {"serve.router_ns", "ns"},
    {"serve.snapshot_pin_ns", "ns"},
    {"serve.loop_overhead_ns", "ns"},
    {"serve.range_fanout", "count"},
    {"serve.admission_wait_us", "us"},
    {"serve.admission_mean_batch", "count"},
    {"serve.cache_hit_ratio", "ratio"},
    {"serve.cache_invalidation_ratio", "ratio"},
    {"serve.writer_ops_per_publish", "count"},
    {"serve.flush_ms", "ms"},
    {"serve.stall_copies", "count"},
    {"serve.epoch_limbo_peak", "count"},
    {"net.request_encode_ns", "ns"},
    {"net.response_decode_ns", "ns"},
    {"net.response_bytes_per_op", "B"},
    {"net.wire_overhead_us", "us"},
    {"load.late_p99_us", "us"},
    {"obs.trace_overhead_pct.range_p50_us", "%"},
    {"obs.trace_overhead_pct.range_p99_us", "%"},
    {"obs.trace_overhead_pct.point_p50_us", "%"},
    {"obs.trace_overhead_pct.point_p99_us", "%"},
    {"obs.trace_overhead_pct.read_qps", "%"},
    {"obs.trace_overhead_pct.write_qps", "%"},
    {"obs.trace_overhead_pct.write_visible_p50_ms", "%"},
};

double Us(int64_t ns) { return static_cast<double>(ns) / 1e3; }

struct PhaseFigures {
  double range_p50_us, range_p99_us, point_p50_us, point_p99_us;
  double read_qps, write_qps, write_visible_p50_ms;
};

PhaseFigures FiguresOf(const PhaseResult& phase) {
  PhaseFigures f{};
  f.range_p99_us = Us(phase.range.P99Ns());
  f.point_p99_us = Us(phase.point.P99Ns());
  if (!phase.slice_read_qps.empty()) {
    std::vector<double> v = phase.slice_range_p50_ns;
    f.range_p50_us = Median(&v) / 1e3;
    v = phase.slice_point_p50_ns;
    f.point_p50_us = Median(&v) / 1e3;
    v = phase.slice_read_qps;
    f.read_qps = Median(&v);
  } else {
    f.range_p50_us = Us(phase.range.MedianNs());
    f.point_p50_us = Us(phase.point.MedianNs());
    f.read_qps = phase.read_seconds > 0
                     ? static_cast<double>(phase.reads) / phase.read_seconds
                     : 0.0;
  }
  std::vector<double> rates = phase.write_rates;
  f.write_qps = Median(&rates);
  std::vector<double> vis = phase.visible_ns;
  f.write_visible_p50_ms = Median(&vis) / 1e6;
  return f;
}

}  // namespace

void AddSlice(std::vector<double>* range_ns, std::vector<double>* point_ns,
              int64_t reads, double seconds, PhaseResult* phase) {
  phase->slice_range_p50_ns.push_back(Median(range_ns));
  phase->slice_point_p50_ns.push_back(Median(point_ns));
  phase->slice_read_qps.push_back(static_cast<double>(reads) / seconds);
}

std::vector<int64_t> SortedIds(const std::vector<wazi::Point>& points) {
  std::vector<int64_t> ids;
  ids.reserve(points.size());
  for (const wazi::Point& p : points) ids.push_back(p.id);
  std::sort(ids.begin(), ids.end());
  return ids;
}

int64_t CountMismatches(const wazi::Dataset& data,
                        const std::vector<wazi::Point>& inserts,
                        const wazi::Workload& ranges,
                        const std::vector<RangeCheck>& checks) {
  int64_t mismatches = 0;
  for (const RangeCheck& c : checks) {
    const wazi::Rect& rect = ranges.queries[c.query];
    std::vector<wazi::Point> want = wazi::ScanRange(data, rect);
    for (size_t i = 0; i < c.inserted; ++i) {
      if (rect.Contains(inserts[i])) want.push_back(inserts[i]);
    }
    if (SortedIds(want) != SortedIds(c.got)) ++mismatches;
  }
  return mismatches;
}

void CheckinQueries(wazi::Region region, const wazi::Rect& domain,
                    double selectivity, uint64_t dist_seed,
                    size_t n_training, size_t n_timed, uint64_t seed,
                    wazi::Workload* training, wazi::Workload* timed) {
  constexpr size_t kPoolPerTimed = 8;
  wazi::QueryGenOptions q;
  q.num_queries = n_training + kPoolPerTimed * n_timed;
  q.selectivity = selectivity;
  q.seed = dist_seed;
  const wazi::Workload all = wazi::GenerateCheckinWorkload(region, domain, q);
  *training = all;
  training->queries.resize(n_training);
  *timed = all;
  timed->queries.clear();
  wazi::Rng rng(SubSeed(seed, 1));
  const size_t pool = all.queries.size() - n_training;
  for (size_t i = 0; i < n_timed; ++i) {
    timed->queries.push_back(all.queries[n_training + rng.NextBelow(pool)]);
  }
}

std::vector<wazi::Point> InsertStream(const wazi::Rect& domain, size_t n,
                                      uint64_t seed) {
  return wazi::GenerateInsertStream(domain, n, /*first_id=*/int64_t{1} << 40,
                                    SubSeed(seed, 10));
}

uint64_t SubSeed(uint64_t seed, uint64_t stream) {
  wazi::Rng rng(seed * 0x9e3779b97f4a7c15ull + stream);
  return rng.NextU64();
}

void AddEndToEnd(const PhaseResult& phase, double setup_s,
                 double bytes_per_point, Report* report) {
  const PhaseFigures f = FiguresOf(phase);
  auto add = [report](const char* name, double value, const char* unit) {
    report->end_to_end.push_back(Metric{name, value, unit});
  };
  add("setup_s", setup_s, "s");
  add("range_p50_us", f.range_p50_us, "us");
  add("point_p50_us", f.point_p50_us, "us");
  add("read_qps", f.read_qps, "1/s");
  add("write_qps", f.write_qps, "1/s");
  add("write_visible_p50_ms", f.write_visible_p50_ms, "ms");
  add("bytes_per_point", bytes_per_point, "B");
  report->reported.push_back(Metric{"range_p99_us", f.range_p99_us, "us"});
  report->reported.push_back(Metric{"point_p99_us", f.point_p99_us, "us"});
}

void AddTraceOverhead(const PhaseResult& untraced, const PhaseResult& traced,
                      std::map<std::string, double>* layer) {
  const PhaseFigures u = FiguresOf(untraced);
  const PhaseFigures t = FiguresOf(traced);
  auto pct = [layer](const char* name, double base, double with) {
    (*layer)[std::string("obs.trace_overhead_pct.") + name] =
        base != 0.0 ? (with - base) / base * 100.0 : 0.0;
  };
  pct("range_p50_us", u.range_p50_us, t.range_p50_us);
  pct("range_p99_us", u.range_p99_us, t.range_p99_us);
  pct("point_p50_us", u.point_p50_us, t.point_p50_us);
  pct("point_p99_us", u.point_p99_us, t.point_p99_us);
  pct("read_qps", u.read_qps, t.read_qps);
  pct("write_qps", u.write_qps, t.write_qps);
  pct("write_visible_p50_ms", u.write_visible_p50_ms,
      t.write_visible_p50_ms);
}

void AddPerLayer(const std::map<std::string, double>& layer, Report* report) {
  for (const LayerMetric& m : kLayerMetrics) {
    const auto it = layer.find(m.name);
    report->per_layer.push_back(
        Metric{m.name, it == layer.end() ? 0.0 : it->second, m.unit});
  }
  for (const auto& [name, value] : layer) {
    const bool known =
        std::any_of(std::begin(kLayerMetrics), std::end(kLayerMetrics),
                    [&](const LayerMetric& m) { return name == m.name; });
    if (!known) {
      std::fprintf(stderr, "perfbench: uncatalogued layer metric %s\n",
                   name.c_str());
      report->invalid = "uncatalogued layer metric " + name;
    }
  }
}

void CountRangeWork(const wazi::QueryStats& st, SpanRecorder* rec) {
  rec->Count("bbs_checked", static_cast<double>(st.bbs_checked));
  rec->Count("pages_scanned", static_cast<double>(st.pages_scanned));
  rec->Count("points_scanned", static_cast<double>(st.points_scanned));
  rec->Count("results", static_cast<double>(st.results));
  rec->Count("scalar_tail", static_cast<double>(st.scalar_tail));
}

void RangeWorkMetrics(const TraceSummary& sum,
                      std::map<std::string, double>* layer) {
  const double scanned = sum.SumCount("points_scanned");
  (*layer)["core.bbs_checked_per_query"] = sum.MeanCount("bbs_checked");
  (*layer)["core.pages_scanned_per_query"] = sum.MeanCount("pages_scanned");
  (*layer)["common.points_scanned_per_query"] =
      sum.MeanCount("points_scanned");
  if (scanned > 0) {
    (*layer)["common.scan_useful_ratio"] = sum.SumCount("results") / scanned;
    (*layer)["common.scalar_tail_share"] =
        sum.SumCount("scalar_tail") / scanned;
  }
}

void NoteSamples(const PhaseResult& phase, Report* report) {
  char buf[320];
  std::snprintf(buf, sizeof(buf),
                "samples: range n=%lld (%zu p99 chunks, whole-run p99 %.1f "
                "us), point n=%lld (%zu p99 chunks, whole-run p99 %.1f us), "
                "write_visible n=%zu, writes n=%lld",
                static_cast<long long>(phase.range.count()),
                phase.range.chunks(), Us(phase.range.PercentileNs(99)),
                static_cast<long long>(phase.point.count()),
                phase.point.chunks(), Us(phase.point.PercentileNs(99)),
                phase.visible_ns.size(),
                static_cast<long long>(phase.writes));
  report->Note(buf);
}

}  // namespace perfbench
