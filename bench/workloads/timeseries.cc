// Timeseries append + range scenario: x is time, y is a series value.
// The dataset covers [0, 0.7) of the time axis; a precomputed,
// strictly-ordered append stream fills (0.7, 1.0] while clients mix
// appends (30%) with range reads over sliding time windows. Exercises
// the background writer's batched apply + snapshot publish cadence
// under a steady ingest, and the invariant diff proves no append was
// lost or duplicated across publishes.

#include <algorithm>
#include <atomic>
#include <string>
#include <vector>

#include "workloads/scenario.h"

namespace wazi::bench::workloads {
namespace {

class TimeseriesScenario : public Scenario {
 public:
  std::string id() const override { return "timeseries_append"; }
  std::string description() const override {
    return "ordered time-axis appends mixed with sliding range reads";
  }
  std::string op_mix() const override {
    return "30% ordered appends, 70% time-window range reads";
  }
  std::string stresses() const override {
    return "writer batching + snapshot publish cadence, right-edge "
           "inserts, serve_snapshot_publishes_total";
  }

  Dataset GenerateData(const ScenarioConfig& cfg) const override {
    Dataset data;
    data.name = "timeseries";
    const size_t n = cfg.points();
    Rng rng(cfg.seed);
    data.points.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      // Strictly increasing time stamps: coordinate-unique by
      // construction (removes key on coordinates).
      const double x = 0.7 * (static_cast<double>(i) + 0.5) /
                       static_cast<double>(n);
      data.points.push_back(
          Point{x, rng.NextDouble(), static_cast<int64_t>(i)});
    }
    data.bounds = Rect::Of(0.0, 0.0, 1.0, 1.0);
    return data;
  }

  Workload GenerateQueries(const ScenarioConfig& cfg,
                           const Dataset& data) const override {
    // Sliding windows of width 0.05 across the whole timeline (appended
    // region included, so late windows read fresh data).
    Workload w;
    w.name = "timeseries/windows";
    w.selectivity = 0.05;
    Rng rng(cfg.seed + 1);
    const size_t n_queries = 1024;
    w.queries.reserve(n_queries);
    (void)data;
    for (size_t i = 0; i < n_queries; ++i) {
      const double lo = rng.NextDouble() * 0.95;
      w.queries.push_back(Rect::Of(lo, 0.0, lo + 0.05, 1.0));
    }
    return w;
  }

  // The append stream: deterministic continuation of the time axis.
  static std::vector<Point> AppendStream(const ScenarioConfig& cfg) {
    const size_t n = cfg.points();
    const size_t m = std::max<size_t>(1, n / 10);
    std::vector<Point> stream;
    stream.reserve(m);
    Rng rng(cfg.seed + 2);
    for (size_t j = 0; j < m; ++j) {
      const double x = 0.7 + 0.3 * (static_cast<double>(j) + 0.5) /
                                 static_cast<double>(m);
      stream.push_back(Point{x, rng.NextDouble(),
                             static_cast<int64_t>(2000000000 + j)});
    }
    return stream;
  }

 protected:
  void Drive(const ScenarioConfig& cfg, RunContext& ctx,
             std::vector<PhaseResult>* phases,
             std::vector<std::string>*) const override {
    const std::vector<Point> stream = AppendStream(cfg);
    const std::vector<Rect>& windows = ctx.workload->queries;
    serve::ServeLoop* loop = ctx.loop;
    // Shared cursor: each append consumes the next stream slot exactly
    // once, so the applied prefix is exact regardless of interleaving.
    std::atomic<size_t> next_append{0};
    const int threads = cfg.client_threads();
    std::vector<size_t> read_cursor(static_cast<size_t>(threads), 0);
    for (int t = 0; t < threads; ++t) {
      read_cursor[static_cast<size_t>(t)] =
          static_cast<size_t>(t) * 131;  // per-thread offset, deterministic
    }
    const LoadResult ops = RunOps(
        threads, cfg.phase_seconds(), cfg.seed + 100,
        [&, loop](int t, Rng& rng) {
          if (rng.NextBelow(100) < 30) {
            // relaxed: the cursor only hands out distinct stream slots.
            const size_t j =
                next_append.fetch_add(1, std::memory_order_relaxed);
            if (j < stream.size()) {
              loop->SubmitInsert(stream[j]);
              return OpOutcome::kWrite;
            }
            // Stream exhausted: fall through to a read so the op still
            // does work.
          }
          size_t& cursor = read_cursor[static_cast<size_t>(t)];
          const Rect& q = windows[cursor++ % windows.size()];
          loop->Range(q);
          return OpOutcome::kRead;
        });
    appended_ = std::min(next_append.load(), stream.size());
    phases->push_back(PhaseFromLoad("append_range", ops));
  }

  void Check(const ScenarioConfig& cfg, RunContext& ctx,
             std::vector<std::string>* failures,
             int64_t* checks) const override {
    // Exact membership diff: quiesced whole-domain scan == initial
    // points + the applied append prefix (no lost or duplicated
    // appends across snapshot publishes).
    const std::vector<Point> stream = AppendStream(cfg);
    std::vector<int64_t> expected;
    expected.reserve(ctx.data->points.size() + appended_);
    for (const Point& p : ctx.data->points) expected.push_back(p.id);
    for (size_t j = 0; j < appended_; ++j) expected.push_back(stream[j].id);
    std::sort(expected.begin(), expected.end());

    const serve::QueryResult all =
        ctx.loop->Range(Rect::Of(0.0, 0.0, 1.0, 1.0));
    std::vector<int64_t> got;
    got.reserve(all.hits.size());
    for (const Point& p : all.hits) got.push_back(p.id);
    std::sort(got.begin(), got.end());
    ++*checks;
    if (got != expected) {
      failures->push_back(
          "membership mismatch after appends: expected " +
          std::to_string(expected.size()) + " ids, got " +
          std::to_string(got.size()));
    }
    // The newest applied append must be point-visible too.
    if (appended_ > 0) {
      ++*checks;
      if (!ctx.loop->PointLookup(stream[appended_ - 1])) {
        failures->push_back("latest applied append not point-visible");
      }
    }
  }

 private:
  // Applied append count, handed from Drive to Check (Run calls them in
  // sequence on one thread).
  mutable size_t appended_ = 0;
};

}  // namespace

std::unique_ptr<Scenario> MakeTimeseriesScenario() {
  return std::make_unique<TimeseriesScenario>();
}

}  // namespace wazi::bench::workloads
