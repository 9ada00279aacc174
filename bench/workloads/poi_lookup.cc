// POI point-lookup scenario: a read-only stream of point-existence
// lookups whose targets are drawn Zipf(0.99) over the dataset — a small
// set of "popular places" absorbs most of the traffic, the tail is
// cold. Exercises single-shard point routing across a 2-shard topology
// and the per-type query counters; every lookup targets a real point,
// so any `found == false` is an engine error.

#include <algorithm>
#include <string>
#include <vector>

#include "workload/query_generator.h"
#include "workload/region_generator.h"
#include "workloads/scenario.h"

namespace wazi::bench::workloads {
namespace {

class PoiLookupScenario : public Scenario {
 public:
  std::string id() const override { return "poi_lookup"; }
  std::string description() const override {
    return "Zipf hot-key point lookups over a POI dataset (read-only)";
  }
  std::string op_mix() const override {
    return "100% point lookups, targets Zipf(0.99) over all points";
  }
  std::string stresses() const override {
    return "single-shard point routing, snapshot acquire cost, "
           "serve_point_queries_total";
  }

  Dataset GenerateData(const ScenarioConfig& cfg) const override {
    return GenerateRegion(Region::kCaliNev, cfg.points(), cfg.seed);
  }

  Workload GenerateQueries(const ScenarioConfig& cfg,
                           const Dataset& data) const override {
    // Build-time training workload only; the drive phase issues point
    // lookups, not these ranges.
    QueryGenOptions qopts;
    qopts.num_queries = 512;
    qopts.selectivity = kSelectivityMid2;
    qopts.seed = cfg.seed + 1;
    return GenerateCheckinWorkload(Region::kCaliNev, data.bounds, qopts);
  }

  serve::ServeOptions Options(const ScenarioConfig& cfg) const override {
    serve::ServeOptions opts = Scenario::Options(cfg);
    opts.num_shards = 2;  // lookups route to exactly one of them
    return opts;
  }

 protected:
  void Drive(const ScenarioConfig& cfg, RunContext& ctx,
             std::vector<PhaseResult>* phases,
             std::vector<std::string>*) const override {
    const std::vector<Point>& points = ctx.data->points;
    const ZipfSampler zipf(points.size(), 0.99);
    serve::ServeLoop* loop = ctx.loop;
    // Every target exists, so a not-found lookup is an engine error.
    const LoadResult ops = RunOps(
        cfg.client_threads(), cfg.phase_seconds(), cfg.seed + 100,
        [&points, &zipf, loop](int, Rng& rng) {
          return loop->PointLookup(points[zipf.Sample(rng)])
                     ? OpOutcome::kRead
                     : OpOutcome::kError;
        });
    phases->push_back(PhaseFromLoad("zipf_lookups", ops));
  }

  void Check(const ScenarioConfig& cfg, RunContext& ctx,
             std::vector<std::string>* failures,
             int64_t* checks) const override {
    // Every sampled point must still be found on the quiesced loop, hot
    // head and cold tail alike.
    const std::vector<Point>& points = ctx.data->points;
    Rng rng(cfg.seed + 200);
    const size_t samples = std::min<size_t>(256, points.size());
    for (size_t i = 0; i < samples; ++i) {
      const Point& p = points[rng.NextBelow(points.size())];
      ++*checks;
      if (!ctx.loop->PointLookup(p)) {
        failures->push_back("quiesced lookup missed point id " +
                            std::to_string(p.id));
        break;
      }
    }
  }
};

}  // namespace

std::unique_ptr<Scenario> MakePoiLookupScenario() {
  return std::make_unique<PoiLookupScenario>();
}

}  // namespace wazi::bench::workloads
