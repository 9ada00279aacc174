// Scan-heavy analytics scenario: large range scans (~1% of the domain,
// ~40x the default serving selectivity) driven through the batched
// admission pipeline, so big result sets stream through coalesced
// batches under one epoch-pinned snapshot acquisition. Exercises the
// leaf-scan path (projection + span filtering dominate, not structure
// descent), admission batching with heavy per-query payloads, and the
// differential invariant diffs whole result sets against brute force.

#include <algorithm>
#include <string>
#include <vector>

#include "workload/query_generator.h"
#include "workload/region_generator.h"
#include "workloads/scenario.h"

namespace wazi::bench::workloads {
namespace {

class ScanHeavyScenario : public Scenario {
 public:
  std::string id() const override { return "scan_heavy"; }
  std::string description() const override {
    return "large-range analytics scans through batched admission";
  }
  std::string op_mix() const override {
    return "100% range scans at 1% selectivity, admission depth 8";
  }
  std::string stresses() const override {
    return "leaf scan/projection kernels, admission coalescing with "
           "large results, epoch-pinned batch execution";
  }

  Dataset GenerateData(const ScenarioConfig& cfg) const override {
    return GenerateRegion(Region::kJapan, cfg.points(), cfg.seed);
  }

  Workload GenerateQueries(const ScenarioConfig& cfg,
                           const Dataset& data) const override {
    QueryGenOptions qopts;
    qopts.num_queries = 512;
    qopts.selectivity = 0.01;  // ~1% of the domain per scan
    qopts.aspect_max = 4.0;    // stretched analytic windows
    qopts.seed = cfg.seed + 1;
    return GenerateCheckinWorkload(Region::kJapan, data.bounds, qopts);
  }

  serve::ServeOptions Options(const ScenarioConfig& cfg) const override {
    serve::ServeOptions opts = Scenario::Options(cfg);
    opts.num_shards = 2;
    opts.num_threads = 4;  // batch workers
    return opts;
  }

 protected:
  bool SupportsNet() const override { return true; }

  void Drive(const ScenarioConfig& cfg, RunContext& ctx,
             std::vector<PhaseResult>* phases,
             std::vector<std::string>*) const override {
    LoadOptions lopts;
    lopts.threads = cfg.client_threads();
    lopts.seconds = cfg.phase_seconds();
    lopts.pipeline_depth = 8;
    const serve::ResultCacheStats before = ctx.loop->cache_stats();
    const LoadResult load = ctx.RunLoad(*ctx.workload, lopts);
    phases->push_back(
        PhaseFromLoad("scans", load, before, ctx.loop->cache_stats()));
  }

  void Check(const ScenarioConfig& cfg, RunContext& ctx,
             std::vector<std::string>* failures,
             int64_t* checks) const override {
    // Differential: a sample of the scan windows, executed on the
    // quiesced loop, must return exactly the brute-force membership
    // (read-only scenario — the dataset IS the ground truth).
    Rng rng(cfg.seed + 200);
    const std::vector<Rect>& queries = ctx.workload->queries;
    const size_t samples = std::min<size_t>(32, queries.size());
    for (size_t s = 0; s < samples; ++s) {
      const Rect& q = queries[rng.NextBelow(queries.size())];
      std::vector<int64_t> expected;
      for (const Point& p : ScanRange(*ctx.data, q)) expected.push_back(p.id);
      std::sort(expected.begin(), expected.end());
      const serve::QueryResult res = ctx.loop->Range(q);
      std::vector<int64_t> got;
      got.reserve(res.hits.size());
      for (const Point& p : res.hits) got.push_back(p.id);
      std::sort(got.begin(), got.end());
      ++*checks;
      if (got != expected) {
        failures->push_back("scan result mismatch vs brute force: " +
                            std::to_string(got.size()) + " vs " +
                            std::to_string(expected.size()) + " hits");
        break;
      }
    }
  }
};

}  // namespace

std::unique_ptr<Scenario> MakeScanHeavyScenario() {
  return std::make_unique<ScanHeavyScenario>();
}

}  // namespace wazi::bench::workloads
