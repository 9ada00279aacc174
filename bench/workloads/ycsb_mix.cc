// YCSB-style read/write mix: the standard serving profile, driven
// through RunLoad with a hot set — phase "b" is the YCSB-B shape
// (95% reads, hot 10% of the workload absorbing 90% of them) over a
// result cache, phase "update_heavy" leans to 20% writes and measures
// the same loop with invalidation pressure. Recorded per phase so the
// trajectory separates the cache-friendly and churny regimes.

#include <string>
#include <vector>

#include "workload/query_generator.h"
#include "workload/region_generator.h"
#include "workloads/scenario.h"

namespace wazi::bench::workloads {
namespace {

class YcsbMixScenario : public Scenario {
 public:
  std::string id() const override { return "ycsb_mix"; }
  std::string description() const override {
    return "YCSB-style hot-set read/write mix over a result cache";
  }
  std::string op_mix() const override {
    return "phase b: 95r/5w, 90% of reads on a hot 10%; "
           "phase update_heavy: 80r/20w";
  }
  std::string stresses() const override {
    return "result cache hit/invalidation balance, mixed admission, "
           "per-shard writers under steady writes";
  }

  Dataset GenerateData(const ScenarioConfig& cfg) const override {
    return GenerateRegion(Region::kNewYork, cfg.points(), cfg.seed);
  }

  Workload GenerateQueries(const ScenarioConfig& cfg,
                           const Dataset& data) const override {
    QueryGenOptions qopts;
    qopts.num_queries = 1024;
    qopts.selectivity = kSelectivityMid2;
    qopts.seed = cfg.seed + 1;
    return GenerateCheckinWorkload(Region::kNewYork, data.bounds, qopts);
  }

  serve::ServeOptions Options(const ScenarioConfig& cfg) const override {
    serve::ServeOptions opts = Scenario::Options(cfg);
    opts.num_shards = 2;
    opts.cache.capacity_bytes = 16u << 20;  // the hot set should fit
    return opts;
  }

 protected:
  bool SupportsNet() const override { return true; }

  void Drive(const ScenarioConfig& cfg, RunContext& ctx,
             std::vector<PhaseResult>* phases,
             std::vector<std::string>*) const override {
    serve::ServeLoop* loop = ctx.loop;
    {
      LoadOptions lopts;
      lopts.threads = cfg.client_threads();
      lopts.seconds = cfg.phase_seconds();
      lopts.write_pct = 5;
      lopts.hot_fraction = 0.1;  // hot 10% absorbs 90% of reads
      const serve::ResultCacheStats before = loop->cache_stats();
      const LoadResult b = ctx.RunLoad(*ctx.workload, lopts);
      phases->push_back(PhaseFromLoad("b", b, before, loop->cache_stats()));
    }
    {
      LoadOptions lopts;
      lopts.threads = cfg.client_threads();
      lopts.seconds = cfg.phase_seconds();
      lopts.write_pct = 20;
      lopts.hot_fraction = 0.1;
      const serve::ResultCacheStats before = loop->cache_stats();
      const LoadResult u = ctx.RunLoad(*ctx.workload, lopts);
      phases->push_back(
          PhaseFromLoad("update_heavy", u, before, loop->cache_stats()));
    }
  }

  void Check(const ScenarioConfig&, RunContext& ctx,
             std::vector<std::string>* failures,
             int64_t* checks) const override {
    // Bounds, not exact membership: the driver's inserts land in
    // insert_region with driver-allocated ids, so the quiesced loop must
    // hold at least the base dataset (a write-only-insert mix can never
    // shrink it).
    const serve::QueryResult all = ctx.loop->Range(ctx.data->bounds);
    ++*checks;
    if (all.hits.size() < ctx.data->points.size()) {
      failures->push_back(
          "base dataset shrank under a write-only-insert mix: " +
          std::to_string(all.hits.size()) + " < " +
          std::to_string(ctx.data->points.size()));
    }
    // The cache must have produced a sane hit accounting.
    const serve::ResultCacheStats cache = ctx.loop->cache_stats();
    ++*checks;
    if (cache.hits < 0 || cache.misses < 0) {
      failures->push_back("negative cache counters");
    }
    ++*checks;
    if (ctx.loop->epoch() < 1) {
      failures->push_back("epoch went below its starting value");
    }
  }
};

}  // namespace

std::unique_ptr<Scenario> MakeYcsbMixScenario() {
  return std::make_unique<YcsbMixScenario>();
}

}  // namespace wazi::bench::workloads
