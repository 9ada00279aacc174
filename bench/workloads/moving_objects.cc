// Moving-objects churn scenario: a fixed population of objects whose
// positions are continuously updated (remove old position, insert new)
// at a high write rate, spread across 4 per-shard writers, with range
// reads mixed in. The invariant is conservation: after the churn
// quiesces, every object exists exactly once, at exactly its final
// position — a lost remove, a dropped insert, or a misrouted update
// would break the membership diff.
//
// Coordinates are drawn on a per-object lattice (x encodes the object
// index in its low-order structure) so two objects can never collide on
// coordinates — removes key on coordinates inside the index, and a
// collision would make remove-old-position ambiguous.

#include <algorithm>
#include <string>
#include <vector>

#include "workload/query_generator.h"
#include "workloads/scenario.h"

namespace wazi::bench::workloads {
namespace {

constexpr uint64_t kLattice = 1 << 20;  // x granularity per object slot

class MovingObjectsScenario : public Scenario {
 public:
  std::string id() const override { return "moving_objects"; }
  std::string description() const override {
    return "high-rate position churn over a fixed object population";
  }
  std::string op_mix() const override {
    return "70% position updates (remove+insert), 30% range reads";
  }
  std::string stresses() const override {
    return "per-shard writer throughput, routed updates, remove-by-"
           "coordinate correctness, update conservation across swaps";
  }

  // x = (c * n + i) / (kLattice * n): object i's x always has residue i
  // mod n on the lattice, so distinct objects never share coordinates.
  static double ObjectX(size_t i, uint64_t cell, size_t n) {
    return (static_cast<double>(cell) * static_cast<double>(n) +
            static_cast<double>(i)) /
           (static_cast<double>(kLattice) * static_cast<double>(n));
  }

  Dataset GenerateData(const ScenarioConfig& cfg) const override {
    Dataset data;
    data.name = "moving_objects";
    const size_t n = cfg.points();
    Rng rng(cfg.seed);
    data.points.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      data.points.push_back(Point{ObjectX(i, rng.NextBelow(kLattice), n),
                                  rng.NextDouble(),
                                  static_cast<int64_t>(i)});
    }
    data.bounds = Rect::Of(0.0, 0.0, 1.0, 1.0);
    return data;
  }

  Workload GenerateQueries(const ScenarioConfig& cfg,
                           const Dataset& data) const override {
    QueryGenOptions qopts;
    qopts.num_queries = 1024;
    qopts.selectivity = kSelectivityMid2;
    qopts.seed = cfg.seed + 1;
    return GenerateUniformWorkload(data.bounds, qopts);
  }

  serve::ServeOptions Options(const ScenarioConfig& cfg) const override {
    serve::ServeOptions opts = Scenario::Options(cfg);
    opts.num_shards = 4;  // the churn fans out across 4 writers
    return opts;
  }

 protected:
  void Drive(const ScenarioConfig& cfg, RunContext& ctx,
             std::vector<PhaseResult>* phases,
             std::vector<std::string>*) const override {
    const size_t n = ctx.data->points.size();
    const int threads = cfg.client_threads();
    // Thread t owns objects [t*n/T, (t+1)*n/T): all updates to one
    // object are issued (in order) from one thread, so its final
    // position is well-defined.
    positions_ = ctx.data->points;
    std::vector<size_t> cursor(static_cast<size_t>(threads), 0);
    const std::vector<Rect>& queries = ctx.workload->queries;
    std::vector<size_t> read_cursor(static_cast<size_t>(threads), 0);
    serve::ServeLoop* loop = ctx.loop;
    const LoadResult ops = RunOps(
        threads, cfg.phase_seconds(), cfg.seed + 100,
        [&, loop, n, threads](int t, Rng& rng) {
          const size_t ut = static_cast<size_t>(t);
          const size_t lo = ut * n / static_cast<size_t>(threads);
          const size_t hi = (ut + 1) * n / static_cast<size_t>(threads);
          if (hi > lo && rng.NextBelow(100) < 70) {
            const size_t i = lo + cursor[ut]++ % (hi - lo);
            Point& pos = positions_[i];
            loop->SubmitRemove(pos);
            pos.x = ObjectX(i, rng.NextBelow(kLattice), n);
            pos.y = rng.NextDouble();
            loop->SubmitInsert(pos);
            return OpOutcome::kWrite;
          }
          loop->Range(queries[read_cursor[ut]++ % queries.size()]);
          return OpOutcome::kRead;
        });
    phases->push_back(PhaseFromLoad("churn", ops));
  }

  void Check(const ScenarioConfig&, RunContext& ctx,
             std::vector<std::string>* failures,
             int64_t* checks) const override {
    // Conservation: exactly the original object ids, once each.
    const serve::QueryResult all =
        ctx.loop->Range(Rect::Of(0.0, 0.0, 1.0, 1.0));
    std::vector<int64_t> got;
    got.reserve(all.hits.size());
    for (const Point& p : all.hits) got.push_back(p.id);
    std::sort(got.begin(), got.end());
    std::vector<int64_t> expected;
    expected.reserve(positions_.size());
    for (const Point& p : positions_) expected.push_back(p.id);
    std::sort(expected.begin(), expected.end());
    ++*checks;
    if (got != expected) {
      failures->push_back("object conservation broken: expected " +
                          std::to_string(expected.size()) + " objects, got " +
                          std::to_string(got.size()));
    }
    // Spot-check final positions: each sampled object is point-visible
    // exactly where its last update put it.
    Rng rng(12345);
    const size_t samples = std::min<size_t>(128, positions_.size());
    for (size_t s = 0; s < samples; ++s) {
      const Point& p = positions_[rng.NextBelow(positions_.size())];
      ++*checks;
      if (!ctx.loop->PointLookup(p)) {
        failures->push_back("object " + std::to_string(p.id) +
                            " not found at its final position");
        break;
      }
    }
  }

 private:
  mutable std::vector<Point> positions_;  // final positions after Drive
};

}  // namespace

std::unique_ptr<Scenario> MakeMovingObjectsScenario() {
  return std::make_unique<MovingObjectsScenario>();
}

}  // namespace wazi::bench::workloads
