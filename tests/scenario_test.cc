// The scenario library's own contract: every registered scenario runs at
// tiny scale with its invariants holding (they diff against brute force
// and sentinel sets internally — a pass here means zero mismatches), its
// generators are pure functions of the config seed (same seed =>
// byte-identical data and query streams, different seed => different),
// and its emitted JSON round-trips through the schema validator CI runs
// (tools/check_bench_json.py).

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "net/wire_server.h"
#include "workload/query_generator.h"
#include "workload/region_generator.h"
#include "workloads/scenario.h"

namespace wazi::bench::workloads {
namespace {

// Tiny but real: big enough for 5-shard topologies and a measurable op
// stream, small enough to keep the whole suite in CI-seconds.
ScenarioConfig TinyConfig(uint64_t seed = 42) {
  ScenarioConfig cfg;
  cfg.scale = "smoke";
  cfg.seed = seed;
  cfg.n_points = 2000;
  cfg.seconds = 0.06;
  cfg.threads = 2;
  return cfg;
}

bool SamePoints(const std::vector<Point>& a, const std::vector<Point>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].x != b[i].x || a[i].y != b[i].y || a[i].id != b[i].id) {
      return false;
    }
  }
  return true;
}

bool SameQueries(const std::vector<Rect>& a, const std::vector<Rect>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].min_x != b[i].min_x || a[i].min_y != b[i].min_y ||
        a[i].max_x != b[i].max_x || a[i].max_y != b[i].max_y) {
      return false;
    }
  }
  return true;
}

TEST(ScenarioRegistryTest, SixScenariosSortedUniqueAndFindable) {
  const std::vector<Scenario*>& all = AllScenarios();
  ASSERT_GE(all.size(), 6u);
  std::set<std::string> ids;
  std::string prev;
  for (const Scenario* s : all) {
    EXPECT_FALSE(s->id().empty());
    EXPECT_FALSE(s->description().empty());
    EXPECT_FALSE(s->op_mix().empty());
    EXPECT_FALSE(s->stresses().empty());
    EXPECT_LT(prev, s->id()) << "registry not sorted/unique";
    prev = s->id();
    ids.insert(s->id());
    EXPECT_EQ(FindScenario(s->id()), s);
  }
  EXPECT_EQ(ids.size(), all.size());
  EXPECT_EQ(FindScenario("no_such_scenario"), nullptr);
  for (const char* expected :
       {"poi_lookup", "timeseries_append", "moving_objects", "scan_heavy",
        "shifting_skew", "ycsb_mix"}) {
    EXPECT_NE(FindScenario(expected), nullptr) << expected;
  }
}

TEST(ScenarioGeneratorTest, SameSeedIdenticalDifferentSeedDifferent) {
  for (const Scenario* s : AllScenarios()) {
    SCOPED_TRACE(s->id());
    const ScenarioConfig cfg_a = TinyConfig(42);
    const ScenarioConfig cfg_b = TinyConfig(43);

    const Dataset data1 = s->GenerateData(cfg_a);
    const Dataset data2 = s->GenerateData(cfg_a);
    const Dataset data3 = s->GenerateData(cfg_b);
    ASSERT_EQ(data1.size(), cfg_a.points());
    EXPECT_TRUE(SamePoints(data1.points, data2.points))
        << "same seed produced different datasets";
    EXPECT_FALSE(SamePoints(data1.points, data3.points))
        << "different seeds produced identical datasets";

    const Workload w1 = s->GenerateQueries(cfg_a, data1);
    const Workload w2 = s->GenerateQueries(cfg_a, data2);
    const Workload w3 = s->GenerateQueries(cfg_b, data3);
    ASSERT_FALSE(w1.queries.empty());
    EXPECT_TRUE(SameQueries(w1.queries, w2.queries))
        << "same seed produced different query streams";
    EXPECT_FALSE(SameQueries(w1.queries, w3.queries))
        << "different seeds produced identical query streams";
  }
}

TEST(ScenarioRunTest, EveryScenarioPassesItsInvariantsAtTinyScale) {
  for (const Scenario* s : AllScenarios()) {
    SCOPED_TRACE(s->id());
    const ScenarioOutcome outcome = s->Run(TinyConfig());
    EXPECT_TRUE(outcome.passed()) << (outcome.failures.empty()
                                          ? std::string("(no detail)")
                                          : outcome.failures.front());
    EXPECT_EQ(outcome.scenario, s->id());
    EXPECT_EQ(outcome.points, TinyConfig().points());
    EXPECT_GT(outcome.invariant_checks, 0)
        << "a scenario that checks nothing cannot fail";
    ASSERT_FALSE(outcome.phases.empty());
    int64_t total_ops = 0;
    for (const PhaseResult& p : outcome.phases) {
      EXPECT_FALSE(p.name.empty());
      EXPECT_GE(p.queries, 0);
      EXPECT_GE(p.writes, 0);
      EXPECT_GT(p.elapsed_seconds, 0.0);
      EXPECT_GE(p.cache_hit_rate, 0.0);
      EXPECT_LE(p.cache_hit_rate, 1.0);
      total_ops += p.queries + p.writes;
    }
    EXPECT_GT(total_ops, 0) << "drive phase issued no ops";
    // Monotone counters: migrations/moved can only be >= 0, the epoch
    // starts at 1 and only a migration advances it.
    EXPECT_GE(outcome.migrations, 0);
    EXPECT_GE(outcome.incremental, 0);
    EXPECT_LE(outcome.incremental, outcome.migrations);
    EXPECT_GE(outcome.moved_points, 0);
    EXPECT_GE(outcome.epoch, 1u);
    EXPECT_EQ(outcome.epoch, 1u + static_cast<uint64_t>(outcome.migrations));
    EXPECT_FALSE(outcome.metrics_json.empty());
  }
}

TEST(ScenarioRunTest, EveryScenarioPassesItsInvariantsOverTheWire) {
  ScenarioConfig cfg = TinyConfig();
  cfg.net = true;
  int wire_runs = 0;
  for (const Scenario* s : AllScenarios()) {
    SCOPED_TRACE(s->id());
    const ScenarioOutcome outcome = s->Run(cfg);
    EXPECT_TRUE(outcome.passed()) << (outcome.failures.empty()
                                          ? std::string("(no detail)")
                                          : outcome.failures.front());
    if (outcome.transport == "wire") ++wire_runs;
  }
  EXPECT_EQ(wire_runs, 3) << "scan_heavy, shifting_skew and ycsb_mix "
                             "drive through RunLoad and support --net";
}

// Drives two broken phases: a wire load whose server stops mid-run, and
// a write-only load that completes no read. Run must fail both.
class BrokenPhasesScenario : public Scenario {
 public:
  std::string id() const override { return "broken_phases"; }
  std::string description() const override { return "test only"; }
  std::string op_mix() const override { return "test only"; }
  std::string stresses() const override { return "Scenario::Run"; }
  Dataset GenerateData(const ScenarioConfig& cfg) const override {
    return GenerateRegion(Region::kCaliNev, cfg.points(), cfg.seed);
  }
  Workload GenerateQueries(const ScenarioConfig& cfg,
                           const Dataset& data) const override {
    QueryGenOptions qopts;
    qopts.num_queries = 64;
    qopts.seed = cfg.seed + 1;
    return GenerateUniformWorkload(data.bounds, qopts);
  }

 protected:
  void Drive(const ScenarioConfig& cfg, RunContext& ctx,
             std::vector<PhaseResult>* phases,
             std::vector<std::string>* failures) const override {
    net::WireServer server(ctx.loop);
    std::string error;
    if (!server.Start(&error)) {
      failures->push_back(error);
      return;
    }
    LoadOptions lopts;
    lopts.threads = cfg.client_threads();
    lopts.seconds = 0.3;
    std::thread stopper([&server] {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
      server.Stop();
    });
    const LoadResult lost = RunLoad(
        WireEndpoint{"127.0.0.1", server.port()}, *ctx.workload, lopts);
    stopper.join();
    phases->push_back(PhaseFromLoad("lost_server", lost));

    lopts.seconds = cfg.phase_seconds();
    lopts.write_pct = 100;
    phases->push_back(
        PhaseFromLoad("write_only", ctx.RunLoad(*ctx.workload, lopts)));
  }
  void Check(const ScenarioConfig&, RunContext&, std::vector<std::string>*,
             int64_t* checks) const override {
    ++*checks;
  }
};

TEST(ScenarioRunTest, PhasesWithErrorsOrNoReadsFailTheRun) {
  const ScenarioOutcome outcome = BrokenPhasesScenario().Run(TinyConfig());
  ASSERT_EQ(outcome.phases.size(), 2u);
  EXPECT_GT(outcome.phases[0].errors, 0);
  EXPECT_EQ(outcome.phases[1].queries, 0);
  ASSERT_EQ(outcome.failures.size(), 2u);
  EXPECT_NE(outcome.failures[0].find("'lost_server'"), std::string::npos)
      << outcome.failures[0];
  EXPECT_NE(outcome.failures[1].find("'write_only'"), std::string::npos)
      << outcome.failures[1];
}

TEST(ScenarioJsonTest, EmittedJsonPassesTheSchemaValidator) {
  if (std::system("python3 --version > /dev/null 2>&1") != 0) {
    GTEST_SKIP() << "python3 not available";
  }
  Scenario* s = FindScenario("ycsb_mix");
  ASSERT_NE(s, nullptr);
  const ScenarioOutcome outcome = s->Run(TinyConfig());
  const std::string dir =
      ::testing::TempDir().empty() ? "/tmp" : ::testing::TempDir();
  const std::string path = dir + "/BENCH_scenario_test.json";
  ASSERT_TRUE(WriteScenarioJson(outcome, path));
  const std::string cmd = std::string("python3 ") + WAZI_SOURCE_DIR +
                          "/tools/check_bench_json.py " + path +
                          " > /dev/null 2>&1";
  EXPECT_EQ(std::system(cmd.c_str()), 0)
      << "tools/check_bench_json.py rejected " << path;
  std::remove(path.c_str());
}

TEST(ScenarioJsonTest, FailuresRenderAndFlipPassed) {
  Scenario* s = FindScenario("poi_lookup");
  ASSERT_NE(s, nullptr);
  ScenarioOutcome outcome = s->Run(TinyConfig());
  ASSERT_TRUE(outcome.passed());
  outcome.failures.push_back("synthetic \"failure\" for the renderer");
  const std::string json = ScenarioJson(outcome);
  EXPECT_NE(json.find("\"passed\":false"), std::string::npos);
  EXPECT_NE(json.find("synthetic \\\"failure\\\""), std::string::npos);
}

}  // namespace
}  // namespace wazi::bench::workloads
