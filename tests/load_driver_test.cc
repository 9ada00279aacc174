// The load driver on both transports. Reported QPS must be
// reads-in-window / wall-of-window: clients gate on a start latch that is
// released only once the clock runs, so slow thread spawns cannot inflate
// it. The op mix (hot set, seeded streams, insert region) must be the
// same whether ops run in process or go over the wire, and a wire run
// that loses its server must report errors instead of a short result.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/timer.h"
#include "core/wazi.h"
#include "net/wire_server.h"
#include "tests/test_util.h"
#include "workloads/load_driver.h"

namespace wazi::bench::workloads {
namespace {

enum class Via { kEmbedded, kWire };

// A ServeLoop over `s`, with a loopback WireServer in front of it when
// `via` is kWire; transport() addresses whichever one the test drives.
struct Engine {
  Engine(const TestScenario& s, Via via, int shards = 1)
      : loop([] { return std::unique_ptr<SpatialIndex>(new Wazi()); },
             s.data, s.workload, FastOpts(), Opts(shards)) {
    if (via == Via::kWire) {
      server = std::make_unique<net::WireServer>(&loop);
      std::string error;
      EXPECT_TRUE(server->Start(&error)) << error;
    }
  }
  // The server must stop before the loop it serves is destroyed.
  ~Engine() {
    if (server != nullptr) server->Stop();
  }

  Transport transport() {
    if (server == nullptr) return &loop;
    return WireEndpoint{"127.0.0.1", server->port()};
  }

  static BuildOptions FastOpts() {
    BuildOptions opts;
    opts.leaf_capacity = 64;
    return opts;
  }
  static serve::ServeOptions Opts(int shards) {
    serve::ServeOptions opts;
    opts.num_shards = shards;
    opts.auto_rebuild = false;
    return opts;
  }

  serve::ServeLoop loop;
  std::unique_ptr<net::WireServer> server;
};

using Stream = std::vector<std::pair<bool, double>>;

// Each client's first kPrefix reads as (hot?, rect.min_x), under a 20%
// write mix so the write draws are part of the stream too. The stream is
// a function of the seed alone, so a run too short to fill every prefix
// (a slow or sanitizer build) is repeated, longer, with the same seed.
constexpr size_t kPrefix = 256;
Stream RecordReads(const Transport& transport, const Workload& workload,
                   uint64_t seed, int threads = 1) {
  for (double seconds = 0.2;; seconds *= 2) {
    std::vector<Stream> streams(static_cast<size_t>(threads));
    LoadOptions load;
    load.threads = threads;
    load.seconds = seconds;
    load.write_pct = 20;
    load.hot_fraction = 0.1;
    load.seed = seed;
    load.read_hook = [&](int t, bool hot, const Rect& rect) {
      Stream& s = streams[static_cast<size_t>(t)];
      if (s.size() < kPrefix) s.emplace_back(hot, rect.min_x);
    };
    EXPECT_EQ(RunLoad(transport, workload, load).errors, 0);
    Stream all;
    for (const Stream& s : streams) all.insert(all.end(), s.begin(), s.end());
    if (all.size() == kPrefix * streams.size() || seconds > 3) return all;
  }
}

class LoadDriverTest : public ::testing::TestWithParam<Via> {};

TEST_P(LoadDriverTest, WallClockCoversConfiguredDuration) {
  TestScenario s = MakeScenario(Region::kCaliNev, 2000, 40, 2e-3, 701);
  Engine engine(s, GetParam());

  LoadOptions load;
  load.threads = 2;
  load.seconds = 0.2;
  const LoadResult r = RunLoad(engine.transport(), s.workload, load);
  EXPECT_GE(r.elapsed_seconds, load.seconds);
  EXPECT_GT(r.queries, 0);
  EXPECT_EQ(r.errors, 0);
}

TEST_P(LoadDriverTest, SlowThreadSpawnCannotInflateQps) {
  TestScenario s = MakeScenario(Region::kCaliNev, 2000, 40, 2e-3, 702);
  Engine engine(s, GetParam());

  // QPS = reads / elapsed is honest only if every counted read falls in
  // the timed window. Stretch the spawn phase to 400 ms: without the
  // start latch, already-spawned clients issued counted reads all through
  // it, before the clock started (~1.6x inflated QPS).
  LoadOptions load;
  load.threads = 4;
  load.seconds = 0.3;
  const Timer since_start;
  std::atomic<int64_t> spawns_done_ns{0};
  std::atomic<int64_t> first_read_ns{std::numeric_limits<int64_t>::max()};
  load.spawn_hook = [&](int t) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    if (t == load.threads - 1) spawns_done_ns.store(since_start.ElapsedNs());
  };
  load.read_hook = [&](int, bool, const Rect&) {
    const int64_t now = since_start.ElapsedNs();
    int64_t first = first_read_ns.load();
    while (now < first && !first_read_ns.compare_exchange_weak(first, now)) {
    }
  };
  const LoadResult r = RunLoad(engine.transport(), s.workload, load);

  ASSERT_GT(r.queries, 0);
  EXPECT_GE(first_read_ns.load(), spawns_done_ns.load())
      << "a client read before the last client was spawned";
  EXPECT_GE(r.elapsed_seconds, load.seconds);
  EXPECT_LT(r.elapsed_seconds, load.seconds + 0.4)
      << "the timed window includes the spawn phase";
}

TEST_P(LoadDriverTest, HotFractionConcentratesReadMass) {
  TestScenario s = MakeScenario(Region::kCaliNev, 2000, 100, 2e-3, 704);
  Engine engine(s, GetParam());

  // hot_fraction 0.1: ~90% of reads must re-ask the first 10% of the
  // workload's queries, and every hot rect must come from that prefix.
  const size_t hot_count = s.workload.queries.size() / 10;
  std::atomic<int64_t> hot_reads{0};
  std::atomic<int64_t> total_reads{0};
  std::atomic<int64_t> misattributed{0};
  LoadOptions load;
  load.threads = 2;
  load.seconds = 0.2;
  load.hot_fraction = 0.1;
  load.read_hook = [&](int, bool hot, const Rect& rect) {
    total_reads.fetch_add(1, std::memory_order_relaxed);
    if (!hot) return;
    hot_reads.fetch_add(1, std::memory_order_relaxed);
    bool in_prefix = false;
    for (size_t i = 0; i < hot_count; ++i) {
      const Rect& h = s.workload.queries[i];
      if (h.min_x == rect.min_x && h.min_y == rect.min_y &&
          h.max_x == rect.max_x && h.max_y == rect.max_y) {
        in_prefix = true;
        break;
      }
    }
    if (!in_prefix) misattributed.fetch_add(1, std::memory_order_relaxed);
  };
  // Fresh seeds until the sample is large enough, however slow the build.
  for (load.seed = 1; total_reads.load() < 2000 && load.seed <= 30;
       ++load.seed) {
    RunLoad(engine.transport(), s.workload, load);
  }

  ASSERT_GE(total_reads.load(), 2000);
  EXPECT_EQ(misattributed.load(), 0)
      << "hot reads drew rects outside the hot prefix";
  const double hot_share = static_cast<double>(hot_reads.load()) /
                           static_cast<double>(total_reads.load());
  EXPECT_GT(hot_share, 0.85) << "hot share " << hot_share;
  EXPECT_LT(hot_share, 0.95) << "hot share " << hot_share;
}

TEST_P(LoadDriverTest, SameSeedSameStreamDifferentSeedDifferent) {
  TestScenario s = MakeScenario(Region::kCaliNev, 1000, 40, 2e-3, 705);
  Engine engine(s, GetParam());

  // The op stream is a pure function of the seed: two same-seed runs
  // must agree exactly and a different seed must diverge.
  const Stream a = RecordReads(engine.transport(), s.workload, 7);
  const Stream b = RecordReads(engine.transport(), s.workload, 7);
  const Stream c = RecordReads(engine.transport(), s.workload, 8);
  ASSERT_EQ(a.size(), kPrefix);
  EXPECT_EQ(a, b) << "same seed diverged";
  EXPECT_NE(a, c) << "different seeds produced identical streams";
}

TEST_P(LoadDriverTest, InsertsLandInsideInsertRegion) {
  TestScenario s = MakeScenario(Region::kCaliNev, 1000, 40, 2e-3, 706);
  Engine engine(s, GetParam(), /*shards=*/2);

  const Rect region = Rect::Of(0.1, 0.2, 0.3, 0.4);
  LoadOptions load;
  load.threads = 2;
  load.seconds = 0.2;
  load.write_pct = 50;
  load.insert_region = region;
  const LoadResult r = RunLoad(engine.transport(), s.workload, load);
  ASSERT_GT(r.writes, 0);
  engine.loop.Flush();

  // Driver-inserted points carry ids >= 1<<40 (dataset ids are dense and
  // small); every one remaining after the flush must sit inside region.
  const serve::QueryResult all =
      engine.loop.Range(Rect::Of(0.0, 0.0, 1.0, 1.0));
  int64_t inserted = 0;
  for (const Point& p : all.hits) {
    if (p.id < (int64_t{1} << 40)) continue;
    ++inserted;
    EXPECT_TRUE(p.x >= region.min_x && p.x <= region.max_x &&
                p.y >= region.min_y && p.y <= region.max_y)
        << "inserted point (" << p.x << ", " << p.y << ") escaped region";
  }
  EXPECT_GT(inserted, 0) << "no inserted points survived to check";
}

TEST_P(LoadDriverTest, SpawnHookRunsOncePerThreadOnDrivingThread) {
  TestScenario s = MakeScenario(Region::kCaliNev, 1000, 20, 2e-3, 703);
  Engine engine(s, GetParam());

  const std::thread::id driver = std::this_thread::get_id();
  std::vector<int> seen;
  LoadOptions load;
  load.threads = 3;
  load.seconds = 0.05;
  load.spawn_hook = [&](int t) {
    EXPECT_EQ(std::this_thread::get_id(), driver);
    seen.push_back(t);
  };
  RunLoad(engine.transport(), s.workload, load);
  EXPECT_EQ(seen, (std::vector<int>{0, 1, 2}));
}

INSTANTIATE_TEST_SUITE_P(Transports, LoadDriverTest,
                         ::testing::Values(Via::kEmbedded, Via::kWire),
                         [](const ::testing::TestParamInfo<Via>& info) {
                           return info.param == Via::kEmbedded
                                      ? std::string("Embedded")
                                      : std::string("Wire");
                         });

TEST(LoadDriverTransportTest, SameSeedSameReadStreamOnBothTransports) {
  TestScenario s = MakeScenario(Region::kCaliNev, 1000, 40, 2e-3, 707);
  Engine engine(s, Via::kWire);
  const Stream embedded = RecordReads(&engine.loop, s.workload, 11, 2);
  const Stream wire = RecordReads(engine.transport(), s.workload, 11, 2);
  ASSERT_EQ(embedded.size(), 2 * kPrefix);
  EXPECT_EQ(embedded, wire) << "the transport changed the op stream";
}

TEST(LoadDriverTransportTest, LostServerAndRefusedConnectsAreErrors) {
  TestScenario s = MakeScenario(Region::kCaliNev, 1000, 40, 2e-3, 708);
  Engine engine(s, Via::kWire);
  const Transport transport = engine.transport();

  LoadOptions load;
  load.threads = 2;
  load.seconds = 0.5;
  load.pipeline_depth = 4;
  std::thread stopper([&engine] {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    engine.server->Stop();
  });
  const LoadResult lost = RunLoad(transport, s.workload, load);
  stopper.join();
  EXPECT_GT(lost.queries, 0) << "the server was up for the first 100ms";
  EXPECT_GT(lost.errors, 0) << "a server lost mid-run went unreported";

  // Nothing listens on the port any more: every connect fails and the
  // run never starts its clock.
  const LoadResult refused = RunLoad(transport, s.workload, load);
  EXPECT_EQ(refused.errors, load.threads);
  EXPECT_EQ(refused.queries, 0);
  EXPECT_EQ(refused.elapsed_seconds, 0.0);
}

}  // namespace
}  // namespace wazi::bench::workloads
