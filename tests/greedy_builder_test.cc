// The Greedy construction (Alg. 3) must adapt layout to the workload and
// beat (or match) the median Base layout on the training workload's
// retrieval work.

#include "core/builder.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>

#include "core/serialize.h"
#include "core/wazi.h"
#include "tests/test_util.h"

namespace wazi {
namespace {

// Total points scanned by a workload on an index variant.
int64_t ScannedPoints(ZIndexVariant& index, const Workload& w) {
  index.stats().Reset();
  std::vector<Point> sink;
  for (const Rect& q : w.queries) {
    sink.clear();
    index.RangeQuery(q, &sink);
  }
  return index.stats().points_scanned;
}

TEST(GreedyBuilderTest, AdaptivePartitioningReducesScannedPoints) {
  // Skewed workload on clustered data: WaZI-style layout must scan fewer
  // points than the median Base layout (this is the paper's core claim;
  // Fig. 13 "excess points").
  const TestScenario s =
      MakeScenario(Region::kNewYork, 30000, 1500, kSelectivityMid2, 101);
  BuildOptions opts;
  opts.leaf_capacity = 128;

  BaseZ base;
  base.Build(s.data, s.workload, opts);
  WaziNoSk adaptive;  // adaptive layout, no skipping: isolates the layout
  adaptive.Build(s.data, s.workload, opts);

  const int64_t base_scanned = ScannedPoints(base, s.workload);
  const int64_t adaptive_scanned = ScannedPoints(adaptive, s.workload);
  EXPECT_LT(adaptive_scanned, base_scanned)
      << "adaptive layout scans more than median layout";
}

TEST(GreedyBuilderTest, MedianCandidateKeepsWaziSaneOnUniform) {
  // On uniform data with uniform queries the adaptive layout cannot be
  // much worse than Base (the median is always a candidate).
  const Dataset data = MakeUniformDataset(20000, 102);
  QueryGenOptions qopts;
  qopts.num_queries = 800;
  qopts.selectivity = kSelectivityMid2;
  const Workload w = GenerateUniformWorkload(data.bounds, qopts);
  BuildOptions opts;
  opts.leaf_capacity = 128;

  BaseZ base;
  base.Build(data, w, opts);
  WaziNoSk adaptive;
  adaptive.Build(data, w, opts);
  const int64_t base_scanned = ScannedPoints(base, w);
  const int64_t adaptive_scanned = ScannedPoints(adaptive, w);
  EXPECT_LT(adaptive_scanned, base_scanned * 3 / 2);
}

TEST(GreedyBuilderTest, UsesBothOrderings) {
  // On a workload with clear vertical-strip structure the builder should
  // pick acbd somewhere.
  const Dataset data = MakeUniformDataset(20000, 103);
  Workload w;
  w.selectivity = 0.01;
  Rng rng(104);
  for (int i = 0; i < 500; ++i) {
    const double x0 = rng.Uniform(0.0, 0.95);
    const double y0 = rng.Uniform(0.0, 0.4);
    w.queries.push_back(Rect::Of(x0, y0, x0 + 0.02, y0 + 0.5));  // tall
  }
  BuildOptions opts;
  opts.leaf_capacity = 64;
  Wazi index;
  index.Build(data, w, opts);
  int acbd_nodes = 0;
  const ZIndex& z = index.zindex();
  for (size_t i = 0; i < z.num_nodes(); ++i) {
    const ZIndex::Node& node = z.node(static_cast<int32_t>(i));
    if (!node.is_leaf() && node.ord == Ordering::kAcbd) ++acbd_nodes;
  }
  EXPECT_GT(acbd_nodes, 0) << "tall queries should trigger acbd orderings";
}

TEST(GreedyBuilderTest, CostDecreasesWithTrainingQueries) {
  // Building against the evaluation workload must not be worse than
  // building against an unrelated workload.
  const TestScenario s =
      MakeScenario(Region::kIberia, 25000, 1200, kSelectivityMid2, 105);
  QueryGenOptions other_opts;
  other_opts.num_queries = 1200;
  other_opts.selectivity = kSelectivityMid2;
  other_opts.seed = 999;
  const Workload unrelated =
      GenerateCheckinWorkload(Region::kNewYork, s.data.bounds, other_opts);

  BuildOptions opts;
  opts.leaf_capacity = 128;
  WaziNoSk trained, mistrained;
  trained.Build(s.data, s.workload, opts);
  mistrained.Build(s.data, unrelated, opts);
  EXPECT_LE(ScannedPoints(trained, s.workload),
            ScannedPoints(mistrained, s.workload));
}

TEST(GreedyBuilderTest, MedianSplitComputesMedians) {
  std::vector<Point> pts = {{1, 10, 0}, {2, 20, 1}, {3, 30, 2},
                            {4, 40, 3}, {5, 50, 4}};
  const SplitChoice c = MedianSplit(pts.data(), pts.size());
  EXPECT_EQ(c.sx, 3);
  EXPECT_EQ(c.sy, 30);
  EXPECT_EQ(c.ord, Ordering::kAbcd);
}

TEST(GreedyBuilderTest, RespectsLeafCapacityAndDepth) {
  const TestScenario s = MakeScenario(Region::kJapan, 10000, 300, 1e-3, 106);
  BuildOptions opts;
  opts.leaf_capacity = 64;
  Wazi index;
  index.Build(s.data, s.workload, opts);
  const ZIndex& z = index.zindex();
  size_t total = 0;
  for (int32_t id : z.leaf_dir().InOrder()) {
    total += z.page_store().PageSize(z.leaf_dir().leaf(id).page);
  }
  EXPECT_EQ(total, s.data.size());
  EXPECT_GE(z.num_leaves(), s.data.size() / 64);
}

// WaZI's production build path (estimated counts, corner candidates,
// look-ahead) with an explicit team size.
void BuildWaziWithWorkers(const TestScenario& s, int workers, ZIndex* out) {
  EstimatorOptions eo;
  eo.leaf_capacity = 64;
  const EstimatedCountProvider provider(s.data, s.workload, eo);
  GreedySplitPolicy policy(&provider, &s.workload, /*kappa=*/32,
                           /*alpha=*/1e-5);
  ZBuildParams params;
  params.leaf_capacity = 64;
  params.workers = workers;
  EXPECT_EQ(BuildZIndex(s.data, policy, params, out), workers);
  out->BuildLookahead();
}

std::string SavedBytes(const ZIndex& z, const std::string& name) {
  const std::string path = ::testing::TempDir() + "/" + name;
  EXPECT_TRUE(SaveZIndexToFile(z, path));
  std::ifstream in(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  std::remove(path.c_str());
  return bytes;
}

void ExpectSameLayout(const ZIndex& a, const ZIndex& b) {
  ASSERT_EQ(a.num_nodes(), b.num_nodes());
  EXPECT_EQ(a.root(), b.root());
  for (size_t i = 0; i < a.num_nodes(); ++i) {
    const ZIndex::Node& x = a.node(static_cast<int32_t>(i));
    const ZIndex::Node& y = b.node(static_cast<int32_t>(i));
    ASSERT_EQ(x.sx, y.sx) << "node " << i;
    ASSERT_EQ(x.sy, y.sy) << "node " << i;
    ASSERT_EQ(x.ord, y.ord) << "node " << i;
    ASSERT_EQ(x.leaf_id, y.leaf_id) << "node " << i;
    for (int c = 0; c < 4; ++c) ASSERT_EQ(x.child[c], y.child[c]);
  }
  const LeafDir& da = a.leaf_dir();
  const LeafDir& db = b.leaf_dir();
  ASSERT_EQ(da.size(), db.size());
  EXPECT_EQ(da.head(), db.head());
  EXPECT_EQ(da.tail(), db.tail());
  for (size_t i = 0; i < da.size(); ++i) {
    const LeafRec& x = da.leaf(static_cast<int32_t>(i));
    const LeafRec& y = db.leaf(static_cast<int32_t>(i));
    ASSERT_TRUE(x.cell == y.cell) << "leaf " << i;
    ASSERT_TRUE(x.mbr == y.mbr) << "leaf " << i;
    ASSERT_EQ(x.page, y.page) << "leaf " << i;
    ASSERT_EQ(x.ord, y.ord) << "leaf " << i;
    ASSERT_EQ(x.next, y.next) << "leaf " << i;
    ASSERT_EQ(x.prev, y.prev) << "leaf " << i;
    for (int c = 0; c < kNumCriteria; ++c) {
      ASSERT_EQ(x.lookahead[c], y.lookahead[c]) << "leaf " << i;
    }
  }
  const PageStore& pa = a.page_store();
  const PageStore& pb = b.page_store();
  ASSERT_EQ(pa.num_pages(), pb.num_pages());
  for (int32_t p = 0; p < pa.num_pages(); ++p) {
    const Span x = pa.PageSpan(p);
    const Span y = pb.PageSpan(p);
    ASSERT_EQ(x.size(), y.size()) << "page " << p;
    for (size_t i = 0; i < x.size(); ++i) {
      ASSERT_TRUE(x.begin[i] == y.begin[i]) << "page " << p << " slot " << i;
    }
  }
}

TEST(GreedyBuilderTest, ParallelScoringBuildsTheSerialLayout) {
  // Skewed data and workload, so that candidate costs differ and the
  // choice at each node is sensitive to the reduction order.
  const TestScenario s =
      MakeScenario(Region::kNewYork, 30000, 1500, kSelectivityMid2, 107);
  ZIndex serial, parallel;
  BuildWaziWithWorkers(s, /*workers=*/1, &serial);
  BuildWaziWithWorkers(s, /*workers=*/4, &parallel);
  ASSERT_GT(serial.num_nodes(), 100u);
  ExpectSameLayout(serial, parallel);
  EXPECT_TRUE(SavedBytes(serial, "serial.bin") ==
              SavedBytes(parallel, "parallel.bin"))
      << "saved files differ";
}

TEST(GreedyBuilderTest, CloneAnswersLikeItsSourceAndStaysApart) {
  const TestScenario s =
      MakeScenario(Region::kCaliNev, 20000, 600, kSelectivityMid2, 108);
  BuildOptions opts;
  opts.leaf_capacity = 64;
  Wazi source;
  source.Build(s.data, s.workload, opts);
  const std::unique_ptr<SpatialIndex> clone = source.Clone();
  ASSERT_NE(clone, nullptr);
  EXPECT_EQ(clone->name(), source.name());
  EXPECT_TRUE(clone->SupportsUpdates());
  EXPECT_LE(clone->SizeBytes(), source.SizeBytes());  // no spare capacity
  // Nor does a fresh build: it holds exactly what its clone holds.
  EXPECT_EQ(source.SizeBytes(), clone->SizeBytes());

  // Same results and the same work, query by query.
  const auto expect_same_answers = [&](const SpatialIndex& a,
                                       const SpatialIndex& b) {
    for (size_t qi = 0; qi < 200; ++qi) {
      const Rect& q = s.workload.queries[qi];
      QueryStats sa, sb;
      std::vector<Point> ha, hb;
      a.RangeQuery(q, &ha, &sa);
      b.RangeQuery(q, &hb, &sb);
      ASSERT_EQ(SortedIds(ha), SortedIds(hb)) << "query " << qi;
      ASSERT_EQ(sa.bbs_checked, sb.bbs_checked) << "query " << qi;
      ASSERT_EQ(sa.pages_scanned, sb.pages_scanned) << "query " << qi;
      ASSERT_EQ(sa.points_scanned, sb.points_scanned) << "query " << qi;
      ASSERT_EQ(sa.results, sb.results) << "query " << qi;
    }
    for (size_t i = 0; i < s.data.points.size(); i += 97) {
      QueryStats sa, sb;
      ASSERT_TRUE(a.PointQuery(s.data.points[i], &sa));
      ASSERT_TRUE(b.PointQuery(s.data.points[i], &sb));
      ASSERT_EQ(sa.bbs_checked, sb.bbs_checked);
      ASSERT_EQ(sa.points_scanned, sb.points_scanned);
    }
  };
  expect_same_answers(source, *clone);

  // Inserts into the source (leaf splits, copied-out pages) leave the
  // clone answering for the original data.
  const std::vector<Point> inserts =
      GenerateInsertStream(s.data.bounds, 5000, 900000, 109);
  for (const Point& p : inserts) source.Insert(p);
  for (size_t qi = 0; qi < 200; ++qi) {
    const Rect& q = s.workload.queries[qi];
    std::vector<Point> got;
    clone->RangeQuery(q, &got);
    ASSERT_EQ(SortedIds(got), TruthIds(s.data, q)) << "query " << qi;
  }
  for (size_t i = 0; i < inserts.size(); i += 50) {
    EXPECT_TRUE(source.PointQuery(inserts[i]));
    EXPECT_FALSE(clone->PointQuery(inserts[i]));
  }

  // And a clone of the updated source answers like it.
  const std::unique_ptr<SpatialIndex> second = source.Clone();
  expect_same_answers(source, *second);
}

size_t ProcessThreads() {
  size_t n = 0;
  for ([[maybe_unused]] const auto& entry :
       std::filesystem::directory_iterator("/proc/self/task")) {
    ++n;
  }
  return n;
}

TEST(GreedyBuilderTest, BuildJoinsItsTeamBeforeReturning) {
  if (!std::filesystem::exists("/proc/self/task")) {
    GTEST_SKIP() << "no /proc/self/task on this platform";
  }
  const TestScenario s =
      MakeScenario(Region::kJapan, 10000, 300, kSelectivityMid2, 110);
  BuildOptions opts;
  opts.leaf_capacity = 64;
  const size_t before = ProcessThreads();
  Wazi index;
  index.Build(s.data, s.workload, opts);
  EXPECT_EQ(ProcessThreads(), before);
  EXPECT_GE(index.build_workers(), 1);
  ZIndex z;
  BuildWaziWithWorkers(s, /*workers=*/4, &z);
  EXPECT_EQ(ProcessThreads(), before);
}

}  // namespace
}  // namespace wazi
