#include "core/serialize.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>

#include "core/lookahead.h"
#include "core/wazi.h"
#include "tests/test_util.h"

namespace wazi {
namespace {

BuildOptions SmallOpts() {
  BuildOptions opts;
  opts.leaf_capacity = 32;
  opts.kappa = 8;
  return opts;
}

TEST(SerializeTest, RoundTripPreservesQueries) {
  const TestScenario s = MakeScenario(Region::kCaliNev, 5000, 300, 2e-3, 601);
  Wazi original;
  original.Build(s.data, s.workload, SmallOpts());

  std::stringstream buffer;
  ASSERT_TRUE(SaveZIndex(original.zindex(), buffer));

  Wazi restored;
  {
    ZIndex z;
    ASSERT_TRUE(LoadZIndex(buffer, &z));
    // Route through the file API too for coverage of the wrappers.
  }
  const std::string path = ::testing::TempDir() + "/wazi_index.bin";
  ASSERT_TRUE(original.SaveToFile(path));
  ASSERT_TRUE(restored.LoadFromFile(path));

  EXPECT_EQ(restored.zindex().num_points(), original.zindex().num_points());
  EXPECT_EQ(restored.zindex().num_leaves(), original.zindex().num_leaves());
  for (size_t qi = 0; qi < 150; ++qi) {
    const Rect& q = s.workload.queries[qi];
    std::vector<Point> got;
    restored.RangeQuery(q, &got);
    ASSERT_EQ(SortedIds(got), TruthIds(s.data, q)) << "query " << qi;
  }
  for (size_t i = 0; i < s.data.points.size(); i += 37) {
    ASSERT_TRUE(restored.PointQuery(s.data.points[i]));
  }
  std::remove(path.c_str());
}

TEST(SerializeTest, LookaheadSurvivesRoundTrip) {
  const TestScenario s = MakeScenario(Region::kJapan, 4000, 200, 1e-3, 602);
  Wazi original;
  original.Build(s.data, s.workload, SmallOpts());

  std::stringstream buffer;
  ASSERT_TRUE(SaveZIndex(original.zindex(), buffer));
  ZIndex restored;
  ASSERT_TRUE(LoadZIndex(buffer, &restored));
  EXPECT_TRUE(restored.has_lookahead());
  EXPECT_EQ(ValidateLookahead(restored, /*strict=*/true), "");
}

TEST(SerializeTest, RoundTripAfterInserts) {
  // Post-insert states (split leaves, owned pages, gapped ords) must
  // serialize too; loading re-clusters the pages.
  const TestScenario s = MakeScenario(Region::kIberia, 3000, 150, 1e-3, 603);
  Wazi original;
  original.Build(s.data, s.workload, SmallOpts());
  Dataset augmented = s.data;
  for (const Point& p :
       GenerateInsertStream(s.data.bounds, 2000, 900000, 604)) {
    original.Insert(p);
    augmented.points.push_back(p);
  }
  std::stringstream buffer;
  ASSERT_TRUE(SaveZIndex(original.zindex(), buffer));
  Wazi restored;
  {
    ZIndex z;
    ASSERT_TRUE(LoadZIndex(buffer, &z));
    EXPECT_EQ(z.num_points(), augmented.points.size());
    QueryStats stats;
    for (size_t qi = 0; qi < 80; ++qi) {
      const Rect& q = s.workload.queries[qi];
      std::vector<Point> got;
      z.RangeQuerySkipping(q, &got, &stats);
      ASSERT_EQ(SortedIds(got), TruthIds(augmented, q));
    }
  }
}

TEST(SerializeTest, SameIndexSavesToTheSameBytes) {
  // Record padding must not carry memory contents into the file: two
  // builds of one index save byte-identical files.
  const TestScenario s = MakeScenario(Region::kCaliNev, 5000, 300, 2e-3, 606);
  std::string bytes[2];
  for (int i = 0; i < 2; ++i) {
    Wazi index;
    index.Build(s.data, s.workload, SmallOpts());
    const std::string path =
        ::testing::TempDir() + "/wazi_same_" + std::to_string(i) + ".bin";
    ASSERT_TRUE(index.SaveToFile(path));
    std::ifstream in(path, std::ios::binary);
    bytes[i].assign(std::istreambuf_iterator<char>(in),
                    std::istreambuf_iterator<char>());
    std::remove(path.c_str());
  }
  ASSERT_FALSE(bytes[0].empty());
  EXPECT_TRUE(bytes[0] == bytes[1]) << "saved files differ";
}

TEST(SerializeTest, RejectsCorruptInput) {
  ZIndex z;
  {
    std::stringstream garbage;
    garbage << "this is not an index";
    EXPECT_FALSE(LoadZIndex(garbage, &z));
  }
  {
    // Truncated valid prefix.
    const TestScenario s = MakeScenario(Region::kCaliNev, 500, 50, 1e-3, 605);
    BaseZ original;
    original.Build(s.data, s.workload, SmallOpts());
    std::stringstream buffer;
    ASSERT_TRUE(SaveZIndex(original.zindex(), buffer));
    const std::string full = buffer.str();
    std::stringstream truncated(full.substr(0, full.size() / 2));
    EXPECT_FALSE(LoadZIndex(truncated, &z));
  }
  EXPECT_FALSE(LoadZIndexFromFile("/nonexistent/path/index.bin", &z));
}

TEST(SerializeTest, EmptyIndexRoundTrips) {
  Dataset data;
  data.bounds = Rect::Of(0, 0, 1, 1);
  Workload w;
  BaseZ original;
  original.Build(data, w, SmallOpts());
  std::stringstream buffer;
  ASSERT_TRUE(SaveZIndex(original.zindex(), buffer));
  ZIndex restored;
  ASSERT_TRUE(LoadZIndex(buffer, &restored));
  QueryStats stats;
  std::vector<Point> got;
  restored.RangeQueryNaive(Rect::Of(0, 0, 1, 1), &got, &stats);
  EXPECT_TRUE(got.empty());
}

}  // namespace
}  // namespace wazi
