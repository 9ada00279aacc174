#include "core/builder.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <optional>
#include <thread>
#include <vector>

namespace wazi {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// Curve (visit) order of quadrants under each ordering.
constexpr Quadrant kCurveOrder[2][4] = {
    {Quadrant::kA, Quadrant::kB, Quadrant::kC, Quadrant::kD},  // abcd
    {Quadrant::kA, Quadrant::kC, Quadrant::kB, Quadrant::kD},  // acbd
};

// Partitions [begin, end) of `pts` into the four quadrant segments in
// curve order; fills `bounds[0..4]` with segment boundaries.
void PartitionByQuadrant(Point* pts, uint32_t begin, uint32_t end,
                         const SplitChoice& choice, uint32_t bounds[5]) {
  const double sx = choice.sx;
  const double sy = choice.sy;
  Point* first = pts + begin;
  Point* last = pts + end;
  if (choice.ord == Ordering::kAbcd) {
    // A,B (y <= sy) before C,D; then x <= sx within each half.
    Point* mid = std::partition(first, last,
                                [&](const Point& p) { return p.y <= sy; });
    Point* m0 = std::partition(first, mid,
                               [&](const Point& p) { return p.x <= sx; });
    Point* m1 = std::partition(mid, last,
                               [&](const Point& p) { return p.x <= sx; });
    bounds[0] = begin;
    bounds[1] = static_cast<uint32_t>(m0 - pts);
    bounds[2] = static_cast<uint32_t>(mid - pts);
    bounds[3] = static_cast<uint32_t>(m1 - pts);
    bounds[4] = end;
  } else {
    // A,C (x <= sx) before B,D; then y <= sy within each half.
    Point* mid = std::partition(first, last,
                                [&](const Point& p) { return p.x <= sx; });
    Point* m0 = std::partition(first, mid,
                               [&](const Point& p) { return p.y <= sy; });
    Point* m1 = std::partition(mid, last,
                               [&](const Point& p) { return p.y <= sy; });
    bounds[0] = begin;
    bounds[1] = static_cast<uint32_t>(m0 - pts);
    bounds[2] = static_cast<uint32_t>(mid - pts);
    bounds[3] = static_cast<uint32_t>(m1 - pts);
    bounds[4] = end;
  }
}

// Runs fn(0) .. fn(n - 1) on the team's workers and the calling thread,
// each index exactly once; returns when all have finished. The team is
// private to one build, so its Wait() barrier covers exactly these tasks.
template <typename Fn>
void RunOnTeam(ThreadPool* team, size_t n, const Fn& fn) {
  std::atomic<size_t> next{0};
  const auto drain = [&] {
    for (size_t i = next++; i < n; i = next++) fn(i);
  };
  const size_t helpers =
      team == nullptr || n < 2
          ? 0
          : std::min(n - 1, static_cast<size_t>(team->num_threads()));
  for (size_t h = 0; h < helpers; ++h) team->Submit(drain);
  drain();
  if (helpers > 0) team->Wait();
}

// Threads, the caller included, that run `policy` (see ZBuildParams).
int BuildTeamSize(const SplitPolicy& policy, const ZBuildParams& params) {
  if (params.workers > 0) return params.workers;
  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  return std::max(1, std::min(hw, policy.parallelism()));
}

class TreeBuilder {
 public:
  TreeBuilder(SplitPolicy& policy, const ZBuildParams& params,
              ThreadPool* team, ZIndex* out)
      : policy_(policy), params_(params), team_(team), out_(out),
        rng_(params.seed) {}

  int32_t BuildNode(std::vector<Point>& pts, uint32_t begin, uint32_t end,
                    const Rect& cell, int depth) {
    const size_t n = end - begin;
    if (n <= static_cast<size_t>(params_.leaf_capacity) ||
        depth >= params_.max_depth) {
      return out_->AddLeaf(cell, pts.data(), begin, end);
    }

    SplitChoice choice =
        policy_.Choose(pts.data() + begin, n, cell, rng_, team_);
    uint32_t bounds[5];
    PartitionByQuadrant(pts.data(), begin, end, choice, bounds);

    // No-progress guard: if one quadrant swallowed everything, retry with
    // the median; if even that cannot separate the points (duplicates),
    // keep an oversize leaf.
    bool degenerate = false;
    for (int i = 0; i < 4; ++i) {
      if (bounds[i + 1] - bounds[i] == n) degenerate = true;
    }
    if (degenerate) {
      choice = MedianSplit(pts.data() + begin, n);
      PartitionByQuadrant(pts.data(), begin, end, choice, bounds);
      for (int i = 0; i < 4; ++i) {
        if (bounds[i + 1] - bounds[i] == n) {
          return out_->AddLeaf(cell, pts.data(), begin, end);
        }
      }
    }

    const int32_t node = out_->AddInternal(choice.sx, choice.sy, choice.ord);
    const int ord_idx = static_cast<int>(choice.ord);
    for (int i = 0; i < 4; ++i) {
      const Quadrant q = kCurveOrder[ord_idx][i];
      const Rect child_cell = QuadrantRect(cell, choice.sx, choice.sy, q);
      const int32_t child =
          BuildNode(pts, bounds[i], bounds[i + 1], child_cell, depth + 1);
      out_->SetChild(node, q, child);
    }
    return node;
  }

 private:
  SplitPolicy& policy_;
  const ZBuildParams& params_;
  ThreadPool* team_;
  ZIndex* out_;
  Rng rng_;
};

}  // namespace

SplitChoice MedianSplit(Point* points, size_t n) {
  SplitChoice choice;
  const size_t mid = n / 2;
  std::nth_element(points, points + mid, points + n,
                   [](const Point& a, const Point& b) { return a.x < b.x; });
  choice.sx = points[mid].x;
  std::nth_element(points, points + mid, points + n,
                   [](const Point& a, const Point& b) { return a.y < b.y; });
  choice.sy = points[mid].y;
  choice.ord = Ordering::kAbcd;
  return choice;
}

SplitChoice MedianSplitPolicy::Choose(Point* points, size_t n, const Rect&,
                                      Rng&, ThreadPool*) {
  return MedianSplit(points, n);
}

GreedySplitPolicy::GreedySplitPolicy(const CountProvider* provider,
                                     const Workload* workload, int kappa,
                                     double alpha)
    : provider_(provider), kappa_(kappa), alpha_(alpha) {
  if (workload != nullptr) {
    corner_xs_.reserve(2 * workload->queries.size());
    corner_ys_.reserve(2 * workload->queries.size());
    for (const Rect& q : workload->queries) {
      corner_xs_.push_back(q.min_x);
      corner_xs_.push_back(q.max_x);
      corner_ys_.push_back(q.min_y);
      corner_ys_.push_back(q.max_y);
    }
    std::sort(corner_xs_.begin(), corner_xs_.end());
    std::sort(corner_ys_.begin(), corner_ys_.end());
  }
}

double GreedySplitPolicy::SampleCorner(const std::vector<double>& coords,
                                       double lo, double hi, Rng& rng) const {
  const auto first = std::lower_bound(coords.begin(), coords.end(), lo);
  const auto last = std::upper_bound(coords.begin(), coords.end(), hi);
  if (first >= last) return std::numeric_limits<double>::quiet_NaN();
  const size_t span = static_cast<size_t>(last - first);
  return *(first + rng.NextBelow(span));
}

SplitChoice GreedySplitPolicy::Choose(Point* points, size_t n,
                                      const Rect& cell, Rng& rng,
                                      ThreadPool* team) {
  // Candidates are sampled from the node's data extent (cells may be
  // unbounded; the data MBR is where splits can matter).
  Rect extent;
  for (size_t i = 0; i < n; ++i) extent.Expand(points[i]);

  // Candidate 0 is the median; the sampled ones follow in RNG order. All
  // are drawn before any is scored, so the RNG stream does not depend on
  // how scoring is scheduled.
  std::vector<SplitChoice> candidates(static_cast<size_t>(kappa_) + 1);
  candidates[0] = MedianSplit(points, n);
  for (int k = 0; k < kappa_; ++k) {
    double sx = std::numeric_limits<double>::quiet_NaN();
    double sy = std::numeric_limits<double>::quiet_NaN();
    // Half the candidates snap to query-corner coordinates inside the
    // extent; the rest (and any failed snap) sample uniformly.
    if (k % 2 == 0 && !corner_xs_.empty()) {
      sx = SampleCorner(corner_xs_, extent.min_x, extent.max_x, rng);
      sy = SampleCorner(corner_ys_, extent.min_y, extent.max_y, rng);
    }
    if (std::isnan(sx)) sx = rng.Uniform(extent.min_x, extent.max_x);
    if (std::isnan(sy)) sy = rng.Uniform(extent.min_y, extent.max_y);
    candidates[static_cast<size_t>(k) + 1] =
        SplitChoice{sx, sy, Ordering::kAbcd};
  }

  // Each task reads the span and the provider and writes only its own
  // slots.
  std::vector<double> costs(candidates.size());
  RunOnTeam(team, candidates.size(), [&](size_t i) {
    SplitChoice& c = candidates[i];
    const QuadCounts nd = provider_->CountData(points, n, cell, c.sx, c.sy);
    const ClassCounts qc = provider_->CountQueries(cell, c.sx, c.sy);
    const OrderedCost oc = BestOrdering(nd, qc, alpha_);
    c.ord = oc.ordering;
    costs[i] = oc.cost;
  });

  // Strict < in candidate order: the first minimum wins, as in a serial
  // scan.
  size_t best = 0;
  for (size_t i = 1; i < candidates.size(); ++i) {
    if (costs[i] < costs[best]) best = i;
  }
  return candidates[best];
}

int BuildZIndex(const Dataset& data, SplitPolicy& policy,
                const ZBuildParams& params, ZIndex* out) {
  std::vector<Point> pts = data.points;
  // Unbounded root cell: inserts outside the original bounds stay inside
  // their leaf's cell (see header comment).
  const Rect root_cell = Rect::Of(-kInf, -kInf, kInf, kInf);
  out->StartBuild(root_cell, params.leaf_capacity);
  if (pts.empty()) {
    const int32_t leaf = out->AddLeaf(root_cell, pts.data(), 0, 0);
    out->SetRoot(leaf);
    out->FinishBuild(std::move(pts));
    return 1;
  }
  // The caller is one member of the team; the pool holds the others and
  // is joined when it goes out of scope.
  const int team_size = BuildTeamSize(policy, params);
  std::optional<ThreadPool> team;
  if (team_size > 1) team.emplace(team_size - 1);
  TreeBuilder builder(policy, params, team ? &*team : nullptr, out);
  const int32_t root =
      builder.BuildNode(pts, 0, static_cast<uint32_t>(pts.size()), root_cell,
                        /*depth=*/0);
  out->SetRoot(root);
  out->FinishBuild(std::move(pts));
  return team_size;
}

}  // namespace wazi
