// Z-index construction: the shared recursive bulk loader plus the two
// split policies — median/"abcd" for the Base Z-index (§3) and the
// cost-minimizing Greedy policy of Algorithm 3 for WaZI (§4.3).
//
// The tree is rooted at an unbounded cell (-inf..inf)^2 so that points
// inserted outside the original data bounds still fall inside their
// leaf's cell, which keeps the look-ahead skipping invariants valid under
// updates (cells never grow; see leaf_dir.h).

#ifndef WAZI_CORE_BUILDER_H_
#define WAZI_CORE_BUILDER_H_

#include <cstddef>
#include <cstdint>

#include "common/geometry.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/cost_model.h"
#include "core/density_adapters.h"
#include "core/zindex.h"
#include "workload/dataset.h"

namespace wazi {

struct SplitChoice {
  double sx = 0.0;
  double sy = 0.0;
  Ordering ord = Ordering::kAbcd;
};

// Decides split point and child ordering for one node. `points` is the
// node's span (mutable: policies may reorder it, e.g. for medians).
// `team` (null for a serial build) is the build's worker pool; a policy
// may run independent work on it beside the calling thread, but must
// return the same choice it would return serially.
class SplitPolicy {
 public:
  virtual ~SplitPolicy() = default;
  virtual SplitChoice Choose(Point* points, size_t n, const Rect& cell,
                             Rng& rng, ThreadPool* team) = 0;
  // Independent tasks one Choose() can spread over a team; 1 = serial.
  virtual int parallelism() const { return 1; }
};

// Base Z-index: split at the data medians, always "abcd".
class MedianSplitPolicy : public SplitPolicy {
 public:
  SplitChoice Choose(Point* points, size_t n, const Rect& cell, Rng& rng,
                     ThreadPool* team) override;
};

// WaZI's Greedy (Algorithm 3): sample kappa candidate split points,
// evaluate Eq. 5 under both orderings with counts from `provider`, keep
// the minimum. Candidates mix uniform samples over the node's data extent
// with coordinates drawn from workload query corners (optima sit at query
// boundaries, where a split stops queries from straddling pages; see
// DESIGN.md §4.4); the median is always one extra candidate.
//
// Candidates are sampled serially, in a fixed RNG order, before any is
// scored; scoring (counts + Eq. 5) then runs on the team, and the minimum
// is taken in candidate order. The layout is therefore the same for every
// team size. `provider` must be safe to call concurrently (both providers
// in density_adapters.h are).
class GreedySplitPolicy : public SplitPolicy {
 public:
  GreedySplitPolicy(const CountProvider* provider, const Workload* workload,
                    int kappa, double alpha);

  SplitChoice Choose(Point* points, size_t n, const Rect& cell, Rng& rng,
                     ThreadPool* team) override;
  int parallelism() const override { return kappa_ + 1; }

 private:
  // Random corner coordinate within [lo, hi], or NaN when none exists.
  double SampleCorner(const std::vector<double>& coords, double lo, double hi,
                      Rng& rng) const;

  const CountProvider* provider_;
  int kappa_;
  double alpha_;
  std::vector<double> corner_xs_;  // sorted query corner coordinates
  std::vector<double> corner_ys_;
};

struct ZBuildParams {
  int leaf_capacity = 256;
  int max_depth = 40;
  uint64_t seed = 42;
  // Threads that run the policy, the caller included. 0 picks
  // min(hardware_concurrency, policy.parallelism()); tests pin it to
  // compare layouts across team sizes.
  int workers = 0;
};

// Bulk-loads `out` from `data` using `policy` for every internal node.
// Reorders a copy of the points into curve order; leaves become clustered
// pages. Does NOT build look-ahead pointers (call out->BuildLookahead()).
// Runs the policy on a worker team that lives for this call only (joined
// before return); returns the team size, the caller included.
int BuildZIndex(const Dataset& data, SplitPolicy& policy,
                const ZBuildParams& params, ZIndex* out);

// Median split of a span: (x-median, y-median), computed in place.
SplitChoice MedianSplit(Point* points, size_t n);

}  // namespace wazi

#endif  // WAZI_CORE_BUILDER_H_
