#include "core/wazi.h"

#include "core/serialize.h"

namespace wazi {

void ZIndexVariant::Build(const Dataset& data, const Workload& workload,
                          const BuildOptions& opts) {
  ZBuildParams params;
  params.leaf_capacity = opts.leaf_capacity;
  params.seed = opts.seed;

  if (!adaptive_) {
    MedianSplitPolicy policy;
    build_workers_ = BuildZIndex(data, policy, params, &zindex_);
  } else {
    const double alpha = skipping_ ? opts.alpha : opts.alpha_noskip;
    std::unique_ptr<CountProvider> provider;
    std::unique_ptr<EstimatedCountProvider> estimated;
    std::unique_ptr<ExactCountProvider> exact;
    if (opts.use_estimators) {
      EstimatorOptions eo;
      eo.data_trees = opts.rfde_trees;
      eo.query_trees = opts.rfde_trees;
      eo.subsample = opts.rfde_subsample;
      eo.leaf_size = opts.rfde_leaf_size;
      // Query-corner distributions are spiky at venue scale; the 4-D
      // forest needs fine leaves to resolve the straddle costs that drive
      // bottom-level split choices.
      eo.query_leaf_size = 4;
      eo.seed = opts.seed;
      eo.leaf_capacity = opts.leaf_capacity;
      estimated = std::make_unique<EstimatedCountProvider>(data, workload, eo);
    } else {
      exact = std::make_unique<ExactCountProvider>(&workload);
    }
    const CountProvider* raw =
        opts.use_estimators ? static_cast<const CountProvider*>(estimated.get())
                            : static_cast<const CountProvider*>(exact.get());
    GreedySplitPolicy policy(raw,
                             opts.corner_candidates ? &workload : nullptr,
                             opts.kappa, alpha);
    build_workers_ = BuildZIndex(data, policy, params, &zindex_);
  }
  if (skipping_) zindex_.BuildLookahead();
  stats_.Reset();
}

void ZIndexVariant::DoRangeQuery(const Rect& query, std::vector<Point>* out,
                  QueryStats* stats) const {
  if (skipping_) {
    zindex_.RangeQuerySkipping(query, out, stats);
  } else {
    zindex_.RangeQueryNaive(query, out, stats);
  }
}

void ZIndexVariant::DoProject(const Rect& query, Projection* proj,
               QueryStats* stats) const {
  zindex_.Project(query, skipping_, proj, stats);
}

bool ZIndexVariant::DoPointQuery(const Point& p, QueryStats* stats) const {
  return zindex_.PointQuery(p.x, p.y, stats);
}

bool ZIndexVariant::Insert(const Point& p) {
  zindex_.Insert(p, /*maintain_lookahead=*/skipping_);
  return true;
}

bool ZIndexVariant::Remove(const Point& p) { return zindex_.Remove(p.x, p.y); }

size_t ZIndexVariant::SizeBytes() const { return zindex_.SizeBytes(); }

std::unique_ptr<SpatialIndex> ZIndexVariant::Clone() const {
  auto copy = std::make_unique<ZIndexVariant>(*this);
  copy->stats_.Reset();
  return copy;
}

bool ZIndexVariant::SaveToFile(const std::string& path) const {
  return SaveZIndexToFile(zindex_, path);
}

bool ZIndexVariant::LoadFromFile(const std::string& path) {
  if (!LoadZIndexFromFile(path, &zindex_)) return false;
  if (skipping_ && !zindex_.has_lookahead()) zindex_.BuildLookahead();
  stats_.Reset();
  return true;
}

}  // namespace wazi
