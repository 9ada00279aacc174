#include "workload/query_generator.h"

#include <algorithm>
#include <cmath>

#include "common/rng.h"

namespace wazi {
namespace {

// Zipf-ish popularity weights: weight(i) ~ 1/(i+1).
std::vector<double> ZipfWeights(size_t n) {
  std::vector<double> w(n);
  for (size_t i = 0; i < n; ++i) w[i] = 1.0 / static_cast<double>(i + 1);
  return w;
}

// Gowalla check-ins concentrate on discrete *venues* (a check-in carries a
// venue's coordinates), so the check-in distribution is spiky at fine
// scales — that spikiness is what a workload-aware index exploits. We
// model it explicitly: a deterministic set of venues per region (drawn
// around the region's popular places), Zipf-weighted, with metre-scale
// jitter; plus a small uniform background.
struct VenueModel {
  std::vector<Point> venues;
  std::vector<double> weights;
};

VenueModel BuildVenueModel(Region region, const Rect& domain, uint64_t seed) {
  constexpr size_t kVenues = 400;
  const std::vector<Point> hotspots = RegionHotspots(region);
  const std::vector<double> hotspot_w = ZipfWeights(hotspots.size());
  VenueModel model;
  model.venues.reserve(kVenues);
  Rng rng(seed ^ 0xfeedfacecafef00dULL);
  for (size_t i = 0; i < kVenues; ++i) {
    // 80% of venues cluster around popular places, 20% anywhere.
    Point v;
    if (rng.NextDouble() < 0.8) {
      const Point& h = hotspots[rng.WeightedIndex(hotspot_w)];
      const double sigma = 0.02;
      v = Point{std::clamp(h.x + sigma * rng.NextGaussian(), domain.min_x,
                           domain.max_x),
                std::clamp(h.y + sigma * rng.NextGaussian(), domain.min_y,
                           domain.max_y),
                0};
    } else {
      v = Point{rng.Uniform(domain.min_x, domain.max_x),
                rng.Uniform(domain.min_y, domain.max_y), 0};
    }
    model.venues.push_back(v);
  }
  model.weights = ZipfWeights(kVenues);
  return model;
}

Point SampleCheckin(const VenueModel& model, const Rect& domain, Rng& rng) {
  // 90% of check-ins at a venue (tiny jitter), 10% anywhere.
  if (rng.NextDouble() < 0.9) {
    const Point& v = model.venues[rng.WeightedIndex(model.weights)];
    const double sigma = 0.0015;
    return Point{std::clamp(v.x + sigma * rng.NextGaussian(), domain.min_x,
                            domain.max_x),
                 std::clamp(v.y + sigma * rng.NextGaussian(), domain.min_y,
                            domain.max_y),
                 0};
  }
  return Point{rng.Uniform(domain.min_x, domain.max_x),
               rng.Uniform(domain.min_y, domain.max_y), 0};
}

// Grows a rectangle of area `frac * Area(domain)` around `center`, sliding
// it inward where it would cross the domain boundary so that the covered
// area stays exact (the paper grows "along the four directions" to reach
// the target coverage).
Rect GrowQuery(const Point& center, const Rect& domain, double frac,
               double aspect, Rng& rng) {
  (void)rng;
  const double area = frac * domain.Area();
  double w = std::sqrt(area / aspect);
  double h = area / w;
  w = std::min(w, domain.max_x - domain.min_x);
  h = std::min(h, domain.max_y - domain.min_y);
  double min_x = center.x - w / 2.0;
  double min_y = center.y - h / 2.0;
  min_x = std::clamp(min_x, domain.min_x, domain.max_x - w);
  min_y = std::clamp(min_y, domain.min_y, domain.max_y - h);
  return Rect::Of(min_x, min_y, min_x + w, min_y + h);
}

double SampleAspect(double aspect_max, Rng& rng) {
  if (aspect_max <= 1.0) return 1.0;
  const double log_max = std::log(aspect_max);
  return std::exp(rng.Uniform(-log_max, log_max));
}

}  // namespace

Workload GenerateCheckinWorkload(Region region, const Rect& domain,
                                 const QueryGenOptions& opts) {
  Workload w;
  w.name = RegionName(region);
  w.name.insert(w.name.begin(), 'Q');
  w.selectivity = opts.selectivity;
  w.queries.reserve(opts.num_queries);
  const VenueModel model = BuildVenueModel(region, domain, opts.seed);
  Rng rng(opts.seed ^ (static_cast<uint64_t>(region) + 11) * 0x2545f4914f6cdd1dULL);
  for (size_t i = 0; i < opts.num_queries; ++i) {
    const Point c = SampleCheckin(model, domain, rng);
    const double aspect = SampleAspect(opts.aspect_max, rng);
    w.queries.push_back(GrowQuery(c, domain, opts.selectivity, aspect, rng));
  }
  return w;
}

Workload GenerateUniformWorkload(const Rect& domain,
                                 const QueryGenOptions& opts) {
  Workload w;
  w.name = "QUniform";
  w.selectivity = opts.selectivity;
  w.queries.reserve(opts.num_queries);
  Rng rng(opts.seed * 0x9e3779b97f4a7c15ULL + 3);
  for (size_t i = 0; i < opts.num_queries; ++i) {
    const Point c{rng.Uniform(domain.min_x, domain.max_x),
                  rng.Uniform(domain.min_y, domain.max_y), 0};
    const double aspect = SampleAspect(opts.aspect_max, rng);
    w.queries.push_back(GrowQuery(c, domain, opts.selectivity, aspect, rng));
  }
  return w;
}

std::vector<Point> SampleCheckinCenters(Region region, size_t n,
                                        uint64_t seed) {
  const Rect domain = Rect::Of(0.0, 0.0, 1.0, 1.0);
  const VenueModel model = BuildVenueModel(region, domain, seed);
  Rng rng(seed ^ (static_cast<uint64_t>(region) + 11) * 0x2545f4914f6cdd1dULL);
  std::vector<Point> out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    out.push_back(SampleCheckin(model, domain, rng));
  }
  return out;
}

Workload BlendWorkloads(const Workload& base, const Workload& drift,
                        double fraction, uint64_t seed) {
  Workload out = base;
  out.name = base.name + "+" + drift.name;
  if (drift.queries.empty() || fraction <= 0.0) return out;
  Rng rng(seed + 101);
  const size_t n_replace = static_cast<size_t>(
      std::llround(fraction * static_cast<double>(base.queries.size())));
  // Deterministic choice of positions: shuffle indices with our Rng.
  std::vector<size_t> idx(base.queries.size());
  for (size_t i = 0; i < idx.size(); ++i) idx[i] = i;
  for (size_t i = idx.size(); i > 1; --i) {
    std::swap(idx[i - 1], idx[rng.NextBelow(i)]);
  }
  for (size_t k = 0; k < n_replace && k < idx.size(); ++k) {
    out.queries[idx[k]] = drift.queries[rng.NextBelow(drift.queries.size())];
  }
  return out;
}

std::vector<Point> SamplePointQueries(const Dataset& data, size_t n,
                                      uint64_t seed) {
  std::vector<Point> out;
  out.reserve(n);
  Rng rng(seed + 77);
  for (size_t i = 0; i < n; ++i) {
    out.push_back(data.points[rng.NextBelow(data.points.size())]);
  }
  return out;
}

std::vector<Point> GenerateInsertStream(const Rect& domain, size_t n,
                                        int64_t first_id, uint64_t seed) {
  std::vector<Point> out;
  out.reserve(n);
  Rng rng(seed + 12345);
  for (size_t i = 0; i < n; ++i) {
    out.push_back(Point{rng.Uniform(domain.min_x, domain.max_x),
                        rng.Uniform(domain.min_y, domain.max_y),
                        first_id + static_cast<int64_t>(i)});
  }
  return out;
}

}  // namespace wazi
