// Per-thread latency capture with percentile extraction for the load
// driver (workloads/load_driver.h). A bounded ring keeps the most recent
// `capacity` samples (the steady-state window of a serving run); Record()
// is single-threaded, one recorder per client thread, merged after the
// threads join. Not a concurrent type: Record/Merge/PercentileNs all
// belong to one thread at a time.

#ifndef WAZI_BENCH_WORKLOADS_LATENCY_RECORDER_H_
#define WAZI_BENCH_WORKLOADS_LATENCY_RECORDER_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace wazi::bench::workloads {

class LatencyRecorder {
 public:
  // capacity == 0 makes a counting-only recorder: count() advances but no
  // samples are retained (and percentiles are always 0).
  explicit LatencyRecorder(size_t capacity = 1 << 16) : capacity_(capacity) {
    samples_.reserve(std::min<size_t>(capacity_, 1 << 12));
  }

  void Record(int64_t ns) {
    ++count_;
    if (capacity_ == 0) return;  // counting-only recorder
    if (samples_.size() < capacity_) {
      samples_.push_back(ns);
    } else {
      // Ring eviction: overwrite the oldest retained sample.
      samples_[head_] = ns;
      head_ = (head_ + 1) % capacity_;
    }
    sorted_valid_ = false;
  }

  // Folds another recorder's state in, losslessly: the capacity GROWS if
  // needed so every retained sample of both recorders is kept (a merged
  // recorder never silently truncates), and count() adds the other's
  // TOTAL recorded ops — samples the source ring already evicted stay
  // counted, just not retained. A counting-only recorder (capacity 0)
  // stays counting-only and only accumulates the count. Merge is an
  // aggregation step (join threads, then merge, then read percentiles):
  // after a capacity-growing Merge the retained window is the UNION of
  // the sources, no longer age-ordered, so a later Record that evicts
  // replaces an unspecified-age sample rather than the oldest.
  void Merge(const LatencyRecorder& other) {
    if (capacity_ > 0 &&
        samples_.size() + other.samples_.size() > capacity_) {
      capacity_ = samples_.size() + other.samples_.size();
      head_ = 0;  // ring restarts; order does not matter for percentiles
    }
    const size_t evicted_by_other = other.count_ - other.samples_.size();
    for (int64_t ns : other.samples_) Record(ns);
    count_ += evicted_by_other;
  }

  // pct in [0, 100], linearly interpolated between the two nearest order
  // statistics of the RETAINED window (p0 = min, p50 = median, p100 =
  // max); 0 with no samples. Nearest-rank with ad-hoc rounding biased p99
  // high on small windows; interpolation is exact for the median and
  // continuous in pct. The sorted window is cached across calls and
  // invalidated by Record/Merge, so a percentile sweep sorts once.
  int64_t PercentileNs(double pct) const {
    if (samples_.empty()) return 0;
    if (!sorted_valid_) {
      sorted_ = samples_;
      std::sort(sorted_.begin(), sorted_.end());
      sorted_valid_ = true;
    }
    pct = std::min(100.0, std::max(0.0, pct));
    const double rank =
        pct / 100.0 * static_cast<double>(sorted_.size() - 1);
    const size_t lo = static_cast<size_t>(rank);
    if (lo + 1 >= sorted_.size()) return sorted_.back();
    const double frac = rank - static_cast<double>(lo);
    const double lo_v = static_cast<double>(sorted_[lo]);
    const double hi_v = static_cast<double>(sorted_[lo + 1]);
    return static_cast<int64_t>(std::llround(lo_v + frac * (hi_v - lo_v)));
  }

  // Total operations recorded (can exceed the retained sample count).
  size_t count() const { return count_; }
  // Samples currently retained (== count() until the window wraps).
  size_t retained() const { return samples_.size(); }
  // Current window bound (may have grown via Merge).
  size_t capacity() const { return capacity_; }

 private:
  size_t capacity_;
  size_t count_ = 0;
  size_t head_ = 0;  // next eviction slot once the ring is full
  std::vector<int64_t> samples_;
  mutable std::vector<int64_t> sorted_;  // cached sorted view of samples_
  mutable bool sorted_valid_ = false;
};

}  // namespace wazi::bench::workloads

#endif  // WAZI_BENCH_WORKLOADS_LATENCY_RECORDER_H_
