// Shared pieces of the benchmark: run arguments, the result record, exact
// latency logs, RSS, input digests and the visibility prober.

#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "common/geometry.h"
#include "common/thread_annotations.h"

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  // Where result records and span dumps go (created if missing).
  std::string out_dir = ".bench_build/perfbench-out";
  // Identity fields the wrapper knows and the binary cannot.
  std::string commit = "unknown";
  std::string source_digest = "unknown";
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

// Everything one run produces. `end_to_end` is printed with --trace 0,
// `per_layer` with --trace 1; `notes` carry sample counts and other
// context for the human-readable report and the result record.
struct Report {
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  // End-to-end figures printed in the report and the record but not in the
  // result line: too swayed by the host to carry a bound (see README.md).
  std::vector<Metric> reported;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<std::pair<std::string, std::string>> params;
  std::vector<std::string> notes;
  // Non-empty when the run is invalid (overload, setup failure): no result
  // is printed and the process exits non-zero.
  std::string invalid;

  void Param(const std::string& key, const std::string& value) {
    params.emplace_back(key, value);
  }
  void Param(const std::string& key, double value);
  void Note(const std::string& text) { notes.push_back(text); }
};

// Latency samples of one client thread. The median is exact (1 ns
// resolution: a dense count array for the common range plus the raw values
// above it), so it moves by single nanoseconds between runs instead of
// snapping to bucket bounds. The tail is a median too: samples are cut, in
// recording order, into chunks of kChunk; each chunk's p99 has ten samples
// beyond it, and the reported p99 is the median of the chunk p99s. A rare
// stall then moves one chunk, not the run's figure, while a tail that got
// slower everywhere moves every chunk.
class LatencyLog {
 public:
  static constexpr size_t kChunk = 1000;

  LatencyLog();
  void Record(int64_t ns);
  void Merge(const LatencyLog& other);
  int64_t count() const { return count_; }
  // Exact nearest-rank median; 0 when empty.
  int64_t MedianNs() const { return PercentileNs(50); }
  // Median of the chunk p99s; 0 before the first full chunk.
  int64_t P99Ns() const;
  // Nearest-rank percentile over every sample, p in (0, 100].
  int64_t PercentileNs(double p) const;
  size_t chunks() const { return chunk_p99_.size(); }

 private:
  void AddToChunk(int64_t ns);

  static constexpr int64_t kDense = int64_t{1} << 18;  // 262 us
  std::vector<uint32_t> dense_;
  mutable std::vector<int64_t> overflow_;
  mutable bool overflow_sorted_ = true;
  int64_t count_ = 0;
  std::vector<int64_t> chunk_;      // the chunk being filled
  std::vector<int64_t> chunk_p99_;  // one per full chunk
};

// Median of a sample vector (sorted in place); 0 when empty.
double Median(std::vector<double>* v);

// Resident set size of this process in bytes (after returning freed heap
// pages to the OS, so the figure tracks live memory).
size_t CurrentRssBytes();

// FNV-1a over the raw bytes of the generated inputs.
class Digest {
 public:
  void Add(const void* data, size_t n);
  void Add(const std::vector<wazi::Point>& v) {
    Add(v.data(), v.size() * sizeof(wazi::Point));
  }
  void Add(const std::vector<wazi::Rect>& v) {
    Add(v.data(), v.size() * sizeof(wazi::Rect));
  }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 1469598103934665603ull;
};

// Bounded Zipf(theta) sampler over [0, n) by inverse CDF.
class ZipfSampler {
 public:
  ZipfSampler(size_t n, double theta);
  // u uniform in [0, 1).
  size_t Sample(double u) const;

 private:
  std::vector<double> cdf_;
};

// Measures write visibility: for each acked insert handed in, polls the
// serving path with a point lookup until the point is found and records
// the time from the ack to that first successful lookup. A point not
// found within the deadline counts as failed.
class VisibilityProber {
 public:
  using Lookup = std::function<bool(const wazi::Point&)>;
  explicit VisibilityProber(Lookup lookup);
  ~VisibilityProber();
  VisibilityProber(const VisibilityProber&) = delete;
  VisibilityProber& operator=(const VisibilityProber&) = delete;

  void Add(const wazi::Point& p, int64_t ack_ns) EXCLUDES(mu_);
  // Waits until every added point is found or has timed out, then stops
  // the polling thread.
  void Finish() EXCLUDES(mu_);

  // Points handed in (valid after Finish): each ends visible or lost.
  int64_t probed() const {
    return static_cast<int64_t>(samples_.size()) + lost_;
  }
  int64_t lost() const { return lost_; }
  // Ack-to-visible samples in ns (valid after Finish).
  std::vector<double>& samples() { return samples_; }

 private:
  struct Pending {
    wazi::Point p;
    int64_t ack_ns;
  };
  void Loop() EXCLUDES(mu_);

  static constexpr int64_t kDeadlineNs = 5'000'000'000;
  Lookup lookup_;
  wazi::Mutex mu_;
  wazi::CondVar cv_;  // poller: new pending points / stop
  std::vector<Pending> pending_ GUARDED_BY(mu_);
  bool stop_ GUARDED_BY(mu_) = false;
  // Written by the polling thread only; read after it is joined.
  std::vector<double> samples_;
  int64_t lost_ = 0;
  std::thread thread_;
};

// Polls a gauge every 5 ms on its own thread and keeps the peak.
class PeakSampler {
 public:
  explicit PeakSampler(std::function<size_t()> read);
  ~PeakSampler();
  PeakSampler(const PeakSampler&) = delete;
  PeakSampler& operator=(const PeakSampler&) = delete;

  // Stops polling (idempotent) and returns the peak seen.
  size_t Finish();

 private:
  std::function<size_t()> read_;
  std::atomic<bool> stop_{false};
  size_t peak_ = 0;  // polling thread only until joined
  std::thread thread_;
};

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
