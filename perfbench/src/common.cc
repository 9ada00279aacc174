#include "common.h"

#include <malloc.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>

namespace perfbench {

void Report::Param(const std::string& key, double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.10g", value);
  params.emplace_back(key, buf);
}

LatencyLog::LatencyLog() : dense_(static_cast<size_t>(kDense), 0) {
  chunk_.reserve(kChunk);
}

void LatencyLog::Record(int64_t ns) {
  if (ns < 0) ns = 0;
  ++count_;
  AddToChunk(ns);
  if (ns < kDense) {
    ++dense_[static_cast<size_t>(ns)];
  } else {
    overflow_.push_back(ns);
    overflow_sorted_ = false;
  }
}

void LatencyLog::AddToChunk(int64_t ns) {
  chunk_.push_back(ns);
  if (chunk_.size() == kChunk) {
    // Nearest rank 990 of 1000: ten samples lie beyond it.
    const size_t rank = kChunk - kChunk / 100 - 1;
    std::nth_element(chunk_.begin(), chunk_.begin() + static_cast<long>(rank),
                     chunk_.end());
    chunk_p99_.push_back(chunk_[rank]);
    chunk_.clear();
  }
}

void LatencyLog::Merge(const LatencyLog& other) {
  for (size_t i = 0; i < dense_.size(); ++i) dense_[i] += other.dense_[i];
  overflow_.insert(overflow_.end(), other.overflow_.begin(),
                   other.overflow_.end());
  overflow_sorted_ = false;
  count_ += other.count_;
  chunk_p99_.insert(chunk_p99_.end(), other.chunk_p99_.begin(),
                    other.chunk_p99_.end());
  // The other log's partial chunk continues this one's, so samples of
  // short per-thread logs still reach a full chunk.
  for (const int64_t ns : other.chunk_) AddToChunk(ns);
}

int64_t LatencyLog::P99Ns() const {
  if (chunk_p99_.empty()) return 0;
  std::vector<double> v(chunk_p99_.begin(), chunk_p99_.end());
  return static_cast<int64_t>(Median(&v));
}

int64_t LatencyLog::PercentileNs(double p) const {
  if (count_ == 0) return 0;
  // Nearest rank: the smallest value with at least ceil(p% * n) samples
  // at or below it.
  int64_t rank = static_cast<int64_t>(
      std::ceil(p / 100.0 * static_cast<double>(count_)));
  rank = std::clamp<int64_t>(rank, 1, count_);
  int64_t seen = 0;
  for (size_t i = 0; i < dense_.size(); ++i) {
    seen += dense_[i];
    if (seen >= rank) return static_cast<int64_t>(i);
  }
  if (!overflow_sorted_) {
    std::sort(overflow_.begin(), overflow_.end());
    overflow_sorted_ = true;
  }
  return overflow_[static_cast<size_t>(rank - seen - 1)];
}

double Median(std::vector<double>* v) {
  if (v->empty()) return 0.0;
  const size_t mid = v->size() / 2;
  std::nth_element(v->begin(), v->begin() + static_cast<long>(mid), v->end());
  const double hi = (*v)[mid];
  if (v->size() % 2 == 1) return hi;
  const double lo = *std::max_element(v->begin(),
                                      v->begin() + static_cast<long>(mid));
  return (lo + hi) / 2.0;
}

size_t CurrentRssBytes() {
  malloc_trim(0);
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0;
  unsigned long size_pages = 0, rss_pages = 0;
  const int got = std::fscanf(f, "%lu %lu", &size_pages, &rss_pages);
  std::fclose(f);
  if (got != 2) return 0;
  return static_cast<size_t>(rss_pages) * 4096;
}

void Digest::Add(const void* data, size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < n; ++i) {
    h_ ^= p[i];
    h_ *= 1099511628211ull;
  }
}

ZipfSampler::ZipfSampler(size_t n, double theta) : cdf_(n) {
  double sum = 0.0;
  for (size_t i = 0; i < n; ++i) {
    sum += 1.0 / std::pow(static_cast<double>(i + 1), theta);
    cdf_[i] = sum;
  }
  for (double& c : cdf_) c /= sum;
}

size_t ZipfSampler::Sample(double u) const {
  const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
  return std::min(static_cast<size_t>(it - cdf_.begin()), cdf_.size() - 1);
}

VisibilityProber::VisibilityProber(Lookup lookup)
    : lookup_(std::move(lookup)), thread_([this] { Loop(); }) {}

VisibilityProber::~VisibilityProber() { Finish(); }

void VisibilityProber::Add(const wazi::Point& p, int64_t ack_ns) {
  {
    wazi::MutexLock lock(&mu_);
    pending_.push_back(Pending{p, ack_ns});
  }
  cv_.NotifyOne();
}

void VisibilityProber::Finish() {
  {
    wazi::MutexLock lock(&mu_);
    stop_ = true;
  }
  cv_.NotifyOne();
  if (thread_.joinable()) thread_.join();
}

void VisibilityProber::Loop() {
  std::vector<Pending> mine;
  for (;;) {
    bool stop = false;
    {
      wazi::MutexLock lock(&mu_);
      // Sleep while idle, so the poller adds no wake-ups of its own to the
      // workload between sampled inserts.
      while (mine.empty() && pending_.empty() && !stop_) cv_.Wait(mu_);
      mine.insert(mine.end(), pending_.begin(), pending_.end());
      pending_.clear();
      stop = stop_;
    }
    if (stop && mine.empty()) return;
    size_t keep = 0;
    for (const Pending& e : mine) {
      const bool found = lookup_(e.p);
      const int64_t now = NowNs();
      if (found) {
        samples_.push_back(static_cast<double>(now - e.ack_ns));
      } else if (now - e.ack_ns > kDeadlineNs) {
        ++lost_;
      } else {
        mine[keep++] = e;
      }
    }
    mine.resize(keep);
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
}

PeakSampler::PeakSampler(std::function<size_t()> read)
    : read_(std::move(read)), thread_([this] {
        // relaxed: a stop flag only; nothing is published through it.
        while (!stop_.load(std::memory_order_relaxed)) {
          peak_ = std::max(peak_, read_());
          std::this_thread::sleep_for(std::chrono::milliseconds(5));
        }
      }) {}

PeakSampler::~PeakSampler() { Finish(); }

size_t PeakSampler::Finish() {
  stop_.store(true, std::memory_order_relaxed);
  if (thread_.joinable()) thread_.join();
  return peak_;
}

}  // namespace perfbench
