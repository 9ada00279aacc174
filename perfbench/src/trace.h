// Traced-run tooling: an in-memory span recorder and the self-time
// summarizer that turns its spans into per-layer metrics.
//
// A traced op is issued twice. The first issue goes through the
// end-to-end call and becomes the root span of a trace. The second issue
// replays the same op through the public calls of each layer; every such
// call becomes a child span of the root (or of another replayed call).
// Replayed children run after their parent has returned, so a span's self
// time is its duration minus the summed durations of its direct children,
// not minus an overlapped interval. Nothing inside the library is
// instrumented: every span is timed around a public call from the
// benchmark's own code.

#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

enum class SpanName : uint16_t {
  // Roots: the end-to-end call of one op.
  kLibRange,    // SpatialIndex::RangeQuery
  kLibPoint,    // SpatialIndex::PointQuery
  kLoopRange,   // ServeLoop::Range
  kLoopPoint,   // ServeLoop::PointLookup
  kWireRange,   // WireClient range round trip
  kWirePoint,   // WireClient point round trip
  kWireWrite,   // WireClient insert/remove round trip (to the ack)
  // Replayed layer calls.
  kProject,          // SpatialIndex::Project
  kScan,             // SpatialIndex::ScanProjection
  kPointLocate,      // SpatialIndex::PointQuery on a pinned snapshot
  kShardRange,       // SpatialIndex::RangeQuery on a pinned snapshot
  kTopologyPin,      // ShardedVersionedIndex::AcquireTopology, and release
  kRouter,           // ShardRouter::ShardOf / Decompose
  kSnapshotPin,      // VersionedIndex::Acquire, and SnapshotRef::Release
  kSubmit,           // ServeLoop::SubmitQuery until the future is ready
  kCacheProbe,       // ResultCache::Lookup
  kRequestEncode,    // wire_format Encode*
  kResponseDecode,   // FrameDecoder::Next + DecodeResponse
  kFlush,            // ServeLoop::Flush
  kCount,
};

const char* SpanNameString(SpanName name);

struct Span {
  uint32_t trace = 0;
  int32_t parent = -1;  // index into the recorder's span vector, -1 = root
  SpanName name = SpanName::kLibRange;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

// One per thread; merged after the run. Counts are recorded at the same
// boundaries as spans (work done per traced op), so ratios are measured
// where the work happens.
class SpanRecorder {
 public:
  // Caps the traces one recorder keeps so span memory stays bounded;
  // Sample() returns false once the cap is reached.
  explicit SpanRecorder(uint32_t sample_every, size_t max_traces = 50000)
      : sample_every_(sample_every), max_traces_(max_traces) {}

  // True for every sample_every-th op until the trace cap is reached.
  bool Sample() {
    return ++tick_ % sample_every_ == 0 && traces_ < max_traces_;
  }
  // Starts a trace; returns its root span's index.
  int32_t Root(SpanName name, int64_t start_ns, int64_t end_ns) {
    ++traces_;
    return Add(name, -1, start_ns, end_ns);
  }
  int32_t Child(int32_t parent, SpanName name, int64_t start_ns,
                int64_t end_ns) {
    return Add(name, parent, start_ns, end_ns);
  }
  void Count(const std::string& name, double value) {
    Sum& s = counts_[name];
    s.sum += value;
    ++s.n;
  }

  struct Sum {
    double sum = 0.0;
    int64_t n = 0;
  };
  const std::vector<Span>& spans() const { return spans_; }
  const std::map<std::string, Sum>& counts() const { return counts_; }

  // Folds another thread's recorder in (trace ids renumbered).
  void Merge(const SpanRecorder& other);

 private:
  int32_t Add(SpanName name, int32_t parent, int64_t start_ns,
              int64_t end_ns) {
    const uint32_t trace =
        parent < 0 ? traces_ : spans_[static_cast<size_t>(parent)].trace;
    spans_.push_back(Span{trace, parent, name, start_ns, end_ns});
    return static_cast<int32_t>(spans_.size() - 1);
  }

  uint32_t sample_every_;
  size_t max_traces_;
  uint64_t tick_ = 0;
  uint32_t traces_ = 0;
  std::vector<Span> spans_;
  std::map<std::string, Sum> counts_;
};

// Self times per trace, for the per-layer metrics.
class TraceSummary {
 public:
  explicit TraceSummary(const SpanRecorder& rec);

  // Median over traces whose root is one of `roots` (any root when
  // empty) and that contain at least one span named in `names`, of the
  // summed self time of those spans. 0 when no trace qualifies.
  double MedianSelfNs(const std::vector<SpanName>& names,
                      const std::vector<SpanName>& roots = {}) const;
  // Mean of a recorded count (sum / n); 0 when never recorded.
  double MeanCount(const std::string& name) const;
  double SumCount(const std::string& name) const;

 private:
  struct TraceSelf {
    SpanName root = SpanName::kLibRange;
    double self_ns[static_cast<size_t>(SpanName::kCount)] = {};
    bool has[static_cast<size_t>(SpanName::kCount)] = {};
  };
  std::vector<TraceSelf> traces_;
  std::map<std::string, SpanRecorder::Sum> counts_;
};

// Writes every span as one tab-separated line (trace, span, parent, name,
// start_ns, end_ns). Returns false on an I/O error.
bool WriteSpans(const SpanRecorder& rec, const std::string& path);

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
