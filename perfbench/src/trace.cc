#include "trace.h"

#include <algorithm>
#include <cstdio>

#include "common.h"

namespace perfbench {

const char* SpanNameString(SpanName name) {
  switch (name) {
    case SpanName::kLibRange: return "lib.range";
    case SpanName::kLibPoint: return "lib.point";
    case SpanName::kLoopRange: return "serve.loop_range";
    case SpanName::kLoopPoint: return "serve.loop_point";
    case SpanName::kWireRange: return "net.wire_range";
    case SpanName::kWirePoint: return "net.wire_point";
    case SpanName::kWireWrite: return "net.wire_write";
    case SpanName::kProject: return "core.project";
    case SpanName::kScan: return "common.scan";
    case SpanName::kPointLocate: return "core.point_locate";
    case SpanName::kShardRange: return "core.shard_range";
    case SpanName::kTopologyPin: return "serve.topology_pin";
    case SpanName::kRouter: return "serve.router";
    case SpanName::kSnapshotPin: return "serve.snapshot_pin";
    case SpanName::kSubmit: return "serve.submit";
    case SpanName::kCacheProbe: return "serve.cache_probe";
    case SpanName::kRequestEncode: return "net.request_encode";
    case SpanName::kResponseDecode: return "net.response_decode";
    case SpanName::kFlush: return "serve.flush";
    case SpanName::kCount: break;
  }
  return "unknown";
}

void SpanRecorder::Merge(const SpanRecorder& other) {
  const int32_t span_base = static_cast<int32_t>(spans_.size());
  for (const Span& s : other.spans_) {
    Span t = s;
    t.trace += traces_;
    if (t.parent >= 0) t.parent += span_base;
    spans_.push_back(t);
  }
  traces_ += other.traces_;
  for (const auto& [name, sum] : other.counts_) {
    Sum& mine = counts_[name];
    mine.sum += sum.sum;
    mine.n += sum.n;
  }
}

TraceSummary::TraceSummary(const SpanRecorder& rec) : counts_(rec.counts()) {
  const std::vector<Span>& spans = rec.spans();
  std::vector<double> child_ns(spans.size(), 0.0);
  for (const Span& s : spans) {
    if (s.parent >= 0) {
      child_ns[static_cast<size_t>(s.parent)] +=
          static_cast<double>(s.end_ns - s.start_ns);
    }
  }
  // Trace ids are dense and roots come first within each trace.
  uint32_t max_trace = 0;
  for (const Span& s : spans) max_trace = std::max(max_trace, s.trace);
  traces_.resize(spans.empty() ? 0 : max_trace + 1);
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    TraceSelf& t = traces_[s.trace];
    if (s.parent < 0) t.root = s.name;
    const size_t k = static_cast<size_t>(s.name);
    t.self_ns[k] += static_cast<double>(s.end_ns - s.start_ns) - child_ns[i];
    t.has[k] = true;
  }
}

double TraceSummary::MedianSelfNs(const std::vector<SpanName>& names,
                                  const std::vector<SpanName>& roots) const {
  std::vector<double> v;
  for (const TraceSelf& t : traces_) {
    if (!roots.empty() &&
        std::find(roots.begin(), roots.end(), t.root) == roots.end()) {
      continue;
    }
    bool any = false;
    double sum = 0.0;
    for (SpanName n : names) {
      const size_t k = static_cast<size_t>(n);
      if (t.has[k]) {
        any = true;
        sum += t.self_ns[k];
      }
    }
    if (any) v.push_back(sum);
  }
  return Median(&v);
}

double TraceSummary::MeanCount(const std::string& name) const {
  const auto it = counts_.find(name);
  if (it == counts_.end() || it->second.n == 0) return 0.0;
  return it->second.sum / static_cast<double>(it->second.n);
}

double TraceSummary::SumCount(const std::string& name) const {
  const auto it = counts_.find(name);
  return it == counts_.end() ? 0.0 : it->second.sum;
}

bool WriteSpans(const SpanRecorder& rec, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "trace\tspan\tparent\tname\tstart_ns\tend_ns\n");
  const std::vector<Span>& spans = rec.spans();
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(f, "%u\t%zu\t%d\t%s\t%lld\t%lld\n", s.trace, i, s.parent,
                 SpanNameString(s.name), static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns));
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
