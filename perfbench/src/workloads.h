// The three workloads and the pieces they share. See ../README.md for why
// each workload exists and which layers it reaches.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common.h"
#include "index/spatial_index.h"
#include "trace.h"
#include "workload/dataset.h"
#include "workload/region_generator.h"

namespace perfbench {

// What one measured phase produced, from the client's side.
struct PhaseResult {
  LatencyLog range;
  LatencyLog point;
  int64_t reads = 0;
  double read_seconds = 0.0;
  int64_t writes = 0;  // acked writes
  // Acked writes per second, one entry per write batch or burst; the
  // reported write_qps is their median.
  std::vector<double> write_rates;
  std::vector<double> visible_ns;  // ack-to-visible samples
  // Per read slice (index_range, serve_read): the slice's median range and
  // point latency and its read rate. When present, the reported p50s and
  // read_qps are medians over slices, so a slice the host slowed down
  // moves one sample rather than the run's figure.
  std::vector<double> slice_range_p50_ns;
  std::vector<double> slice_point_p50_ns;
  std::vector<double> slice_read_qps;
};

// Folds one read slice into `phase`'s per-slice figures. `range_ns` and
// `point_ns` hold the slice's latency samples (or a regular subsample of
// them); both are reordered.
void AddSlice(std::vector<double>* range_ns, std::vector<double>* point_ns,
              int64_t reads, double seconds, PhaseResult* phase);

// A sampled range result kept for the after-run correctness check.
struct RangeCheck {
  uint32_t query = 0;            // index into the workload's range list
  std::vector<wazi::Point> got;  // returned points
  size_t inserted = 0;           // inserts applied before the read
};

// index_range and serve_read cut their measured window into read slices
// with a write batch after each, so reads and writes both sample the whole
// window (a brief slowdown of the host moves a slice, not a whole metric)
// and reads see the index grow, as in the paper's Fig. 11. A traced run
// runs twice the slices and traces every other one, so its traced and
// untraced halves see the same growth.

// Sorted ids of `points`.
std::vector<int64_t> SortedIds(const std::vector<wazi::Point>& points);

// Sampled range results that differ from a full scan of `data` plus the
// first `inserted` points of `inserts`.
int64_t CountMismatches(const wazi::Dataset& data,
                        const std::vector<wazi::Point>& inserts,
                        const wazi::Workload& ranges,
                        const std::vector<RangeCheck>& checks);

// Training and timed range queries from one check-in distribution. The
// query generator draws its venue model from its seed, so both come from
// one generated sequence seeded by `dist_seed`: its first `n_training`
// queries train the index, and `n_timed` queries picked by `seed` from
// the rest of the sequence are timed — a fresh sample of the workload the
// index was trained for.
void CheckinQueries(wazi::Region region, const wazi::Rect& domain,
                    double selectivity, uint64_t dist_seed,
                    size_t n_training, size_t n_timed, uint64_t seed,
                    wazi::Workload* training, wazi::Workload* timed);

// A stream of `n` new points, uniform over `domain`, with ids above every
// generated data id.
std::vector<wazi::Point> InsertStream(const wazi::Rect& domain, size_t n,
                                      uint64_t seed);

// Derives an independent sub-seed for input stream `stream`.
uint64_t SubSeed(uint64_t seed, uint64_t stream);

// The run's end-to-end metrics in their fixed order (the gated ones into
// `end_to_end`, the p99s into `reported`). `setup_s` is the median set-up
// time, `bytes_per_point` the RSS growth per live point.
void AddEndToEnd(const PhaseResult& phase, double setup_s,
                 double bytes_per_point, Report* report);

// obs.trace_overhead_pct.<metric>: traced minus untraced, in percent of
// the untraced value, for each metric a phase measures.
void AddTraceOverhead(const PhaseResult& untraced, const PhaseResult& traced,
                      std::map<std::string, double>* layer);

// Emits every per-layer metric in its fixed order; layers the workload
// does not reach are absent from `layer` and report 0.
void AddPerLayer(const std::map<std::string, double>& layer, Report* report);

// Counts the work shape of one traced range query (core/common layers).
void CountRangeWork(const wazi::QueryStats& st, SpanRecorder* rec);
// Fills the core/common per-layer metrics from those counts.
void RangeWorkMetrics(const TraceSummary& sum,
                      std::map<std::string, double>* layer);

// Notes "<name>: n=<count>" sample counts for both latency logs.
void NoteSamples(const PhaseResult& phase, Report* report);

Report RunIndexRange(const Args& args);
Report RunServeRead(const Args& args);
Report RunServeMixed(const Args& args);

// Digest of every input a workload generates from `seed` (data, training
// queries, timed streams); what the identity test compares.
uint64_t IndexRangeDigest(uint64_t seed);
uint64_t ServeReadDigest(uint64_t seed);
uint64_t ServeMixedDigest(uint64_t seed);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
