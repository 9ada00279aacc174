// The client-load driver shared by the scenario library, its tests and
// `wazi_cli throughput`: N client threads push ops at a ServeLoop for a
// fixed duration, in process or over the wire protocol, and report the
// completed ops, the errors and every client's latencies.
//
// Every load runs on one skeleton. Client t draws from Rng(seed + t);
// all clients park on a start latch, and the wall clock starts only once
// every client is parked, so neither slow thread spawns nor thread
// start-up lands outside the timed window; per-client tallies merge after
// the join. RunLoad puts the standard op mix on that
// skeleton (round-robin or hot-set range reads, own-insert/remove
// writes); RunOps lets a scenario supply its own per-op function.

#ifndef WAZI_BENCH_WORKLOADS_LOAD_DRIVER_H_
#define WAZI_BENCH_WORKLOADS_LOAD_DRIVER_H_

#include <cstdint>
#include <functional>
#include <string>
#include <variant>

#include "common/rng.h"
#include "serve/serve_loop.h"
#include "workload/dataset.h"
#include "workloads/latency_recorder.h"

namespace wazi::bench::workloads {

// A WireServer address; the driver opens one connection per client.
struct WireEndpoint {
  std::string host;
  uint16_t port = 0;
};

// Where client ops go: straight into an in-process ServeLoop, or over TCP
// to a WireServer.
using Transport = std::variant<serve::ServeLoop*, WireEndpoint>;

struct LoadOptions {
  int threads = 1;
  double seconds = 1.0;
  // Percentage of ops that are writes; 0 = read-only. A client inserts
  // fresh points (ids from one process-wide counter starting at 1 << 40,
  // above any generator's dataset ids) and, once it holds more than 64 of
  // them, removes its own newest insert instead.
  int write_pct = 0;
  // Region inserted points are drawn from (uniformly).
  Rect insert_region = Rect::Of(0.0, 0.0, 1.0, 1.0);
  // Skewed reads: when > 0, 90% of reads re-ask the first `hot_fraction`
  // of the workload's queries (round-robin within that hot set) and the
  // rest round-robin the whole workload. 0 = uniform round-robin.
  double hot_fraction = 0.0;
  // Reads in flight per client. 0 issues each read synchronously (the
  // embedded transport runs it on the client thread: the direct snapshot
  // path). > 0 pipelines reads, through ServeLoop::SubmitQuery (batched
  // admission) or over the wire; latency is then submit to collection,
  // and resolved reads are collected eagerly so it tracks submit to ready.
  int pipeline_depth = 0;
  // Same seed and thread count => byte-identical per-client op streams on
  // either transport, so a baseline comparison measures the engine.
  uint64_t seed = 1000;
  // Test-only: observes every read on its issuing client, with whether the
  // hot set supplied the rectangle. Leave empty in benchmarks.
  std::function<void(int thread, bool hot, const Rect& rect)> read_hook;
  // Test-only: runs on the driving thread right after client t is spawned.
  std::function<void(int thread)> spawn_hook;
};

struct LoadResult {
  int64_t queries = 0;  // completed reads
  int64_t writes = 0;   // issued writes
  // Failed connects, lost transports and failed responses. A failed
  // connect aborts the run before the clock starts (elapsed_seconds stays
  // 0); a client stops at its first error.
  int64_t errors = 0;
  double elapsed_seconds = 0.0;
  LatencyRecorder latencies{0};  // every client's retained samples
};

// Drives `transport` with the op mix above over `workload`'s queries.
// Blocks until the duration elapses and the clients join; on the embedded
// transport the loop is then flushed, outside the timed window.
LoadResult RunLoad(const Transport& transport, const Workload& workload,
                   const LoadOptions& opts);

// What one custom op did; kError counts in LoadResult::errors.
enum class OpOutcome { kRead, kWrite, kError };

// A custom op mix on the same skeleton: client t calls op(t, rng) until
// the run ends, timing every call.
LoadResult RunOps(int threads, double seconds, uint64_t seed,
                  const std::function<OpOutcome(int thread, Rng& rng)>& op);

}  // namespace wazi::bench::workloads

#endif  // WAZI_BENCH_WORKLOADS_LOAD_DRIVER_H_
