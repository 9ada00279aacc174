#include "workloads/load_driver.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <deque>
#include <exception>
#include <future>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "common/timer.h"
#include "net/wire_client.h"

namespace wazi::bench::workloads {
namespace {

constexpr size_t kLatencyWindow = size_t{1} << 16;  // samples per client
constexpr int kHotPct = 90;

// Insert ids must never collide with dataset ids (generators assign
// 0..n-1) or with an earlier run against the same server.
std::atomic<int64_t> g_next_insert_id{int64_t{1} << 40};

// One client's counters, merged after the join. Padded to a cache line:
// every op bumps its own client's tally.
struct alignas(64) Tally {
  int64_t queries = 0;
  int64_t writes = 0;
  int64_t errors = 0;
  LatencyRecorder latencies{kLatencyWindow};
};

// The skeleton every load runs on: thread t runs client(t, rng, stop,
// tally) once the start latch opens, until `stop` is set.
template <typename Client>
LoadResult RunClients(int threads, double seconds, uint64_t seed,
                      const std::function<void(int)>& spawn_hook,
                      const Client& client) {
  const size_t n = static_cast<size_t>(std::max(1, threads));
  std::atomic<size_t> ready{0};
  std::atomic<bool> start{false};
  std::atomic<bool> stop{false};
  std::vector<Tally> tallies(n);
  std::vector<std::thread> clients;
  clients.reserve(n);
  for (size_t t = 0; t < n; ++t) {
    clients.emplace_back([&, t] {
      Rng rng(seed + t);
      // relaxed: only the count matters; the clients share no set-up.
      ready.fetch_add(1, std::memory_order_relaxed);
      // acquire: pairs with the release-store below so clients see the
      // set-up; stop is a plain flag (relaxed).
      while (!start.load(std::memory_order_acquire)) {
        std::this_thread::yield();
      }
      client(static_cast<int>(t), rng, stop, tallies[t]);
    });
    if (spawn_hook) spawn_hook(static_cast<int>(t));
  }

  // Every client parked at the latch, then the clock, then the latch
  // opens: neither an op nor a thread's start-up lands outside the timed
  // window (start-up is slow under sanitizers).
  while (ready.load(std::memory_order_relaxed) < n) std::this_thread::yield();
  Timer wall;
  start.store(true, std::memory_order_release);
  std::this_thread::sleep_for(
      std::chrono::microseconds(static_cast<int64_t>(seconds * 1e6)));
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& c : clients) c.join();

  LoadResult result;
  result.elapsed_seconds = wall.ElapsedSeconds();
  // Sized to hold every client's retained window, so merging loses nothing.
  result.latencies = LatencyRecorder(kLatencyWindow * n);
  for (const Tally& tally : tallies) {
    result.queries += tally.queries;
    result.writes += tally.writes;
    result.errors += tally.errors;
    result.latencies.Merge(tally.latencies);
  }
  return result;
}

// One client's end of the transport: how a range, insert or remove is
// issued and how a pipelined read is collected. Each op returns false
// when it failed.
class Session {
 public:
  explicit Session(serve::ServeLoop* loop) : loop_(loop) {}
  explicit Session(std::unique_ptr<net::WireClient> wire)
      : wire_(std::move(wire)) {}

  bool Range(const Rect& q) {
    if (loop_ != nullptr) {
      loop_->Range(q, &stats_);
      return true;
    }
    return Collect(wire_->SubmitRange(q));
  }

  std::future<serve::QueryResult> SubmitRange(const Rect& q) {
    return loop_ != nullptr
               ? loop_->SubmitQuery(serve::QueryRequest::Range(q))
               : wire_->SubmitRange(q);
  }

  static bool Collect(std::future<serve::QueryResult> future) {
    try {
      future.get();
      return true;
    } catch (const std::exception&) {
      return false;
    }
  }

  // Writes return once enqueued on either transport (a wire ack resolves
  // on the connection's reader thread and is not awaited); a dead wire
  // connection is the only failure the client sees.
  bool Insert(const Point& p) {
    if (loop_ != nullptr) {
      loop_->SubmitInsert(p);
      return true;
    }
    wire_->SubmitInsert(p);
    return wire_->connected();
  }

  bool Remove(const Point& p) {
    if (loop_ != nullptr) {
      loop_->SubmitRemove(p);
      return true;
    }
    wire_->SubmitRemove(p);
    return wire_->connected();
  }

 private:
  serve::ServeLoop* loop_ = nullptr;
  std::unique_ptr<net::WireClient> wire_;
  QueryStats stats_;
};

// The op mix of RunLoad for client t.
void DriveMix(Session& session, const Workload& workload,
              const LoadOptions& opts, int t, Rng& rng,
              const std::atomic<bool>& stop, Tally& tally) {
  const std::vector<Rect>& queries = workload.queries;
  size_t qi = static_cast<size_t>(t) * 1337;
  size_t hot_i = static_cast<size_t>(t) * 13;
  const size_t hot_n =
      opts.hot_fraction > 0.0
          ? std::max<size_t>(1, static_cast<size_t>(
                                    static_cast<double>(queries.size()) *
                                    opts.hot_fraction))
          : 0;
  struct InFlight {
    Timer timer;
    std::future<serve::QueryResult> future;
  };
  std::deque<InFlight> in_flight;
  // Counts one finished op into `done`, or into errors when it failed.
  const auto count = [&tally](bool ok, int64_t& done) {
    ++(ok ? done : tally.errors);
    return ok;
  };
  const auto collect_oldest = [&] {
    InFlight& oldest = in_flight.front();
    const bool ok = Session::Collect(std::move(oldest.future));
    if (ok) tally.latencies.Record(oldest.timer.ElapsedNs());
    in_flight.pop_front();
    return count(ok, tally.queries);
  };
  std::vector<Point> inserted;
  bool ok = true;
  while (ok && !stop.load(std::memory_order_relaxed)) {
    if (opts.write_pct > 0 &&
        static_cast<int>(rng.NextBelow(100)) < opts.write_pct) {
      if (inserted.size() > 64) {
        ok = session.Remove(inserted.back());
        inserted.pop_back();
      } else {
        const Rect& reg = opts.insert_region;
        // relaxed: the counter only needs to hand out unique ids.
        const Point p{
            reg.min_x + rng.NextDouble() * (reg.max_x - reg.min_x),
            reg.min_y + rng.NextDouble() * (reg.max_y - reg.min_y),
            g_next_insert_id.fetch_add(1, std::memory_order_relaxed)};
        ok = session.Insert(p);
        inserted.push_back(p);
      }
      count(ok, tally.writes);
      continue;
    }
    const bool hot =
        hot_n > 0 && static_cast<int>(rng.NextBelow(100)) < kHotPct;
    const Rect& q =
        hot ? queries[hot_i++ % hot_n] : queries[qi++ % queries.size()];
    if (opts.read_hook) opts.read_hook(t, hot, q);
    if (opts.pipeline_depth <= 0) {
      Timer timer;
      ok = session.Range(q);
      if (ok) tally.latencies.Record(timer.ElapsedNs());
      count(ok, tally.queries);
      continue;
    }
    in_flight.push_back(InFlight{Timer(), session.SubmitRange(q)});
    // Collect already-resolved reads first (FIFO), so latency tracks
    // submit -> ready rather than time spent queued while this client
    // was busy submitting; block on the oldest only once the pipeline is
    // full, which keeps it primed so the admission dispatcher finds this
    // client's next reads queued when a batch completes.
    while (ok && !in_flight.empty() &&
           in_flight.front().future.wait_for(std::chrono::seconds(0)) ==
               std::future_status::ready) {
      ok = collect_oldest();
    }
    while (ok &&
           in_flight.size() >= static_cast<size_t>(opts.pipeline_depth)) {
      ok = collect_oldest();
    }
  }
  while (!in_flight.empty()) collect_oldest();
}

}  // namespace

LoadResult RunLoad(const Transport& transport, const Workload& workload,
                   const LoadOptions& opts) {
  const int threads = std::max(1, opts.threads);
  serve::ServeLoop* const* loop = std::get_if<serve::ServeLoop*>(&transport);
  std::vector<Session> sessions;
  sessions.reserve(static_cast<size_t>(threads));
  if (loop != nullptr) {
    for (int t = 0; t < threads; ++t) sessions.emplace_back(*loop);
  } else {
    // Connect every client before the clock starts: a failed connect
    // aborts the run instead of measuring a partial fleet.
    const WireEndpoint& endpoint = std::get<WireEndpoint>(transport);
    LoadResult refused;
    for (int t = 0; t < threads; ++t) {
      std::string error;
      auto client =
          net::WireClient::Connect(endpoint.host, endpoint.port, &error);
      if (client == nullptr) {
        ++refused.errors;
      } else {
        sessions.emplace_back(std::move(client));
      }
    }
    if (refused.errors > 0) return refused;
  }

  LoadResult result = RunClients(
      threads, opts.seconds, opts.seed, opts.spawn_hook,
      [&](int t, Rng& rng, const std::atomic<bool>& stop, Tally& tally) {
        DriveMix(sessions[static_cast<size_t>(t)], workload, opts, t, rng,
                 stop, tally);
      });
  if (loop != nullptr) (*loop)->Flush();
  return result;
}

LoadResult RunOps(int threads, double seconds, uint64_t seed,
                  const std::function<OpOutcome(int, Rng&)>& op) {
  return RunClients(
      threads, seconds, seed, nullptr,
      [&op](int t, Rng& rng, const std::atomic<bool>& stop, Tally& tally) {
        while (!stop.load(std::memory_order_relaxed)) {
          Timer timer;
          const OpOutcome outcome = op(t, rng);
          tally.latencies.Record(timer.ElapsedNs());
          switch (outcome) {
            case OpOutcome::kRead: ++tally.queries; break;
            case OpOutcome::kWrite: ++tally.writes; break;
            case OpOutcome::kError: ++tally.errors; break;
          }
        }
      });
}

}  // namespace wazi::bench::workloads
