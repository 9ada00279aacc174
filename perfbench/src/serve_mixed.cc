// serve_mixed: an open loop over loopback TCP at a fixed offered rate,
// sent from this process over 2 connections to a WireServer in front of a
// ServeLoop (500k NewYork points, 2 shards, 2 engine workers, default
// admission window, 16 MB result cache). 90% reads — 70% ranges at
// 0.0256% selectivity, 90% of them on the hottest 10% of rectangles, and
// 30% point lookups — and 10% position updates (remove then insert of
// the same object). Latency is timed from each request's due time, so a
// stall charges every request scheduled behind it.

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <numeric>
#include <unordered_map>

#include "common/rng.h"
#include "net/wire_client.h"
#include "net/wire_format.h"
#include "net/wire_server.h"
#include "serve/epoch.h"
#include "serve_replay.h"
#include "workload/query_generator.h"
#include "workload/region_generator.h"
#include "workloads.h"

namespace perfbench {
namespace {

using wazi::serve::ServeLoop;

constexpr size_t kPoints = 500'000;
constexpr uint64_t kDataSeed = 3;
constexpr size_t kTrainingQueries = 2'000;
constexpr uint64_t kTrainingSeed = 13;
constexpr size_t kRanges = 4'000;       // distinct timed rectangles
constexpr size_t kHotRanges = 400;      // the hottest 10%
constexpr uint64_t kHotPct = 90;        // share of ranges on the hot set
constexpr int kConnections = 2;
constexpr int kShards = 2;
constexpr int kEngineWorkers = 2;
constexpr size_t kCacheBytes = size_t{16} << 20;
// Offered load over both connections: about half of the wire capacity
// measured on the reference box (see README.md).
constexpr double kOfferedOpsPerSec = 1600.0;
constexpr uint64_t kUpdatePct = 10;     // of all ops
constexpr uint64_t kRangePctOfReads = 70;
constexpr size_t kMovers = 5'000;       // objects that position updates move
constexpr double kMoveSigma = 0.002;    // step size, share of domain width
constexpr size_t kVisibleEvery = 4;     // sampled inserts per move
// A mover is not moved again within this much schedule time, so a sampled
// insert stays at its position long enough to become visible.
constexpr int64_t kMinRemoveNs = 1'000'000'000;
constexpr uint32_t kTraceEvery = 8;
constexpr size_t kRangeCheckEvery = 16;
constexpr size_t kMaxRangeChecks = 256;  // per connection
constexpr int kSetups = 3;
// Validity of the open loop. A rate above capacity shows as a backlog that
// grows for the whole window: more than kMaxBacklog requests still
// outstanding on a connection when its schedule ends. A generator that
// cannot send on time (p99 lateness above kMaxLateP99Ns, far beyond
// scheduler wake-up noise) measures nothing. Either way the run is
// rejected instead of reported as a latency.
constexpr int64_t kMaxLateP99Ns = 50'000'000;
constexpr int64_t kMaxBacklog = 200;
constexpr int64_t kDrainTimeoutNs = 20'000'000'000;

struct Inputs {
  wazi::Dataset data;
  wazi::Workload training;
  wazi::Workload ranges;      // first kHotRanges are the hot set
  std::vector<uint32_t> movers;       // data indices of moving objects
  std::vector<uint32_t> static_idx;   // every other data index
};

Inputs MakeInputs(uint64_t seed) {
  Inputs in;
  in.data = wazi::GenerateRegion(wazi::Region::kNewYork, kPoints, kDataSeed);
  CheckinQueries(wazi::Region::kNewYork, in.data.bounds,
                 wazi::kSelectivityMid2, kTrainingSeed, kTrainingQueries,
                 kRanges, seed, &in.training, &in.ranges);
  std::vector<uint32_t> order(kPoints);
  std::iota(order.begin(), order.end(), 0u);
  wazi::Rng shuffle(SubSeed(seed, 2));
  for (size_t i = order.size() - 1; i > 0; --i) {
    std::swap(order[i], order[shuffle.NextBelow(i + 1)]);
  }
  in.movers.assign(order.begin(), order.begin() + kMovers);
  in.static_idx.assign(order.begin() + kMovers, order.end());
  return in;
}

// One scheduled request of a connection's open-loop stream.
struct WireOp {
  enum class Kind : uint8_t { kRange, kPoint, kMove };
  Kind kind = Kind::kRange;
  uint32_t rect = 0;  // kRange: index into Inputs::ranges
  wazi::Point point;  // kPoint: target; kMove: new position
  wazi::Point from;   // kMove: old position (same id)
  int64_t due_ns = 0; // offset from the phase start
};

// A connection's deterministic op stream: Poisson arrivals at half the
// offered rate, each op drawn from the mix. Moves walk this connection's
// share of the movers; a move takes effect in the stream's position table
// and log only when it is sent (Pop), so an op generated but left for the
// next phase is not counted as sent.
class OpStream {
 public:
  OpStream(const Inputs& in, uint64_t seed, int connection)
      : in_(in), rng_(SubSeed(seed, 200 + static_cast<uint64_t>(connection))) {
    for (size_t m = static_cast<size_t>(connection); m < in.movers.size();
         m += kConnections) {
      const wazi::Point& p = in.data.points[in.movers[m]];
      pos_.push_back(p);
      log_[p.id].push_back(p);
    }
    last_move_ns_.assign(pos_.size(), 0);
    next_ = Generate();
  }

  // The next op; its due_ns counts from the start of the current phase.
  WireOp Peek() const {
    WireOp op = next_;
    op.due_ns -= phase_origin_ns_;
    return op;
  }
  void Pop() {
    if (next_.kind == WireOp::Kind::kMove) {
      pos_[next_mover_] = next_.point;
      log_[next_.point.id].push_back(next_.point);
    }
    next_ = Generate();
  }
  // Starts the next phase `phase_ns` after the current one started.
  void EndPhase(int64_t phase_ns) { phase_origin_ns_ += phase_ns; }

  // Every position each of this connection's movers has been sent to.
  const std::unordered_map<int64_t, std::vector<wazi::Point>>& log() const {
    return log_;
  }
  // Each mover's last sent position.
  const std::vector<wazi::Point>& positions() const { return pos_; }

 private:
  WireOp Generate() {
    WireOp op;
    const double rate = kOfferedOpsPerSec / kConnections;
    t_ns_ += -std::log(1.0 - rng_.NextDouble()) / rate * 1e9;
    op.due_ns = static_cast<int64_t>(t_ns_);
    if (rng_.NextBelow(100) < kUpdatePct) {
      op.kind = WireOp::Kind::kMove;
      do {
        next_mover_ = rng_.NextBelow(pos_.size());
      } while (last_move_ns_[next_mover_] > 0 &&
               op.due_ns - last_move_ns_[next_mover_] < kMinRemoveNs);
      last_move_ns_[next_mover_] = op.due_ns;
      const wazi::Point& cur = pos_[next_mover_];
      const wazi::Rect& d = in_.data.bounds;
      const double step = kMoveSigma * (d.max_x - d.min_x);
      op.from = cur;
      op.point = cur;
      op.point.x = std::clamp(cur.x + step * rng_.NextGaussian(), d.min_x,
                              d.max_x);
      op.point.y = std::clamp(cur.y + step * rng_.NextGaussian(), d.min_y,
                              d.max_y);
    } else if (rng_.NextBelow(100) < kRangePctOfReads) {
      op.kind = WireOp::Kind::kRange;
      op.rect = rng_.NextBelow(100) < kHotPct
                    ? static_cast<uint32_t>(rng_.NextBelow(kHotRanges))
                    : static_cast<uint32_t>(
                          kHotRanges + rng_.NextBelow(kRanges - kHotRanges));
    } else {
      op.kind = WireOp::Kind::kPoint;
      const size_t i = rng_.NextBelow(in_.static_idx.size());
      op.point = in_.data.points[in_.static_idx[i]];
    }
    return op;
  }

  const Inputs& in_;
  wazi::Rng rng_;
  double t_ns_ = 0.0;
  int64_t phase_origin_ns_ = 0;
  WireOp next_;
  size_t next_mover_ = 0;
  std::vector<int64_t> last_move_ns_;  // schedule time of each mover's move
  std::vector<wazi::Point> pos_;
  std::unordered_map<int64_t, std::vector<wazi::Point>> log_;
};

// The serving side plus its clients; built as one unit so setup_s times
// what a deployment pays before it can answer.
struct Stack {
  std::unique_ptr<ServeLoop> loop;
  std::unique_ptr<wazi::net::WireServer> server;
  std::vector<std::unique_ptr<wazi::net::WireClient>> clients;
  std::string error;
};

std::unique_ptr<Stack> Setup(const Inputs& in, double* seconds) {
  auto stack = std::make_unique<Stack>();
  wazi::serve::ServeOptions opts;
  opts.num_shards = kShards;
  opts.num_threads = kEngineWorkers;
  opts.auto_rebuild = false;
  opts.cache.capacity_bytes = kCacheBytes;
  const int64_t t0 = NowNs();
  stack->loop = std::make_unique<ServeLoop>(
      [] { return MakeServedIndex(); }, in.data, in.training,
      wazi::BuildOptions{}, opts);
  stack->server = std::make_unique<wazi::net::WireServer>(stack->loop.get());
  if (!stack->server->Start(&stack->error)) return stack;
  for (int c = 0; c < kConnections; ++c) {
    auto client = wazi::net::WireClient::Connect(
        "127.0.0.1", stack->server->port(), &stack->error);
    if (client == nullptr) return stack;
    stack->clients.push_back(std::move(client));
  }
  *seconds = static_cast<double>(NowNs() - t0) / 1e9;
  return stack;
}

void Teardown(std::unique_ptr<Stack> stack) {
  for (auto& c : stack->clients) c->Close();
  stack->clients.clear();
  if (stack->server != nullptr) stack->server->Stop();
  stack->server.reset();
  stack->loop.reset();
}

// A sent request awaiting its response.
struct InFlight {
  WireOp op;
  int64_t due_abs = 0;
  int64_t send_ns = 0;
  std::future<wazi::serve::QueryResult> query;
  std::future<void> remove;
  std::future<void> insert;
};

// A completed traced op handed to the replay thread.
struct Completed {
  WireOp op;
  int64_t send_ns = 0;
  int64_t done_ns = 0;
  wazi::serve::QueryResult result;
};

// Per-connection client-side results.
struct ConnResult {
  LatencyLog range;
  LatencyLog point;
  LatencyLog late;
  int64_t reads = 0;
  int64_t writes = 0;
  int64_t attempted = 0;
  int64_t failed = 0;
  int64_t wire_errors = 0;  // exceptions: wire error or dropped connection
  int64_t not_found = 0;    // a stored point reported absent
  int64_t backlog_at_end = 0;
  std::vector<RangeCheck> checks;
};

// Replays traced ops layer by layer on its own thread, so the collectors'
// completion stamps stay clean.
class Replayer {
 public:
  Replayer(ServeLoop* loop, const Inputs* in)
      : loop_(loop), in_(in), rec_(1), thread_([this] { Loop(); }) {}
  ~Replayer() { Finish(); }
  Replayer(const Replayer&) = delete;
  Replayer& operator=(const Replayer&) = delete;

  void Add(Completed c) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      queue_.push_back(std::move(c));
    }
    cv_.notify_one();
  }
  void Finish() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_one();
    if (thread_.joinable()) thread_.join();
  }
  // Valid after Finish.
  const SpanRecorder& recorder() const { return rec_; }
  int64_t failed() const { return failed_; }
  int64_t attempted() const { return attempted_; }

 private:
  void Loop() {
    for (;;) {
      Completed c;
      {
        std::unique_lock<std::mutex> lock(mu_);
        cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
        if (queue_.empty()) return;
        c = std::move(queue_.front());
        queue_.pop_front();
      }
      Replay(c);
    }
  }

  void Replay(const Completed& c) {
    namespace net = wazi::net;
    const wazi::serve::ShardedVersionedIndex& index = loop_->sharded_index();
    std::string req;
    std::string resp;
    int32_t root = -1;
    int64_t e0 = 0, e1 = 0;
    ++attempted_;
    switch (c.op.kind) {
      case WireOp::Kind::kPoint: {
        root = rec_.Root(SpanName::kWirePoint, c.send_ns, c.done_ns);
        e0 = NowNs();
        net::EncodePointQuery(1, c.op.point, &req);
        e1 = NowNs();
        const int64_t s0 = NowNs();
        const wazi::serve::QueryResult r =
            loop_->SubmitQuery(
                      wazi::serve::QueryRequest::PointLookup(c.op.point))
                .get();
        const int64_t s1 = NowNs();
        const int32_t submit = rec_.Child(root, SpanName::kSubmit, s0, s1);
        if (!ReplayPoint(index, c.op.point, submit, &rec_) || !r.found) {
          ++failed_;
        }
        net::EncodePointResult(1, c.result, &resp);
        break;
      }
      case WireOp::Kind::kRange: {
        const wazi::Rect& rect = in_->ranges.queries[c.op.rect];
        root = rec_.Root(SpanName::kWireRange, c.send_ns, c.done_ns);
        e0 = NowNs();
        net::EncodeRangeQuery(1, rect, &req);
        e1 = NowNs();
        std::vector<wazi::Point> probe;
        const auto topo = index.AcquireTopology();
        const int64_t p0 = NowNs();
        loop_->result_cache().Lookup(rect, *topo, nullptr, &probe);
        const int64_t p1 = NowNs();
        rec_.Child(root, SpanName::kCacheProbe, p0, p1);
        std::vector<wazi::Point> direct;
        ReplayRange(index, rect, root, &rec_, &direct);
        net::EncodeHitsResult(net::MsgType::kRangeResult, 1, c.result, &resp);
        break;
      }
      case WireOp::Kind::kMove: {
        root = rec_.Root(SpanName::kWireWrite, c.send_ns, c.done_ns);
        e0 = NowNs();
        net::EncodeRemove(1, c.op.from, &req);
        net::EncodeInsert(2, c.op.point, &req);
        e1 = NowNs();
        const int64_t f0 = NowNs();
        loop_->Flush();
        const int64_t f1 = NowNs();
        rec_.Child(root, SpanName::kFlush, f0, f1);
        net::EncodeUpdateAck(1, &resp);
        net::EncodeUpdateAck(2, &resp);
        break;
      }
    }
    rec_.Child(root, SpanName::kRequestEncode, e0, e1);
    // Decode exactly the bytes the server sent for this op.
    net::FrameDecoder decoder(size_t{64} << 20);
    decoder.Feed(resp.data(), resp.size());
    net::Frame frame;
    net::WireResponse decoded;
    const int64_t d0 = NowNs();
    while (decoder.Next(&frame) == net::FrameDecoder::Status::kFrame) {
      if (!net::DecodeResponse(frame, &decoded)) ++failed_;
    }
    const int64_t d1 = NowNs();
    rec_.Child(root, SpanName::kResponseDecode, d0, d1);
    rec_.Count("response_bytes", static_cast<double>(resp.size()));
  }

  ServeLoop* loop_;
  const Inputs* in_;
  SpanRecorder rec_;
  int64_t failed_ = 0;
  int64_t attempted_ = 0;
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Completed> queue_;
  bool stop_ = false;
  std::thread thread_;
};

// Collects one connection's responses in send order (the server answers
// each connection in request order), timing each from its due time.
void Collect(std::deque<InFlight>* queue, std::mutex* mu,
             std::condition_variable* cv, const bool* done_sending,
             VisibilityProber* prober, Replayer* replayer,
             uint32_t trace_every, ConnResult* out) {
  uint64_t tick = 0;
  size_t ranges = 0;
  size_t moves = 0;
  for (;;) {
    InFlight f;
    {
      std::unique_lock<std::mutex> lock(*mu);
      cv->wait(lock, [&] { return *done_sending || !queue->empty(); });
      if (queue->empty()) return;
      f = std::move(queue->front());
      queue->pop_front();
    }
    Completed c;
    bool ok = true;
    try {
      switch (f.op.kind) {
        case WireOp::Kind::kRange:
        case WireOp::Kind::kPoint:
          c.result = f.query.get();
          break;
        case WireOp::Kind::kMove:
          f.remove.get();
          f.insert.get();
          break;
      }
    } catch (const std::exception&) {
      ok = false;  // wire error or dropped connection
    }
    const int64_t done = NowNs();
    const int64_t latency = done - f.due_abs;
    switch (f.op.kind) {
      case WireOp::Kind::kRange:
        ++out->attempted;
        if (!ok) break;
        ++out->reads;
        out->range.Record(latency);
        if (ranges++ % kRangeCheckEvery == 0 &&
            out->checks.size() < kMaxRangeChecks) {
          out->checks.push_back(RangeCheck{f.op.rect, c.result.hits, 0});
        }
        break;
      case WireOp::Kind::kPoint:
        ++out->attempted;
        if (!ok) break;
        ++out->reads;
        out->point.Record(latency);
        if (!c.result.found) {
          ++out->failed;
          ++out->not_found;
        }
        break;
      case WireOp::Kind::kMove:
        out->attempted += 2;
        if (!ok) break;
        out->writes += 2;
        if (moves++ % kVisibleEvery == 0) prober->Add(f.op.point, done);
        break;
    }
    if (!ok) {
      const int n = f.op.kind == WireOp::Kind::kMove ? 2 : 1;
      out->failed += n;
      out->wire_errors += n;
      continue;
    }
    if (replayer != nullptr && ++tick % trace_every == 0) {
      c.op = f.op;
      c.send_ns = f.send_ns;
      c.done_ns = done;
      replayer->Add(std::move(c));
    }
  }
}

// Sends one connection's schedule until `end_ns` (absolute), handing each
// request to the collector.
void Send(wazi::net::WireClient* client, const Inputs& in, OpStream* stream,
          int64_t start_ns, int64_t end_ns, std::deque<InFlight>* queue,
          std::mutex* mu, std::condition_variable* cv, ConnResult* out) {
  for (;;) {
    const WireOp op = stream->Peek();
    const int64_t due = start_ns + op.due_ns;
    if (due >= end_ns) break;
    stream->Pop();
    const int64_t now = NowNs();
    if (due > now) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(due - now));
    }
    InFlight f;
    f.op = op;
    f.due_abs = due;
    f.send_ns = NowNs();
    out->late.Record(f.send_ns - due);
    switch (op.kind) {
      case WireOp::Kind::kRange:
        f.query = client->SubmitRange(in.ranges.queries[op.rect]);
        break;
      case WireOp::Kind::kPoint:
        f.query = client->SubmitPoint(op.point);
        break;
      case WireOp::Kind::kMove:
        f.remove = client->SubmitRemove(op.from);
        f.insert = client->SubmitInsert(op.point);
        break;
    }
    {
      std::lock_guard<std::mutex> lock(*mu);
      queue->push_back(std::move(f));
    }
    cv->notify_one();
  }
  stream->EndPhase(end_ns - start_ns);
  std::lock_guard<std::mutex> lock(*mu);
  out->backlog_at_end = static_cast<int64_t>(queue->size());
}

// Serve-layer counter deltas over one phase.
struct LayerCounters {
  double admission_mean_batch = 0.0;
  double cache_hit_ratio = 0.0;
  double cache_invalidation_ratio = 0.0;
  double writer_ops_per_publish = 0.0;
  int64_t stall_copies = 0;
};

struct MixedPhase {
  PhaseResult phase;
  LatencyLog late;
  LayerCounters counters;
  std::string invalid;  // why the open loop did not hold its rate
};

// One measured phase: every connection's schedule for `seconds`, then a
// drain of the outstanding responses, into `results` (one per connection)
// and `out`. With `replayer`, every kTraceEvery-th completed op is
// replayed layer by layer.
void RunPhase(Stack& stack, const Inputs& in, std::vector<OpStream>* streams,
              int seconds, Replayer* replayer,
              std::vector<ConnResult>* results,
              std::vector<RangeCheck>* checks, MixedPhase* out,
              Report* report) {
  ServeLoop& loop = *stack.loop;
  const wazi::serve::AdmissionStats adm0 = loop.admission_stats();
  const wazi::serve::ResultCacheStats cache0 = loop.cache_stats();
  const int64_t publishes0 =
      CounterValue(loop, "serve_snapshot_publishes_total");
  const int64_t stalls0 = CounterValue(loop, "serve_stall_copies_total");

  VisibilityProber prober(
      [&loop](const wazi::Point& p) { return loop.PointLookup(p); });
  struct Conn {
    std::deque<InFlight> queue;
    std::mutex mu;
    std::condition_variable cv;
    bool done_sending = false;
    std::atomic<bool> collected{false};  // the collector has returned
    ConnResult* result = nullptr;
  };
  std::vector<Conn> conns(kConnections);
  for (int c = 0; c < kConnections; ++c) {
    conns[static_cast<size_t>(c)].result = &(*results)[static_cast<size_t>(c)];
  }
  const int64_t start = NowNs() + 50'000'000;
  const int64_t end = start + int64_t{seconds} * 1'000'000'000;
  std::vector<std::thread> collectors;
  std::vector<std::thread> senders;
  for (int c = 0; c < kConnections; ++c) {
    Conn& conn = conns[static_cast<size_t>(c)];
    collectors.emplace_back([&conn, &prober, replayer] {
      Collect(&conn.queue, &conn.mu, &conn.cv, &conn.done_sending, &prober,
              replayer, kTraceEvery, conn.result);
      // release: the drain loop below reads the result after seeing this.
      conn.collected.store(true, std::memory_order_release);
    });
    senders.emplace_back([&stack, &in, streams, &conn, c, start, end] {
      Send(stack.clients[static_cast<size_t>(c)].get(), in,
           &(*streams)[static_cast<size_t>(c)], start, end, &conn.queue,
           &conn.mu, &conn.cv, conn.result);
    });
  }
  for (std::thread& t : senders) t.join();
  for (Conn& conn : conns) {
    {
      std::lock_guard<std::mutex> lock(conn.mu);
      conn.done_sending = true;
    }
    conn.cv.notify_one();
  }
  // A response that never comes would hang its collector; bound the drain
  // and close the connections (failing every pending future) past it.
  const int64_t drain_deadline = NowNs() + kDrainTimeoutNs;
  bool drained = false;
  while (!drained && NowNs() < drain_deadline) {
    drained = true;
    for (Conn& conn : conns) {
      drained = drained && conn.collected.load(std::memory_order_acquire);
    }
    if (!drained) std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  if (!drained) {
    for (auto& client : stack.clients) client->Close();
  }
  for (std::thread& t : collectors) t.join();
  prober.Finish();

  for (Conn& conn : conns) {
    ConnResult& r = *conn.result;
    out->phase.range.Merge(r.range);
    out->phase.point.Merge(r.point);
    out->late.Merge(r.late);
    out->phase.reads += r.reads;
    out->phase.writes += r.writes;
    report->attempted += r.attempted;
    report->failed += r.failed;
    checks->insert(checks->end(), std::make_move_iterator(r.checks.begin()),
                   std::make_move_iterator(r.checks.end()));
    if (r.backlog_at_end > kMaxBacklog) {
      out->invalid = "backlog of " + std::to_string(r.backlog_at_end) +
                    " requests when the schedule ended";
    }
  }
  int64_t wire_errors = 0, not_found = 0;
  for (const Conn& conn : conns) {
    wire_errors += conn.result->wire_errors;
    not_found += conn.result->not_found;
  }
  char buf[200];
  std::snprintf(buf, sizeof(buf),
                "phase failures: %lld wire errors, %lld stored points not "
                "found, %lld inserts never visible",
                static_cast<long long>(wire_errors),
                static_cast<long long>(not_found),
                static_cast<long long>(prober.lost()));
  report->Note(buf);
  out->phase.read_seconds = static_cast<double>(end - start) / 1e9;
  out->phase.write_rates.push_back(static_cast<double>(out->phase.writes) /
                                 out->phase.read_seconds);
  out->phase.visible_ns = prober.samples();
  report->attempted += prober.probed();
  report->failed += prober.lost();
  if (!drained) out->invalid = "responses still outstanding after the drain";
  const int64_t late_p99 = out->late.PercentileNs(99);
  if (late_p99 > kMaxLateP99Ns) {
    out->invalid = "generator ran " + std::to_string(late_p99 / 1000) +
                  " us late at p99";
  }

  const wazi::serve::AdmissionStats adm = loop.admission_stats();
  const wazi::serve::ResultCacheStats cache = loop.cache_stats();
  LayerCounters& k = out->counters;
  const int64_t batches = adm.batches - adm0.batches;
  if (batches > 0) {
    k.admission_mean_batch =
        static_cast<double>(adm.dispatched - adm0.dispatched) /
        static_cast<double>(batches);
  }
  const int64_t lookups = cache.lookups() - cache0.lookups();
  if (lookups > 0) {
    k.cache_hit_ratio = static_cast<double>(cache.hits - cache0.hits) /
                        static_cast<double>(lookups);
    k.cache_invalidation_ratio =
        static_cast<double>(cache.invalidations - cache0.invalidations) /
        static_cast<double>(lookups);
  }
  const int64_t publishes =
      CounterValue(loop, "serve_snapshot_publishes_total") - publishes0;
  if (publishes > 0) {
    k.writer_ops_per_publish = static_cast<double>(out->phase.writes) /
                               static_cast<double>(publishes);
  }
  k.stall_copies = CounterValue(loop, "serve_stall_copies_total") - stalls0;
}

// Checks the sampled range results: static points must match a full scan
// of the static data exactly; a moving object may appear only at a
// position it was sent to (per-shard snapshots may show it at an older
// position, at two positions across shards, or not at all mid-move).
int64_t RangeMismatches(const Inputs& in, const std::vector<OpStream>& streams,
                        const std::vector<RangeCheck>& checks) {
  wazi::Dataset fixed;
  fixed.points.reserve(in.static_idx.size());
  for (const uint32_t i : in.static_idx) {
    fixed.points.push_back(in.data.points[i]);
  }
  std::unordered_map<int64_t, const std::vector<wazi::Point>*> log;
  for (const OpStream& s : streams) {
    for (const auto& [id, positions] : s.log()) log[id] = &positions;
  }
  int64_t mismatches = 0;
  for (const RangeCheck& c : checks) {
    const wazi::Rect& rect = in.ranges.queries[c.query];
    std::vector<wazi::Point> got_static;
    bool bad = false;
    for (const wazi::Point& p : c.got) {
      const auto it = log.find(p.id);
      if (it == log.end()) {
        got_static.push_back(p);
        continue;
      }
      const std::vector<wazi::Point>& sent = *it->second;
      const bool known =
          std::any_of(sent.begin(), sent.end(), [&](const wazi::Point& q) {
            return q.x == p.x && q.y == p.y;
          });
      bad = bad || !known || !rect.Contains(p);
    }
    bad = bad ||
          SortedIds(got_static) != SortedIds(wazi::ScanRange(fixed, rect));
    mismatches += bad ? 1 : 0;
  }
  return mismatches;
}

}  // namespace

uint64_t ServeMixedDigest(uint64_t seed) {
  const Inputs in = MakeInputs(seed);
  Digest d;
  d.Add(in.data.points);
  d.Add(in.training.queries);
  d.Add(in.ranges.queries);
  d.Add(in.movers.data(), in.movers.size() * sizeof(in.movers[0]));
  for (int c = 0; c < kConnections; ++c) {
    OpStream stream(in, seed, c);
    for (int i = 0; i < 100'000; ++i) {
      const WireOp op = stream.Peek();
      stream.Pop();
      d.Add(&op.kind, sizeof(op.kind));
      d.Add(&op.rect, sizeof(op.rect));
      d.Add(&op.point, sizeof(op.point));
      d.Add(&op.from, sizeof(op.from));
      d.Add(&op.due_ns, sizeof(op.due_ns));
    }
  }
  return d.value();
}

Report RunServeMixed(const Args& args) {
  Report report;
  report.Param("region", "NewYork");
  report.Param("points", static_cast<double>(kPoints));
  report.Param("shards", static_cast<double>(kShards));
  report.Param("engine_workers", static_cast<double>(kEngineWorkers));
  report.Param("transport", "loopback TCP, 2 connections, one process");
  report.Param("loop", "open, Poisson arrivals");
  report.Param("offered_ops_per_s", kOfferedOpsPerSec);
  report.Param("update_pct", static_cast<double>(kUpdatePct));
  report.Param("range_pct_of_reads", static_cast<double>(kRangePctOfReads));
  report.Param("range_selectivity", wazi::kSelectivityMid2);
  report.Param("range_rects", static_cast<double>(kRanges));
  report.Param("hot_rects", static_cast<double>(kHotRanges));
  report.Param("hot_pct", static_cast<double>(kHotPct));
  report.Param("movers", static_cast<double>(kMovers));
  report.Param("cache_bytes", static_cast<double>(kCacheBytes));
  report.Param("admission_window_us", "default");
  report.Param("auto_rebuild", "off");
  report.Param("repartition", "off");

  const Inputs in = MakeInputs(args.seed);
  std::vector<OpStream> streams;
  for (int c = 0; c < kConnections; ++c) streams.emplace_back(in, args.seed, c);
  std::vector<RangeCheck> checks;

  // Client-side results (untraced, traced), allocated before the RSS
  // baseline.
  std::vector<ConnResult> conn_results[2] = {
      std::vector<ConnResult>(kConnections),
      std::vector<ConnResult>(kConnections)};
  MixedPhase phases[2];
  const size_t rss_before = CurrentRssBytes();
  std::vector<double> setups(1);
  std::unique_ptr<Stack> stack = Setup(in, &setups[0]);
  if (!stack->error.empty()) {
    report.invalid = "set-up failed: " + stack->error;
    return report;
  }
  ServeLoop& loop = *stack->loop;
  const double index_bytes_per_point =
      IndexBytesPerPoint(loop.sharded_index());
  PeakSampler limbo(
      [] { return wazi::serve::EpochDomain::Global().limbo_size(); });

  std::map<std::string, double> layer;
  const MixedPhase& untraced = phases[0];
  RunPhase(*stack, in, &streams, args.seconds, nullptr, &conn_results[0],
           &checks, &phases[0], &report);
  if (args.trace && untraced.invalid.empty()) {
    Replayer replayer(&loop, &in);
    RunPhase(*stack, in, &streams, args.seconds, &replayer, &conn_results[1],
             &checks, &phases[1], &report);
    replayer.Finish();
    report.attempted += replayer.attempted();
    report.failed += replayer.failed();
    AddTraceOverhead(untraced.phase, phases[1].phase, &layer);
    const TraceSummary sum(replayer.recorder());
    layer["net.request_encode_ns"] =
        sum.MedianSelfNs({SpanName::kRequestEncode});
    layer["net.response_decode_ns"] =
        sum.MedianSelfNs({SpanName::kResponseDecode});
    layer["net.response_bytes_per_op"] = sum.MeanCount("response_bytes");
    layer["net.wire_overhead_us"] =
        sum.MedianSelfNs({SpanName::kWirePoint, SpanName::kRequestEncode,
                          SpanName::kResponseDecode},
                         {SpanName::kWirePoint}) /
        1e3;
    layer["serve.admission_wait_us"] =
        sum.MedianSelfNs({SpanName::kSubmit}) / 1e3;
    layer["serve.flush_ms"] = sum.MedianSelfNs({SpanName::kFlush}) / 1e6;
    layer["serve.topology_pin_ns"] = sum.MedianSelfNs({SpanName::kTopologyPin});
    layer["serve.router_ns"] = sum.MedianSelfNs({SpanName::kRouter});
    layer["serve.snapshot_pin_ns"] = sum.MedianSelfNs({SpanName::kSnapshotPin});
    layer["core.point_locate_ns"] = sum.MedianSelfNs({SpanName::kPointLocate});
    layer["serve.range_fanout"] = sum.MeanCount("range_fanout");
    RangeWorkMetrics(sum, &layer);
    layer["core.index_bytes_per_point"] = index_bytes_per_point;
    // Counters come from the untraced phase: the replay's cache probes
    // and flushes would otherwise count as workload traffic.
    const LayerCounters& k = untraced.counters;
    layer["serve.admission_mean_batch"] = k.admission_mean_batch;
    layer["serve.cache_hit_ratio"] = k.cache_hit_ratio;
    layer["serve.cache_invalidation_ratio"] = k.cache_invalidation_ratio;
    layer["serve.writer_ops_per_publish"] = k.writer_ops_per_publish;
    layer["serve.stall_copies"] = static_cast<double>(k.stall_copies);
    layer["load.late_p99_us"] =
        static_cast<double>(untraced.late.PercentileNs(99)) / 1e3;
    if (!WriteSpans(replayer.recorder(),
                    args.out_dir + "/spans-serve_mixed.tsv")) {
      report.Note("span dump not written");
    }
  }
  layer["serve.epoch_limbo_peak"] = static_cast<double>(limbo.Finish());
  const MixedPhase& phase = phases[args.trace ? 1 : 0];
  const std::string& invalid =
      untraced.invalid.empty() ? phases[1].invalid : untraced.invalid;
  if (!invalid.empty()) {
    report.invalid = "offered rate not sustained: " + invalid;
    Teardown(std::move(stack));
    return report;
  }

  // Every acked move is applied once Flush returns: each mover must be
  // found at its last position and the point count must be unchanged.
  loop.Flush();
  int64_t lost_moves = 0;
  for (const OpStream& s : streams) {
    for (const wazi::Point& p : s.positions()) {
      ++report.attempted;
      if (!loop.PointLookup(p)) ++lost_moves;
    }
  }
  report.failed += lost_moves;
  const size_t live = loop.sharded_index().num_points();
  if (live != kPoints) {
    ++report.failed;
    report.Note("live point count changed under position updates");
  }
  const size_t rss_after = CurrentRssBytes();
  const double bytes_per_point =
      static_cast<double>(rss_after - std::min(rss_after, rss_before)) /
      static_cast<double>(live);
  Teardown(std::move(stack));

  const int64_t mismatches = RangeMismatches(in, streams, checks);
  report.failed += mismatches;
  char buf[240];
  std::snprintf(buf, sizeof(buf),
                "checked %zu sampled range results against a full scan and "
                "the log of sent positions: %lld mismatches; %lld movers "
                "missing at their last position",
                checks.size(), static_cast<long long>(mismatches),
                static_cast<long long>(lost_moves));
  report.Note(buf);
  std::snprintf(buf, sizeof(buf),
                "open loop: late p50 %.1f us, p99 %.1f us",
                static_cast<double>(phase.late.PercentileNs(50)) / 1e3,
                static_cast<double>(phase.late.PercentileNs(99)) / 1e3);
  report.Note(buf);

  if (!args.trace) {
    for (int s = 1; s < kSetups; ++s) {
      double t = 0.0;
      std::unique_ptr<Stack> extra = Setup(in, &t);
      if (!extra->error.empty()) {
        report.invalid = "set-up failed: " + extra->error;
        return report;
      }
      Teardown(std::move(extra));
      setups.push_back(t);
    }
  }
  std::snprintf(buf, sizeof(buf), "setup_s is the median of %zu set-ups",
                setups.size());
  report.Note(buf);
  NoteSamples(phase.phase, &report);
  AddEndToEnd(phase.phase, Median(&setups), bytes_per_point, &report);
  AddPerLayer(layer, &report);
  return report;
}

}  // namespace perfbench
