// perfbench: the serving benchmark. One binary, four workloads, both clocks.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--out <dir>]
//
// Each run generates its inputs from the seed, builds the deployment and
// warms it until plan calibration and arena growth stop (set-up, timed and
// repeated kSetups times), then measures one window of `seconds`. Every
// answer is checked against a std::sort oracle. With --trace 0 the final
// line carries the end-to-end metrics; with --trace 1 the run measures an
// untraced window and then a traced one (bench-side spans around each
// layer call), and the final line carries the per-layer metrics of the
// traced window plus the tracing overhead between the two.
//
// Workloads (README.md records why each exists; BENCHMARK.json gates the
// first three):
//   resident_exact     closed loop over DTK1/TCP, 16 pipelined requests on
//                      one connection, one resident 2^20 corpus, exact
//   adhoc_payloads     closed loop in process, 16 outstanding, every query
//                      owns its payload (UD/ND/CD, u32/u64, both criteria)
//   sharded_mixed      closed loop in process, 16 outstanding, 2-shard
//                      deployment, 2^21 corpus, half exact, half recall 0.9
//   openloop_deadline  open loop over DTK1/TCP at a fixed Poisson rate, two
//                      corpora, every request with a deadline, half allowed
//                      to degrade to recall 0.9
#include <netinet/in.h>
#include <sys/socket.h>

#include <atomic>
#include <future>
#include <memory>
#include <thread>

#include "common.hpp"
#include "data/distributions.hpp"
#include "net/client.hpp"

using namespace perfbench;

namespace {

constexpr u32 kDepth = 16;         ///< outstanding requests, closed loops
constexpr int kSetups = 7;         ///< set-ups per run; setup_s is the median
constexpr u32 kSlices = 10;        ///< window slices behind qps/p50/p99
constexpr u64 kWarmRound = 256;    ///< requests per warm-up round
constexpr int kWarmMaxRounds = 40;
constexpr u64 kIdBase = u64{1} << 40;  ///< measured request ids start here
/// Warm-up traffic is the same in every run, so plan calibration (which
/// keeps whatever it measures for the first query of each shape) resolves
/// the same plans whatever the seed.
constexpr u64 kWarmSeed = 0x3a7d;
/// One k per plan-cache k bucket, visited by the calibration sweeps.
constexpr u64 kSweepKs[] = {16, 32, 64, 128, 256, 512, 1024};
constexpr u64 kSweepLen = std::size(kSweepKs);
/// Open-loop arrival rate: about 0.6x the resident_exact capacity measured
/// on a 4-core host (~1650 qps). Fixed, not derived from a measurement, so
/// every run offers the same load.
constexpr double kOpenRate = 1000.0;
constexpr u64 kOpenDeadlineUs = 20'000;
constexpr u32 kFloorBp = 9000;
const char* const kStages[] = {"calibrate", "construct", "first",
                               "concat",    "second",    "merge"};

/// k drawn log-uniformly from [16, kmax].
u64 log_uniform_k(u64 seed, u64 i, u64 kmax) {
  const double lo = 4.0, hi = std::log2(static_cast<double>(kmax));
  return static_cast<u64>(
      std::llround(std::exp2(lo + (hi - lo) * data::rand_unit(seed, i))));
}

/// Resident corpora are the same in every run; the seed drives the
/// traffic. Plan calibration picks alpha by simulated cost, and on
/// uniform corpora drawn from different seeds it flips between alternatives
/// whose simulated costs nearly tie but whose host cost differs by up to
/// 1.5x (resident_exact, seeds 1-5: 1156-1804 qps at 14.0-14.4 sim us per
/// query). A seed-drawn corpus would make every run measure a different
/// plan mix.
constexpr u64 kCorpusSeed = 0x70b4c0;

std::vector<u32> uniform_corpus(u64 n, u64 seed) {
  std::vector<u32> v(n);
  data::fill_uniform(std::span<u32>(v), seed);
  return v;
}

// ---------------------------------------------------------------------------
// Load generators.

/// One net request plus what judging its answer needs.
struct NetReq {
  u32 corpus = 0;
  u64 k = 1;
  u32 floor_bp = net::kExactBp;
  u64 deadline_us = 0;
};

net::TopkRequest to_wire(u64 id, const NetReq& r) {
  net::TopkRequest w;
  w.request_id = id;
  w.corpus = r.corpus;
  w.k = r.k;
  w.recall_floor_bp = r.floor_bp;
  w.deadline_us = r.deadline_us;
  return w;
}

bool connect_client(net::BlockingClient& cli, u16 port) {
  if (!cli.connect(port)) return false;
  // A response that never comes surfaces as a lost request, not a hang.
  timeval tv{10, 0};
  setsockopt(cli.fd(), SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  return true;
}

/// Files one net response into the tally. `lat_us` is the client-observed
/// latency the end-to-end metrics use (from the due time in the open loop).
void judge_net(const net::TopkResponse& resp, const NetReq& req,
               const Oracle& o, double lat_us, double since_send_us,
               u64 done, Tally& t) {
  switch (resp.status) {
    case net::Status::kOk:
    case net::Status::kDegraded: {
      const bool degraded = resp.status == net::Status::kDegraded;
      if (degraded) ++t.degraded;
      const bool floor_ok = !degraded || (resp.fidelity_bp >= req.floor_bp &&
                                          req.floor_bp < net::kExactBp);
      t.record(o, data::Criterion::kLargest, req.k, false,
               degraded || resp.fidelity_bp != net::kExactBp, resp.values,
               resp.kth, lat_us, done,
               req.deadline_us == 0 ||
                   lat_us <= static_cast<double>(req.deadline_us),
               floor_ok);
      t.server_us.push_back(static_cast<double>(resp.server_us));
      t.client_minus_server_us.push_back(
          since_send_us - static_cast<double>(resp.server_us));
      t.n_sum += static_cast<double>(o.n());
      break;
    }
    case net::Status::kShedOverload:
    case net::Status::kShedDeadline:
    case net::Status::kShedQuota:
    case net::Status::kShedRate: ++t.shed; break;
    case net::Status::kBadRequest:
    case net::Status::kError: ++t.errors; break;
  }
}

/// Closed loop over one pipelined connection: `depth` requests in flight,
/// a new one sent as each answer arrives, until `max_requests` were sent
/// or `seconds` elapsed; then the outstanding ones are drained.
Tally net_closed_loop(u16 port, u32 depth, u64 max_requests, double seconds,
                      u64 id_base, const std::function<NetReq(u64)>& gen,
                      const std::vector<const Oracle*>& oracles,
                      SpanLog& spans) {
  Tally t;
  net::BlockingClient cli;
  if (!connect_client(cli, port)) {
    t.attempted = t.lost = 1;
    return t;
  }
  struct Pending {
    NetReq req;
    u64 t_send = 0;
    u32 root = 0;
    bool done = false;
  };
  std::vector<Pending> pend;
  const u64 t0 = now_ns();
  t.t0_ns = t0;
  t.window_s = seconds;
  const u64 t_end = t0 + static_cast<u64>(seconds * 1e9);
  u64 outstanding = 0;
  const auto send_one = [&] {
    const u64 idx = pend.size();
    Pending p;
    p.req = gen(id_base + idx);
    p.t_send = now_ns();
    p.root = spans.open("request", id_base + idx, 0, p.t_send);
    pend.push_back(p);
    ++t.attempted;
    ScopedSpan s(spans, "net.send", id_base + idx, p.root);
    if (!cli.send(to_wire(id_base + idx, p.req))) return false;
    ++outstanding;
    return true;
  };
  const auto may_send = [&] {
    return pend.size() < max_requests && now_ns() < t_end;
  };
  bool broken = false;
  for (u32 i = 0; i < depth && may_send() && !broken; ++i)
    broken = !send_one();
  while (outstanding > 0 && !broken) {
    const u64 t_wait = now_ns();
    auto resp = cli.recv_response();
    const u64 t_got = now_ns();
    if (!resp) break;
    const u64 idx = resp->request_id - id_base;
    if (resp->request_id < id_base || idx >= pend.size() || pend[idx].done) {
      ++t.lost;  // unknown or duplicate id
      continue;
    }
    Pending& p = pend[idx];
    p.done = true;
    --outstanding;
    spans.close(spans.open("net.recv", resp->request_id, p.root, t_wait),
                t_got);
    {
      ScopedSpan s(spans, "bench.check", resp->request_id, p.root);
      const double lat = static_cast<double>(t_got - p.t_send) / 1e3;
      judge_net(*resp, p.req, *oracles[p.req.corpus], lat, lat, t_got, t);
    }
    spans.close(p.root, t_got);
    if (may_send()) broken = !send_one();
  }
  t.lost += outstanding;
  return t;
}

/// Closed loop in process: `depth` futures outstanding. The generator
/// blocks on the oldest future, then collects every future that is ready
/// and refills; a query finishing out of order is noticed at that wake-up.
template <class Submit, class Judge>
Tally inproc_closed_loop(u32 depth, u64 max_requests, double seconds,
                         u64 id_base, Submit&& submit, Judge&& judge,
                         SpanLog& spans) {
  Tally t;
  struct Slot {
    std::future<serve::QueryResult> f;
    u64 id = 0;
    u64 t0 = 0;
    u32 root = 0;
  };
  std::vector<Slot> slots;
  slots.reserve(depth);
  const u64 t0 = now_ns();
  t.t0_ns = t0;
  t.window_s = seconds;
  const u64 t_end = t0 + static_cast<u64>(seconds * 1e9);
  u64 next = 0;
  const auto refill = [&] {
    while (slots.size() < depth && next < max_requests && now_ns() < t_end) {
      Slot s;
      s.id = id_base + next++;
      s.t0 = now_ns();
      s.root = spans.open("request", s.id, 0, s.t0);
      ++t.attempted;
      try {
        ScopedSpan sp(spans, "serve.submit", s.id, s.root);
        s.f = submit(s.id);
      } catch (...) {
        ++t.errors;
        spans.close(s.root);
        continue;
      }
      slots.push_back(std::move(s));
    }
  };
  refill();
  while (!slots.empty()) {
    {
      ScopedSpan sp(spans, "serve.wait", slots.front().id, slots.front().root);
      slots.front().f.wait();
    }
    const u64 t_got = now_ns();
    for (size_t j = 0; j < slots.size();) {
      Slot& s = slots[j];
      if (s.f.wait_for(std::chrono::seconds(0)) !=
          std::future_status::ready) {
        ++j;
        continue;
      }
      {
        ScopedSpan sp(spans, "bench.check", s.id, s.root);
        try {
          const serve::QueryResult r = s.f.get();
          judge(s.id, r, static_cast<double>(t_got - s.t0) / 1e3, t_got, t);
        } catch (...) {
          ++t.errors;
        }
      }
      spans.close(s.root, t_got);
      slots.erase(slots.begin() + static_cast<std::ptrdiff_t>(j));
    }
    refill();
  }
  return t;
}

// ---------------------------------------------------------------------------
// Workloads.

class Workload {
 public:
  virtual ~Workload() = default;
  /// Generates the inputs from the seed (timed: data.generate_s).
  virtual void generate(u64 seed) = 0;
  /// Builds the oracle (untimed).
  virtual void build_oracle() = 0;
  /// Constructs servers and registers corpora (part of setup_s).
  virtual void build() = 0;
  /// Lockstep sweep, in a fixed order, with one query per request shape:
  /// calibrates every plan from the same first query in every run.
  virtual void calibrate() = 0;
  /// One warm-up round of kWarmSeed traffic through the workload's path.
  virtual void warm_round(u64 round) = 0;
  /// Destroys the deployment built by build().
  virtual void teardown() = 0;
  virtual Deployment deployment() = 0;
  /// One measured window.
  virtual Tally measure(double seconds, SpanLog& main_spans,
                        SpanLog& aux_spans, u64 window) = 0;
  /// Traced run only: the kernel-level metrics from single-threaded calls,
  /// zero where the workload has none. Returns the wrong answers seen.
  virtual u64 direct_layers(Report& rep, SpanLog&) {
    rep.add("core.direct_wall_us.p50", 0, "us");
    rep.add("core.direct_sim_us.p50", 0, "us");
    rep.add("topk.radix_sim_us.p50", 0, "us");
    rep.add("core.speedup_vs_radix_sim", 0, "ratio");
    return 0;
  }
  /// True when every query is exact (enables the histogram fallback for
  /// the per-fidelity simulated latency of net workloads).
  virtual bool exact_only() const = 0;

  /// Calibrates, then warms until plan misses and arena growths stop for
  /// two rounds. Returns the number of rounds run.
  int warm() {
    calibrate();
    int calm = 0, r = 0;
    for (; r < kWarmMaxRounds && calm < 2; ++r) {
      const Snapshot a = snapshot(deployment());
      warm_round(static_cast<u64>(r));
      const Snapshot b = snapshot(deployment());
      const bool quiet = r >= 1 && b.plan_misses == a.plan_misses &&
                         b.ws_growths == a.ws_growths;
      calm = quiet ? calm + 1 : 0;
    }
    return r;
  }

 protected:
  u64 seed_ = 0;
};

/// A TopkServer on its own device, optionally behind the TCP front door.
struct SingleStack {
  std::unique_ptr<vgpu::Device> dev;
  std::unique_ptr<serve::TopkServer> srv;
  std::unique_ptr<net::SingleBackend> backend;
  std::unique_ptr<net::NetServer> front;

  void build(bool with_net) {
    dev = std::make_unique<vgpu::Device>(vgpu::GpuProfile::v100s());
    serve::ServerConfig cfg;
    cfg.executors = 4;
    cfg.batch_max = 16;
    cfg.max_in_flight = 64;
    srv = std::make_unique<serve::TopkServer>(*dev, cfg);
    if (with_net) backend = std::make_unique<net::SingleBackend>(*srv);
  }
  void open_front() { front = std::make_unique<net::NetServer>(*backend); }
  void reset() {
    front.reset();
    backend.reset();
    srv.reset();
    dev.reset();
  }
  Deployment deployment() const {
    Deployment d;
    if (dev) d.devices.push_back(dev.get());
    if (srv) d.servers.push_back(srv.get());
    d.front = front.get();
    return d;
  }
};

// ---- resident_exact -------------------------------------------------------

class ResidentExact : public Workload {
 public:
  void generate(u64 seed) override {
    seed_ = seed;
    corpus_ = uniform_corpus(u64{1} << 20, data::rand_u64(kCorpusSeed, 1));
  }
  void build_oracle() override {
    oracle_ = std::make_unique<Oracle>(std::span<const u32>(corpus_));
  }
  void build() override {
    stack_.build(true);
    stack_.backend->add_corpus(std::span<const u32>(corpus_));
    stack_.open_front();
  }
  void calibrate() override {
    SpanLog off(false);
    net_closed_loop(stack_.front->port(), 1, kSweepLen, 1e9, 0,
                    [](u64 id) {
                      NetReq r;
                      r.k = kSweepKs[id];
                      return r;
                    },
                    {oracle_.get()}, off);
  }
  void warm_round(u64 round) override {
    SpanLog off(false);
    net_closed_loop(stack_.front->port(), kDepth, kWarmRound, 1e9,
                    (round + 1) * kWarmRound, gen(kWarmSeed), {oracle_.get()},
                    off);
  }
  void teardown() override { stack_.reset(); }
  Deployment deployment() override { return stack_.deployment(); }
  Tally measure(double seconds, SpanLog& spans, SpanLog&,
                u64 window) override {
    return net_closed_loop(stack_.front->port(), kDepth, ~u64{0}, seconds,
                           kIdBase * (window + 1), gen(seed_),
                           {oracle_.get()}, spans);
  }
  bool exact_only() const override { return true; }

 private:
  static std::function<NetReq(u64)> gen(u64 seed) {
    const u64 s = data::rand_u64(seed, 2);
    return [s](u64 id) {
      NetReq r;
      r.k = log_uniform_k(s, id, 1024);
      return r;
    };
  }
  std::vector<u32> corpus_;
  std::unique_ptr<Oracle> oracle_;
  SingleStack stack_;
};

// ---- adhoc_payloads -------------------------------------------------------

class AdhocPayloads : public Workload {
 public:
  /// One payload per (size 2^14..2^18, UD/ND/CD, u32/u64, criterion): a
  /// fixed mix, so every run ships the same amount of data; the values
  /// come from the seed.
  static constexpr u32 kPool = 5 * 3 * 2 * 2;

  void generate(u64 seed) override {
    seed_ = seed;
    pool_.clear();
    for (u32 i = 0; i < kPool; ++i) {
      Payload p;
      const u64 ps = data::rand_u64(seed, 100 + i);
      const u64 n = u64{1} << (14 + i / 12);
      p.dist = static_cast<data::Distribution>(i % 3);
      p.wide = (i / 3) % 2 == 1;
      p.criterion = (i / 6) % 2 == 0 ? data::Criterion::kLargest
                                     : data::Criterion::kSmallest;
      std::vector<u32> base(n);
      data::fill(std::span<u32>(base), p.dist, data::rand_u64(ps, 1));
      if (p.wide) {
        // Widen, keeping the distribution's tie structure; UD also gets
        // random low bits so its u64 keys stay distinct.
        const bool noise = p.dist == data::Distribution::kUniform;
        p.v64.resize(n);
        for (u64 j = 0; j < n; ++j)
          p.v64[j] = (static_cast<u64>(base[j]) << 32) |
                     (noise ? data::rand_u32(data::rand_u64(ps, 2), j) : 0);
      } else {
        p.v32 = std::move(base);
      }
      pool_.push_back(std::move(p));
    }
  }
  void build_oracle() override {
    for (Payload& p : pool_)
      p.oracle = p.wide ? std::make_unique<Oracle>(std::span<const u64>(p.v64))
                        : std::make_unique<Oracle>(std::span<const u32>(p.v32));
  }
  void build() override { stack_.build(false); }
  void calibrate() override {
    SpanLog off(false);
    run(1, kPool * kSweepLen, 1e9, 0,
        [](u64 id) {
          return Req{static_cast<u32>(id / kSweepLen), kSweepKs[id % kSweepLen],
                     false};
        },
        off);
  }
  void warm_round(u64 round) override {
    SpanLog off(false);
    run(kDepth, kWarmRound, 1e9, (round + 1) * kWarmRound, traffic(kWarmSeed),
        off);
  }
  void teardown() override { stack_.reset(); }
  Deployment deployment() override { return stack_.deployment(); }
  Tally measure(double seconds, SpanLog& spans, SpanLog&,
                u64 window) override {
    return run(kDepth, ~u64{0}, seconds, kIdBase * (window + 1),
               traffic(seed_), spans);
  }
  bool exact_only() const override { return true; }

  /// The paper's single-shot pipeline with no serving layer: core::dr_topk
  /// against the baseline radix engine on each pool payload, one caller
  /// thread, on a device of its own.
  u64 direct_layers(Report& rep, SpanLog& spans) override {
    vgpu::Device kdev(vgpu::GpuProfile::v100s());
    std::vector<double> wall_us, dr_sim_us, radix_sim_us, speedup;
    u64 wrong = 0;
    for (int pass = 0; pass < 2; ++pass) {
      for (u32 i = 0; i < kPool; ++i) {
        const Payload& p = pool_[i];
        const u64 k = k_for(p, data::rand_u64(seed_, 7), i);
        const u64 req = kIdBase * 9 + pass * kPool + i;
        const auto one = [&](auto values) {
          using T = typename decltype(values)::value_type;
          const u64 t0 = now_ns();
          topk::TypedTopkResult<T> dr;
          {
            ScopedSpan s(spans, "core.dr_topk", req);
            dr = core::dr_topk<T>(kdev, values, k, p.criterion);
          }
          const double wall = static_cast<double>(now_ns() - t0) / 1e3;
          topk::TypedTopkResult<T> rx;
          {
            ScopedSpan s(spans, "topk.run_topk", req);
            rx = topk::run_topk<T>(kdev, values, k, p.criterion,
                                   topk::Algo::kRadixFlag);
          }
          const std::vector<u64> dv(dr.values.begin(), dr.values.end());
          const std::vector<u64> rv(rx.values.begin(), rx.values.end());
          if (!p.oracle->exact_ok(p.criterion, k, false, dv, dr.kth) ||
              !p.oracle->exact_ok(p.criterion, k, false, rv, rx.kth))
            ++wrong;
          if (pass == 0) return;  // first pass warms the engines
          wall_us.push_back(wall);
          dr_sim_us.push_back(dr.sim_ms * 1e3);
          radix_sim_us.push_back(rx.sim_ms * 1e3);
          speedup.push_back(ratio(rx.sim_ms, dr.sim_ms));
        };
        if (p.wide)
          one(std::span<const u64>(p.v64));
        else
          one(std::span<const u32>(p.v32));
      }
    }
    rep.add("core.direct_wall_us.p50", median(wall_us), "us");
    rep.add("core.direct_sim_us.p50", median(dr_sim_us), "us");
    rep.add("topk.radix_sim_us.p50", median(radix_sim_us), "us");
    rep.add("core.speedup_vs_radix_sim", median(speedup), "ratio");
    return wrong;
  }

 private:
  struct Payload {
    data::Distribution dist = data::Distribution::kUniform;
    bool wide = false;
    data::Criterion criterion = data::Criterion::kLargest;
    std::vector<u32> v32;
    std::vector<u64> v64;
    std::unique_ptr<Oracle> oracle;
    u64 n() const { return wide ? v64.size() : v32.size(); }
  };

  static u64 k_for(const Payload& p, u64 s, u64 id) {
    return log_uniform_k(s, id, std::min<u64>(1024, p.n() / 16));
  }

  struct Req {
    u32 payload;
    u64 k;
    bool sel;  ///< selection only
  };

  /// Uniform payload pick, log-uniform k, one query in 8 selection-only.
  std::function<Req(u64)> traffic(u64 seed) const {
    const u64 s_pick = data::rand_u64(seed, 3);
    const u64 s_k = data::rand_u64(seed, 4);
    const u64 s_sel = data::rand_u64(seed, 5);
    return [this, s_pick, s_k, s_sel](u64 id) {
      const u32 pi = static_cast<u32>(data::rand_u64(s_pick, id) % kPool);
      return Req{pi, k_for(pool_[pi], s_k, id),
                 data::rand_u64(s_sel, id) % 8 == 0};
    };
  }

  Tally run(u32 depth, u64 max_requests, double seconds, u64 id_base,
            const std::function<Req(u64)>& req_of, SpanLog& spans) {
    return inproc_closed_loop(
        depth, max_requests, seconds, id_base,
        [&](u64 id) {
          const Req r = req_of(id);
          const Payload& p = pool_[r.payload];
          // A private copy per query: nothing is shared between queries.
          return p.wide ? stack_.srv->submit(serve::Query::owned(
                              p.v64, r.k, p.criterion, r.sel))
                        : stack_.srv->submit(serve::Query::owned(
                              p.v32, r.k, p.criterion, r.sel));
        },
        [&](u64 id, const serve::QueryResult& res, double lat_us, u64 done,
            Tally& t) {
          const Req r = req_of(id);
          const Payload& p = pool_[r.payload];
          t.record(*p.oracle, p.criterion, r.k, r.sel, false, res.values,
                   res.kth, lat_us, done);
          t.n_sum += static_cast<double>(p.n());
          t.sim_exact_us.push_back(res.latency_sim_ms * 1e3);
          t.service_us.push_back(res.wall_ms * 1e3 -
                                 static_cast<double>(res.queue_us));
        },
        spans);
  }

  std::vector<Payload> pool_;
  SingleStack stack_;
};

// ---- sharded_mixed --------------------------------------------------------

class ShardedMixed : public Workload {
 public:
  void generate(u64 seed) override {
    seed_ = seed;
    corpus_ = uniform_corpus(u64{1} << 21, data::rand_u64(kCorpusSeed, 11));
  }
  void build_oracle() override {
    oracle_ = std::make_unique<Oracle>(std::span<const u32>(corpus_));
  }
  void build() override {
    serve::ShardedConfig cfg;
    cfg.num_shards = 2;
    cfg.shard.executors = 2;
    cfg.shard.batch_max = 16;
    cfg.shard.max_in_flight = 64;
    srv_ = std::make_unique<serve::ShardedTopkServer>(cfg);
    corpus_id_ = srv_->register_corpus(std::span<const u32>(corpus_));
  }
  void calibrate() override {
    SpanLog off(false);
    run(1, 2 * kSweepLen, 1e9, 0,
        [](u64 id) { return Req{kSweepKs[id % kSweepLen], id >= kSweepLen}; },
        off);
  }
  void warm_round(u64 round) override {
    SpanLog off(false);
    run(kDepth, kWarmRound, 1e9, (round + 1) * kWarmRound, traffic(kWarmSeed),
        off);
  }
  void teardown() override { srv_.reset(); }
  Deployment deployment() override {
    Deployment d;
    if (!srv_) return d;
    for (u32 i = 0; i < srv_->num_shards(); ++i) {
      d.devices.push_back(&srv_->shard_device(i));
      d.servers.push_back(&srv_->shard(i));
    }
    d.devices.push_back(&srv_->merge_device());
    d.sharded = srv_.get();
    return d;
  }
  Tally measure(double seconds, SpanLog& spans, SpanLog&,
                u64 window) override {
    return run(kDepth, ~u64{0}, seconds, kIdBase * (window + 1),
               traffic(seed_), spans);
  }
  bool exact_only() const override { return false; }

 private:
  struct Req {
    u64 k;
    bool approx;  ///< recall target 0.9, else exact
  };

  /// Log-uniform k; half the queries exact, half at recall 0.9.
  static std::function<Req(u64)> traffic(u64 seed) {
    const u64 s_k = data::rand_u64(seed, 12);
    const u64 s_f = data::rand_u64(seed, 13);
    return [s_k, s_f](u64 id) {
      return Req{log_uniform_k(s_k, id, 1024),
                 data::rand_u64(s_f, id) % 2 == 1};
    };
  }

  Tally run(u32 depth, u64 max_requests, double seconds, u64 id_base,
            const std::function<Req(u64)>& req_of, SpanLog& spans) {
    return inproc_closed_loop(
        depth, max_requests, seconds, id_base,
        [&](u64 id) {
          const Req r = req_of(id);
          const core::FidelityPolicy f =
              r.approx ? core::FidelityPolicy::approx(0.9)
                       : core::FidelityPolicy{};
          return srv_->submit(corpus_id_, r.k, data::Criterion::kLargest,
                              false, f);
        },
        [&](u64 id, const serve::QueryResult& res, double lat_us, u64 done,
            Tally& t) {
          const Req r = req_of(id);
          const bool approx = r.approx;
          t.record(*oracle_, data::Criterion::kLargest, r.k, false, approx,
                   res.values, res.kth, lat_us, done);
          t.n_sum += static_cast<double>(corpus_.size());
          (approx ? t.sim_approx_us : t.sim_exact_us)
              .push_back(res.latency_sim_ms * 1e3);
          t.service_us.push_back(res.wall_ms * 1e3 -
                                 static_cast<double>(res.queue_us));
        },
        spans);
  }

  std::vector<u32> corpus_;
  std::unique_ptr<Oracle> oracle_;
  std::unique_ptr<serve::ShardedTopkServer> srv_;
  serve::ShardedTopkServer::CorpusId corpus_id_ = 0;
};

// ---- openloop_deadline ----------------------------------------------------

class OpenloopDeadline : public Workload {
 public:
  void generate(u64 seed) override {
    seed_ = seed;
    corpora_[0] = uniform_corpus(u64{1} << 20, data::rand_u64(kCorpusSeed, 21));
    corpora_[1] = uniform_corpus(u64{1} << 16, data::rand_u64(kCorpusSeed, 22));
  }
  void build_oracle() override {
    for (int i = 0; i < 2; ++i)
      oracles_[i] = std::make_unique<Oracle>(std::span<const u32>(corpora_[i]));
  }
  void build() override {
    stack_.build(true);
    for (const auto& c : corpora_)
      stack_.backend->add_corpus(std::span<const u32>(c));
    stack_.open_front();
  }
  /// The calibration sweep is lockstep. Half its requests are floor
  /// requests with a 1 us budget, which degrade (or shed) and so calibrate
  /// the degraded shapes too. Warm-up rounds are half a second of open-loop
  /// traffic each: arenas grow under the concurrency the window sees, and
  /// the admission estimators (service EWMA, queue-wait histogram) start
  /// the window warm rather than from pipelined closed-loop waits.
  void calibrate() override {
    SpanLog off(false);
    net_closed_loop(stack_.front->port(), 1, 4 * kSweepLen, 1e9, 0,
                    [](u64 id) {
                      // id % 4 cycles corpus and fidelity; with 7 ks, 28
                      // requests cover every combination once.
                      NetReq r;
                      r.corpus = static_cast<u32>(id % 2);
                      r.k = kSweepKs[id % kSweepLen];
                      if (id % 4 >= 2) {
                        r.floor_bp = kFloorBp;
                        r.deadline_us = 1;
                      }
                      return r;
                    },
                    oracle_list(), off);
  }
  void warm_round(u64 round) override {
    SpanLog a(false), b(false);
    open_loop(0.5, kWarmSeed, round, a, b);
  }
  void teardown() override { stack_.reset(); }
  Deployment deployment() override { return stack_.deployment(); }
  Tally measure(double seconds, SpanLog& send_spans, SpanLog& recv_spans,
                u64 window) override {
    return open_loop(seconds, seed_, window, send_spans, recv_spans);
  }
  bool exact_only() const override { return false; }

 private:
  std::vector<const Oracle*> oracle_list() const {
    return {oracles_[0].get(), oracles_[1].get()};
  }

  /// Poisson arrivals at kOpenRate, pre-generated from the seed. A sender
  /// thread fires each request at its due time without waiting for
  /// answers; this thread reads them. Latency counts from the due time,
  /// so a generator stall shows as latency (and as net.gen_late_us).
  Tally open_loop(double seconds, u64 seed, u64 window, SpanLog& send_spans,
                  SpanLog& recv_spans) {
    struct Due {
      u64 at_ns;
      NetReq req;
    };
    const u64 s = data::rand_u64(seed, 30 + window);
    std::vector<Due> sched;
    double t = 0;
    for (u64 i = 0;; ++i) {
      t += -std::log(1.0 - data::rand_unit(s, 4 * i)) / kOpenRate;
      if (t >= seconds) break;
      NetReq r;
      r.corpus = static_cast<u32>(data::rand_u64(s, 4 * i + 1) % 2);
      r.k = log_uniform_k(s, 4 * i + 2, 1024);
      r.deadline_us = kOpenDeadlineUs;
      if (data::rand_u64(s, 4 * i + 3) % 2) r.floor_bp = kFloorBp;
      sched.push_back({static_cast<u64>(t * 1e9), r});
    }

    Tally tl;
    net::BlockingClient cli;
    if (!connect_client(cli, stack_.front->port())) {
      tl.attempted = tl.lost = std::max<size_t>(1, sched.size());
      return tl;
    }
    const u64 base = kIdBase * (window + 1);
    const u64 t0 = now_ns() + 2'000'000;  // first due time: 2 ms from now
    tl.t0_ns = t0;
    tl.window_s = seconds;
    std::vector<std::atomic<u64>> sent_at(sched.size());
    std::vector<u8> seen(sched.size(), 0);
    std::vector<double> late(sched.size(), 0.0);
    std::atomic<u64> sent{0};
    std::atomic<bool> sender_done{false};
    std::thread sender([&] {
      for (size_t i = 0; i < sched.size(); ++i) {
        const u64 due = t0 + sched[i].at_ns;
        std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
            std::chrono::nanoseconds(due)));
        const u64 ts = now_ns();
        late[i] = static_cast<double>(ts > due ? ts - due : 0) / 1e3;
        send_spans.close(send_spans.open("gen.late", base + i, 0, due), ts);
        sent_at[i].store(ts, std::memory_order_release);
        bool ok;
        {
          ScopedSpan sp(send_spans, "net.send", base + i);
          ok = cli.send(to_wire(base + i, sched[i].req));
        }
        if (!ok) break;
        sent.fetch_add(1, std::memory_order_release);
      }
      sender_done.store(true, std::memory_order_release);
    });

    u64 received = 0;
    for (;;) {
      if (sender_done.load(std::memory_order_acquire) &&
          received >= sent.load(std::memory_order_acquire))
        break;
      auto resp = cli.recv_response();
      const u64 tr = now_ns();
      if (!resp) {
        if (sender_done.load(std::memory_order_acquire)) break;
        continue;  // receive timeout while still sending: keep waiting
      }
      const u64 idx = resp->request_id - base;
      if (resp->request_id < base || idx >= sched.size() || seen[idx]) {
        ++tl.lost;
        continue;
      }
      seen[idx] = 1;
      ++received;
      const u64 due = t0 + sched[idx].at_ns;
      const u32 root = recv_spans.open("request", resp->request_id, 0, due);
      {
        ScopedSpan sp(recv_spans, "bench.check", resp->request_id, root);
        const u64 ts = sent_at[idx].load(std::memory_order_acquire);
        judge_net(*resp, sched[idx].req, *oracles_[sched[idx].req.corpus],
                  static_cast<double>(tr - due) / 1e3,
                  static_cast<double>(tr - ts) / 1e3, tr, tl);
      }
      recv_spans.close(root, tr);
    }
    sender.join();
    tl.attempted = sched.size();
    tl.lost += sched.size() - received;
    tl.gen_late_us.assign(late.begin(), late.begin() + sent.load());
    return tl;
  }

  std::vector<u32> corpora_[2];
  std::unique_ptr<Oracle> oracles_[2];
  SingleStack stack_;
};

// ---------------------------------------------------------------------------
// Metrics.

struct SetupTimes {
  double setup_s = 0, warmup_s = 0, generate_s = 0;
};

void end_to_end(Report& rep, const Tally& t, const Snapshot& a,
                const Snapshot& b, const SetupTimes& st) {
  const double len = t.window_s / kSlices;
  std::vector<double> qps, p50, p99;
  for (auto& sl : slice_latencies(t, kSlices)) {
    qps.push_back(static_cast<double>(sl.size()) / len);
    p50.push_back(quantile(sl, 0.50));
    p99.push_back(quantile(sl, 0.99));
  }
  std::printf("process cpu busy %.2f cores; qps by slice:",
              ratio((b.cpu_us - a.cpu_us) / 1e6, b.wall_s - a.wall_s));
  for (const double q : qps) std::printf(" %.0f", q);
  std::printf("\n");
  const double answered = static_cast<double>(std::max<u64>(1, t.answered));
  rep.add("qps", median(qps), "1/s");
  rep.add("p50_us", median(p50), "us");
  rep.add("p99_us", median(p99), "us");
  rep.add("sim_us_per_query", (b.dev_sim_ms - a.dev_sim_ms) * 1e3 / answered,
          "us");
  rep.add("goodput_frac",
          ratio(static_cast<double>(t.good), static_cast<double>(t.attempted)),
          "frac");
  rep.add("recall_mean", t.recall_mean(), "frac");
  rep.add("setup_s", st.setup_s, "s");
}

void per_layer(Report& rep, Workload& w, const Tally& t, const Snapshot& a,
               const Snapshot& b, const SetupTimes& st) {
  const double q = static_cast<double>(std::max<u64>(1, t.answered));
  const double att = static_cast<double>(std::max<u64>(1, t.attempted));
  const auto per_q = [q](double v) { return v / q; };
  const auto net_delta = [&](const char* name) {
    const auto ia = a.net.find(name), ib = b.net.find(name);
    return ia == a.net.end() || ib == b.net.end()
               ? 0.0
               : static_cast<double>(ib->second - ia->second);
  };
  std::vector<double> v;

  // net
  v = t.client_minus_server_us;
  rep.add("net.client_minus_server_us.p50", quantile(v, 0.5), "us");
  v = t.server_us;
  rep.add("net.server_us.p50", quantile(v, 0.5), "us");
  rep.add("net.server_us.p99", quantile(v, 0.99), "us");
  rep.add("net.shed_frac", net_delta("net_shed") / att, "frac");
  rep.add("net.degraded_frac", net_delta("net_degraded") / att, "frac");
  rep.add("net.deadline_missed_frac", net_delta("net_deadline_missed") / att,
          "frac");
  v = t.gen_late_us;
  rep.add("net.gen_late_us.p50", quantile(v, 0.5), "us");
  rep.add("net.gen_late_us.p99", quantile(v, 0.99), "us");
  rep.add("net.gen_late_us.max", v.empty() ? 0.0 : v.back(), "us");

  // serve
  const HistCounts qw = b.queue_wait_us.minus(a.queue_wait_us);
  rep.add("serve.queue_wait_us.p50", qw.quantile(0.5), "us");
  rep.add("serve.queue_wait_us.p99", qw.quantile(0.99), "us");
  v = t.service_us;
  rep.add("serve.service_us.p50", quantile(v, 0.5), "us");
  rep.add("serve.group_size_mean", b.group_size.minus(a.group_size).mean(),
          "count");
  const double completed = static_cast<double>(b.completed - a.completed);
  rep.add("serve.fused_frac",
          ratio(static_cast<double>(b.fused - a.fused), completed), "frac");
  double sim_exact = 0;
  if (!t.sim_exact_us.empty()) {
    v = t.sim_exact_us;
    sim_exact = quantile(v, 0.5);
  } else if (w.exact_only()) {
    sim_exact = b.sim_latency_us.minus(a.sim_latency_us).quantile(0.5);
  }
  rep.add("serve.sim_us.exact.p50", sim_exact, "us");
  v = t.sim_approx_us;
  rep.add("serve.sim_us.approx.p50", quantile(v, 0.5), "us");
  rep.add("serve.concat_launches_per_query",
          per_q(static_cast<double>(b.concat_launches - a.concat_launches)),
          "launch/query");
  rep.add("serve.finalize_launches_per_query",
          per_q(static_cast<double>(b.finalize_launches -
                                    a.finalize_launches)),
          "launch/query");
  const double hits = static_cast<double>(b.plan_hits - a.plan_hits);
  const double misses = static_cast<double>(b.plan_misses - a.plan_misses);
  rep.add("serve.plan_hit_rate", ratio(hits, hits + misses), "frac");
  rep.add("serve.ws_growths_steady",
          static_cast<double>(b.ws_growths - a.ws_growths), "count");
  rep.add("serve.merge_launches_per_query",
          per_q(static_cast<double>(b.sharded.merge_launches -
                                    a.sharded.merge_launches)),
          "launch/query");
  rep.add("serve.merge_sim_us_per_query",
          per_q((b.sharded.merge_sim_ms - a.sharded.merge_sim_ms) * 1e3),
          "us");
  rep.add("serve.merge_batch_mean",
          ratio(static_cast<double>(b.sharded.merged_queries -
                                    a.sharded.merged_queries),
                static_cast<double>(b.sharded.merge_batches -
                                    a.sharded.merge_batches)),
          "count");
  rep.add("serve.warmup_s", st.warmup_s, "s");

  // core: the device stage ledger
  for (const char* stage : kStages) {
    StageSlot d;
    if (const auto ib = b.ledger.find(stage); ib != b.ledger.end()) {
      d = ib->second;
      if (const auto ia = a.ledger.find(stage); ia != a.ledger.end()) {
        d.sim_ms -= ia->second.sim_ms;
        d.stats.kernels_launched -= ia->second.stats.kernels_launched;
        d.stats.global_load_elems -= ia->second.stats.global_load_elems;
      }
    }
    const std::string p = std::string("core.") + stage;
    rep.add(p + ".launches_per_query",
            per_q(static_cast<double>(d.stats.kernels_launched)),
            "launch/query");
    rep.add(p + ".sim_us_per_query", per_q(d.sim_ms * 1e3), "us");
    rep.add(p + ".load_elems_per_query",
            per_q(static_cast<double>(d.stats.global_load_elems)),
            "elem/query");
  }
  rep.add("core.workload_frac",
          ratio(static_cast<double>((b.delegate_len - a.delegate_len) +
                                    (b.concat_len - a.concat_len)),
                t.n_sum),
          "frac");

  // vgpu
  const double launches = static_cast<double>(b.dev_total.kernels_launched -
                                              a.dev_total.kernels_launched);
  const double load_bytes = static_cast<double>(
      b.dev_total.global_load_bytes - a.dev_total.global_load_bytes);
  const double load_sector_bytes =
      static_cast<double>(b.dev_total.global_load_txns -
                          a.dev_total.global_load_txns) *
      vgpu::kSectorBytes;
  rep.add("vgpu.launches_per_query", per_q(launches), "launch/query");
  rep.add("vgpu.load_bytes_per_query",
          per_q(std::max(load_bytes, load_sector_bytes)), "B_computed");
  rep.add("vgpu.atomics_per_query",
          per_q(static_cast<double>(b.dev_total.atomic_ops -
                                    a.dev_total.atomic_ops)),
          "op/query");
  rep.add("vgpu.unattributed_launches", static_cast<double>(b.unattributed),
          "count");
  rep.add("host.cpu_us_per_query", per_q(b.cpu_us - a.cpu_us), "us");

  // data
  rep.add("data.generate_s", st.generate_s, "s");
}

std::unique_ptr<Workload> make_workload(const std::string& name) {
  if (name == "resident_exact") return std::make_unique<ResidentExact>();
  if (name == "adhoc_payloads") return std::make_unique<AdhocPayloads>();
  if (name == "sharded_mixed") return std::make_unique<ShardedMixed>();
  if (name == "openloop_deadline") return std::make_unique<OpenloopDeadline>();
  return nullptr;
}

int usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <resident_exact|"
               "adhoc_payloads|sharded_mixed|openloop_deadline> --seed <n> "
               "--seconds <s> --trace <0|1> [--out <dir>]\n",
               msg);
  return 2;
}

bool parse_args(int argc, char** argv, Args& a) {
  bool have_w = false, have_seed = false, have_s = false, have_t = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    char* end = nullptr;
    if (k == "--workload") {
      a.workload = v;
      have_w = true;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v.c_str(), &end, 10);
      have_seed = end && *end == '\0' && !v.empty();
    } else if (k == "--seconds") {
      a.seconds = std::strtod(v.c_str(), &end);
      have_s = end && *end == '\0' && a.seconds > 0 && a.seconds <= 600;
    } else if (k == "--trace") {
      have_t = v == "0" || v == "1";
      a.trace = v == "1";
    } else if (k == "--out") {
      a.out_dir = v;
    } else {
      return false;
    }
  }
  return have_w && have_seed && have_s && have_t && argc % 2 == 1;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) return usage("bad arguments");
  std::unique_ptr<Workload> w = make_workload(args.workload);
  if (!w) return usage("unknown workload");
  std::setvbuf(stdout, nullptr, _IOLBF, 0);

  SetupTimes st;
  u64 t0 = now_ns();
  w->generate(args.seed);
  st.generate_s = seconds_since(t0);
  t0 = now_ns();
  w->build_oracle();
  std::printf("%s seed %llu: inputs %.3f s, oracle %.3f s\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), st.generate_s,
              seconds_since(t0));

  std::vector<double> setups, warmups;
  for (int r = 0; r < kSetups; ++r) {
    if (r) w->teardown();
    const u64 ts = now_ns();
    w->build();
    const u64 tw = now_ns();
    const int rounds = w->warm();
    warmups.push_back(seconds_since(tw));
    setups.push_back(seconds_since(ts));
    std::printf("set-up %d: %.3f s, %d warm-up rounds\n", r, setups.back(),
                rounds);
  }
  u64 plans = 0, plans_radix = 0;
  for (serve::TopkServer* srv : w->deployment().servers)
    for (const auto& [key, cp] : srv->plan_cache().entries()) {
      ++plans;
      plans_radix += cp.plan.first_algo == topk::Algo::kRadixFlag &&
                     cp.plan.second_algo == topk::Algo::kRadixFlag;
    }
  std::printf("plans calibrated: %llu (%llu radix-flag in both selections)\n",
              static_cast<unsigned long long>(plans),
              static_cast<unsigned long long>(plans_radix));
  st.setup_s = median(setups);
  st.warmup_s = median(warmups);
  std::printf("setup %.3f s (warm-up %.3f s), median of %d\n", st.setup_s,
              st.warmup_s, kSetups);

  Report rep;
  Tally shown;
  u64 bad_answers = 0;  ///< wrong, errored or lost, over every window
  const auto window = [&](bool traced, u64 idx, SpanLog& s1, SpanLog& s2,
                          Snapshot& a, Snapshot& b) {
    a = snapshot(w->deployment());
    Tally t = w->measure(args.seconds, s1, s2, idx);
    b = snapshot(w->deployment());
    bad_answers += t.failed();
    std::printf("%s window: attempted %llu answered %llu good %llu wrong "
                "%llu errors %llu lost %llu shed %llu degraded %llu "
                "error_frac %.6f\n",
                traced ? "traced" : "untraced",
                static_cast<unsigned long long>(t.attempted),
                static_cast<unsigned long long>(t.answered),
                static_cast<unsigned long long>(t.good),
                static_cast<unsigned long long>(t.wrong),
                static_cast<unsigned long long>(t.errors),
                static_cast<unsigned long long>(t.lost),
                static_cast<unsigned long long>(t.shed),
                static_cast<unsigned long long>(t.degraded), t.error_frac());
    return t;
  };

  Snapshot a, b;
  SpanLog off1(false), off2(false);
  Tally plain = window(false, 0, off1, off2, a, b);
  Report e2e;
  end_to_end(e2e, plain, a, b, st);
  e2e.print_table("end-to-end (untraced window)");
  shown = plain;

  if (args.trace) {
    SpanLog main_spans(true, 0), aux_spans(true, 1);
    Tally traced = window(true, 1, main_spans, aux_spans, a, b);
    per_layer(rep, *w, traced, a, b, st);
    bad_answers += w->direct_layers(rep, main_spans);
    std::vector<double> l0 = plain.latency_us, l1 = traced.latency_us;
    rep.add("obs.trace_overhead_frac",
            ratio(quantile(l1, 0.5), quantile(l0, 0.5)) - 1.0, "frac");
    rep.print_table("per-layer (traced window)");
    const std::string dir = args.out_dir.empty() ? "." : args.out_dir;
    write_spans({&main_spans, &aux_spans},
                dir + "/trace-" + args.workload + "-" +
                    std::to_string(args.seed) + ".json");
    shown = traced;
  } else {
    rep = e2e;
  }

  w->teardown();
  const bool correct = bad_answers == 0;
  std::printf("%s\n", rep.json(correct, shown.attempted,
                               shown.failed()).c_str());
  return correct ? 0 : 1;
}
