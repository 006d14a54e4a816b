// TopkServer: batched multi-query top-k serving on one virtual GPU.
//
//   vgpu::Device dev;
//   serve::TopkServer server(dev);
//   serve::CorpusId id = server.register_corpus(corpus);  // resident data
//   auto f1 = server.submit(id, 100);
//   auto f2 = server.submit(id, 10, Criterion::kLargest,
//                           /*selection_only=*/true);
//   auto f3 = server.submit(serve::Query::owned(payload, 50));  // ad hoc
//   auto r = f1.get();   // exact top-k, same bits as core::dr_topk
//
// Architecture (the seam every scaling PR plugs into):
//
//   submit() -> AdmissionQueue (bounded, backpressure)
//            -> admission groups (compatible queries batch together)
//            -> executor threads claim work: one resolves the group's plan
//               via the PlanCache (calibrated alpha/engines, skipping the
//               tuner on hits) and builds ONE shared delegate vector for
//               the whole group; then all executors cooperatively drain the
//               group's queries through core::dr_topk_from_delegates on the
//               shared Device (whose thread pool multiplexes the kernels).
//
// Registered corpora (serve/corpus_index.hpp) go one step further: their
// delegate vector and sorted delegates are built once per (alpha, beta,
// direction) and shared by every group, so a group's setup on a registered
// corpus launches no construction and no first top-k at all.
//
// Batching wins because delegate construction — the dominant stage of the
// pipeline (Figure 15) — is paid once per group instead of once per query;
// the plan cache wins by replaying calibrated decisions for recurring
// query shapes. Two further collapse axes ride the same machinery:
// Phase-A dedup (identical queries of a group share one candidate span and
// one finalization segment, results fanned out to every subscriber) and
// cross-group finalization windows (groups completing within a short
// window share ONE batched second-top-k launch, even across corpora).
// docs/ARCHITECTURE.md walks a query through the whole pipeline.
#pragma once

#include <thread>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "serve/plan_cache.hpp"
#include "serve/scheduler.hpp"
#include "serve/stats.hpp"

namespace drtopk::serve {

/// Observability knobs (docs/OBSERVABILITY.md). Everything here is off by
/// default so the zero-allocation hot path and the committed BENCH_*
/// baselines are unaffected; the metrics registry itself is always live
/// (its record path is a handful of relaxed atomics).
struct ObsOptions {
  /// Record per-query trace spans (queue wait, phase A, parks, finalize,
  /// fan-out) into per-executor rings; export with TopkServer::dump_trace.
  bool tracing = false;
  /// Ring capacity in spans per lane (executors + 1 lanes). Pre-reserved
  /// at server construction, so steady-state tracing allocates nothing.
  u64 trace_capacity = u64{1} << 13;
  /// Compute stats() percentiles by exact-sorting a latency reservoir (the
  /// pre-histogram behavior) instead of reading the streaming histogram.
  /// Debug/parity flag: snapshots get strictly more expensive.
  bool exact_percentiles = false;
};

/// Server tuning knobs. Every optimization keeps its predecessor
/// measurable: `batched_select=false` replays the PR-2 per-query hot path,
/// `dedup=false` gives every query its own phase A, and
/// `finalize_window_us=0` finalizes each group by its own last finisher
/// (the PR-3 behavior) — see docs/ARCHITECTURE.md for the full map.
struct ServerConfig {
  u32 executors = 2;       ///< concurrent query executors
  u32 batch_max = 16;      ///< max queries per admission group
  u32 max_in_flight = 64;  ///< submit() blocks beyond this (backpressure)
  core::DrTopkConfig base; ///< baseline pipeline configuration
  bool use_plan_cache = true;
  PlanCache::Options plan;
  /// Batched second-stage selection (PR 3): group setup resolves every
  /// member's stage-2 threshold with one batched launch over the shared
  /// delegate vector; per-query execution defers stage 4 and parks its
  /// candidate span in the group arena; and the executor completing the
  /// group's last query selects top-k for ALL parked queries in a single
  /// launch (topk/batched.hpp) — one second-top-k launch per admission
  /// group instead of one per query. `false` replays the PR-2 per-query
  /// hot path, kept as the measurable baseline.
  bool batched_select = true;
  /// Phase-A dedup (PR 5): queries of one admission group with identical
  /// (k, selection_only) — corpus, length, width and criterion already
  /// matched at admission — share ONE stage-3 candidate span and ONE
  /// segment of the batched finalization launch; results fan out to every
  /// subscriber, bit-identical by construction. Only active on the batched
  /// fused path (it rides the deferred-span machinery); `false` gives
  /// every query its own phase A, the measurable PR-3 behavior.
  bool dedup = true;
  /// Group-wide batched stage 3 (PR 8): setup classifies the shared
  /// delegate vector against EVERY distinct k's exact kappa in one
  /// classify + one concat launch (core/concat_batched.hpp) right after
  /// the batched kappa resolution, staging one candidate span per k in
  /// the group arena. Per-item execution then launches NOTHING: a query
  /// whose k was precomputed parks a deferred segment referencing the
  /// shared span (identical ks coalesce into one sort inside the batched
  /// finalization), or self-serves with a host sort on the Rule-3 fast
  /// path. Phase B collapses to delegate -> [one classify/concat pair] ->
  /// [one batched second top-k] per group. Rides the batched_select
  /// machinery (no effect when that is off or the plan is ineligible);
  /// `false` replays the PR-7 per-query stage 3, kept measurable as the
  /// bench baseline.
  bool batched_concat = true;
  /// Cross-group finalization window, in microseconds of host wall clock:
  /// groups becoming finalization-ready within this window are finalized
  /// together in ONE shared batched launch per key width present —
  /// possibly over different corpora (the engine accepts mixed-corpus
  /// segment lists); u32 and u64 groups sharing a window still take one
  /// launch each. The first group to park becomes the *window owner* and
  /// waits (at most this long) while other executors keep draining
  /// queries; while parked the owner itself also polls the admission queue
  /// (AdmissionQueue::try_next) and executes queued groups, so even a
  /// single-executor server keeps making progress — and those groups can
  /// join the owner's own window instead of waiting behind it. 0
  /// (default): every group is finalized immediately by its own last
  /// finisher, exactly the PR-3 behavior.
  u32 finalize_window_us = 0;
  /// Parked-segment count at which a window flush fires early (before the
  /// window elapses) — accumulating past the point where one launch
  /// already fills the GPU only delays ready results. 0 = auto:
  /// topk::batched_segment_cap for the server's device.
  u32 finalize_max_segments = 0;
  /// Queue-empty early flush for the finalization window: the parked
  /// window owner is woken as soon as the executor pool goes idle (no
  /// queued groups, no running items) — nothing else can possibly join
  /// the window, so waiting out the timer would be pure added latency.
  /// In particular a single-executor server stops paying the full
  /// finalize_window_us on every group. `false` replays the PR-5
  /// timer/cap-only behavior.
  bool window_early_flush = true;
  /// Observability: tracing, trace ring capacity, exact-percentile debug.
  ObsOptions obs;
};

/// The batched multi-query top-k server (see the file comment for the
/// pipeline). Owns the executor threads, the admission queue, the plan
/// cache, the workspace arenas and the cross-group finalization staging
/// area; submit()/run_batch() are thread-safe.
class TopkServer {
 public:
  explicit TopkServer(vgpu::Device& dev, ServerConfig cfg = {});
  ~TopkServer();

  TopkServer(const TopkServer&) = delete;
  TopkServer& operator=(const TopkServer&) = delete;

  /// Admits a query; blocks while max_in_flight queries are pending.
  std::future<QueryResult> submit(Query q);

  /// Registers a resident corpus. The span must stay alive and unchanged
  /// until unregister_corpus() and every query submitted against it are
  /// done. Its index is built on first use per (alpha, beta, direction).
  CorpusId register_corpus(std::span<const u32> v) { return corpora_.add(v); }
  CorpusId register_corpus(std::span<const u64> v) { return corpora_.add(v); }

  /// Drops a registration. Queries already submitted still complete
  /// correctly; the index is freed once the last group using it ends.
  /// Throws std::invalid_argument for an unknown id.
  void unregister_corpus(CorpusId id);

  /// A query over a registered corpus, for submit() or run_batch(): like
  /// Query::view(...) with the same arguments, but its group takes kappa
  /// from the corpus index (no per-group construction or first top-k) and
  /// a recall-target answer is read off the sorted delegates. Throws
  /// std::invalid_argument for an unknown id.
  Query registered_query(CorpusId id, u64 k,
                         data::Criterion criterion = data::Criterion::kLargest,
                         bool selection_only = false,
                         core::FidelityPolicy fidelity = {}) const;

  /// submit(registered_query(...).with_deadline(deadline_us)). Throws
  /// std::invalid_argument for an unknown id or k outside [1, |V|].
  std::future<QueryResult> submit(CorpusId id, u64 k,
                                  data::Criterion criterion =
                                      data::Criterion::kLargest,
                                  bool selection_only = false,
                                  core::FidelityPolicy fidelity = {},
                                  u64 deadline_us = 0) {
    return submit(registered_query(id, k, criterion, selection_only, fidelity)
                      .with_deadline(deadline_us));
  }

  /// Convenience: submit a whole batch and wait for every result, returned
  /// in submission order.
  std::vector<QueryResult> run_batch(std::vector<Query> queries);

  /// Blocks until every admitted query has completed.
  void drain();

  /// Aggregate metrics (plan counters merged from the cache).
  ServerStats stats() const;

  /// Feeds one oracle-measured recall sample (fraction of the true top-k
  /// an answer contained, in [0, 1]) into the metrics. The server cannot
  /// measure recall itself — that requires the exact answer it skipped
  /// computing — so benches/tests compute it against topk::reference_topk
  /// and report it here; it lands in ServerStats::recall_mean and the
  /// serve_recall_measured_bp histogram.
  void record_recall(double recall) { collector_.record_recall(recall); }

  /// Total arena growths (heap blocks acquired) across every executor
  /// workspace and the group workspace pool. A warmed-up server serving
  /// recurring shapes must not increase this — the allocation-regression
  /// test asserts exactly that. Call while the server is quiescent.
  u64 workspace_growths() const;

  /// Peak arena bytes in use across all server workspaces.
  u64 workspace_high_water() const;

  /// The live metrics registry (counters, gauges, latency histograms).
  /// Always populated — the record path is lock-free — whether or not
  /// tracing is enabled.
  obs::Registry& metrics() { return registry_; }
  const obs::Registry& metrics() const { return registry_; }

  /// Metrics snapshot in Prometheus text exposition format.
  std::string metrics_prometheus() const;

  /// Metrics snapshot as a JSON object keyed by metric name.
  std::string metrics_json() const;

  /// The per-query trace recorder (disabled unless ObsOptions::tracing).
  const obs::Tracer& tracer() const { return tracer_; }

  /// Writes the recorded trace as Chrome trace_event JSON (load at
  /// chrome://tracing). Returns false when tracing is off or the file
  /// cannot be opened.
  bool dump_trace(const std::string& path) const;

  const PlanCache& plan_cache() const { return plans_; }
  /// Mutable plan-cache access for cross-shard plan sharing
  /// (ShardedTopkServer publishes calibrated plans between siblings).
  PlanCache& plan_cache() { return plans_; }
  vgpu::Device& device() { return dev_; }
  const ServerConfig& config() const { return cfg_; }

 private:
  void executor_loop(u32 executor_id);
  /// Handles one claimed unit of work (group setup or item execution) —
  /// the executor loop's body, also driven by a parked window owner that
  /// polls the queue (AdmissionQueue::try_next) while its window is open.
  void process_claim(AdmissionQueue::Claim& c, u32 executor_id);
  void setup_group(Group& g, u32 executor_id);
  void execute_item(Group& g, Pending& p, u64 amortize_over, u32 executor_id);
  /// Marks one item executed. The executor whose item completes the group
  /// either finalizes every parked (deferred) query now (window off) or
  /// parks the group in the cross-group staging area. Returns true when
  /// responsibility for the item's queue_.finish_item() was transferred to
  /// the staging-area flush (the caller must then NOT release the slot —
  /// drain() may not observe an idle queue with unfulfilled promises).
  bool maybe_finalize_group(const std::shared_ptr<Group>& g, u32 executor_id);
  /// Finalizes a set of completed groups — one batched launch per key
  /// width present, segments from all groups assembled into one list (the
  /// engine handles mixed corpora). A failure in one width's launch fails
  /// only that width's parked queries.
  void finalize_groups(std::span<const std::shared_ptr<Group>> groups,
                       u32 executor_id);
  /// THE batched-selection eligibility gate — one predicate shared by the
  /// group setup (does a batched kappa launch pay off?) and per-item
  /// execution (may this query defer its stage 4?), so the two sites
  /// cannot silently desynchronize. `cfg` must be the plan-applied config
  /// the queries will actually run with.
  bool batched_eligible(const core::DrTopkConfig& cfg) const {
    return cfg_.batched_select && !cfg.kappa_hook &&
           cfg.first_algo == topk::Algo::kRadixFlag &&
           cfg.second_algo == topk::Algo::kRadixFlag;
  }
  template <class T>
  void setup_group_typed(Group& g, u32 executor_id);
  template <class T>
  QueryResult run_item_typed(Group& g, Pending& p, u64 amortize_over,
                             vgpu::Workspace& ws, bool* deferred,
                             u32 executor_id);
  template <class T>
  void finalize_groups_typed(std::span<const std::shared_ptr<Group>> groups,
                             u32 executor_id);
  /// Releases one claim's running slot (AdmissionQueue::finish_running)
  /// and, when the pool just went idle, wakes a parked window owner so the
  /// queue-empty early flush fires.
  void item_done();
  /// Trace lane of an executor (lane 0 is the submit path).
  static u32 lane(u32 executor_id) { return executor_id + 1; }

  vgpu::Device& dev_;
  ServerConfig cfg_;
  PlanCache plans_;
  /// Declared before queue_/collector_: the queue holds a tracer pointer
  /// and the collector registers its metrics here (member init order).
  obs::Registry registry_;
  /// After registry_: its serve_index_* metrics live there (the registry
  /// detaches its gauge on destruction, so index lifetimes need no order).
  CorpusRegistry corpora_;
  obs::Tracer tracer_;
  obs::Histogram* queue_wait_us_ = nullptr;  ///< admission -> claim (us)
  obs::Histogram* group_size_ = nullptr;     ///< queries per admission group
  /// Recycled workspaces backing each group's shared delegate vector
  /// (leases keep the pool's shared state alive, so group teardown order
  /// is a non-issue).
  vgpu::WorkspacePool group_ws_;
  /// One persistent workspace per executor thread: all per-query scratch
  /// (stages 2-4, engine buffers, plan probes) bump-allocates here.
  std::vector<std::unique_ptr<vgpu::Workspace>> exec_ws_;
  AdmissionQueue queue_;
  StatsCollector collector_;
  /// Cross-group finalization staging area (PR 5): completed groups with
  /// parked deferred spans wait here up to finalize_window_us for peers;
  /// the first parker becomes the *window owner* and flushes everyone in
  /// one shared launch sequence. "Owned by the executor pool": parking
  /// executors return to claiming work immediately, only the owner blocks
  /// (bounded by the window, woken early by the segment cap). Staged
  /// shared_ptr<Group>s keep each group's pooled-arena lease — and thus
  /// every parked candidate span — alive until the flush has consumed
  /// them (the DeferredSecond ownership contract in core/dr_topk.hpp).
  struct FinalizeStage {
    std::mutex mu;
    std::condition_variable cv;
    std::vector<std::shared_ptr<Group>> groups;
    u64 segments = 0;  ///< parked deferred segments across staged groups
    bool owner_waiting = false;
  };
  FinalizeStage stage_;
  u64 stage_cap_ = 0;  ///< resolved finalize_max_segments (0-auto applied)
  std::vector<std::thread> executors_;
};

}  // namespace drtopk::serve
