// Tests for the batched top-k serving engine: admission batching with
// shared delegate construction, plan-cache behaviour, backpressure, and —
// the central property — every concurrently served query returning results
// bit-identical to the single-query core::dr_topk path.
#include <gtest/gtest.h>

#include <algorithm>
#include <future>
#include <map>
#include <thread>

#include "data/distributions.hpp"
#include "serve/server.hpp"

namespace drtopk::serve {
namespace {

using data::Criterion;
using data::Distribution;
using topk::reference_topk;

vgpu::Device& shared_device() {
  static vgpu::Device dev(vgpu::GpuProfile::v100s());
  return dev;
}

std::vector<u64> widen(const std::vector<u32>& v) {
  return {v.begin(), v.end()};
}

TEST(Serve, SingleQueryMatchesSingleQueryPath) {
  auto v = data::generate(1 << 16, Distribution::kUniform, 11);
  std::span<const u32> vs(v.data(), v.size());
  const auto expect = core::dr_topk_keys<u32>(shared_device(), vs, 100).keys;

  TopkServer server(shared_device());
  auto r = server.submit(Query::view(vs, 100)).get();
  EXPECT_EQ(r.values, widen(expect));
  EXPECT_EQ(r.kth, static_cast<u64>(expect.back()));
  EXPECT_GT(r.latency_sim_ms, 0.0);
}

TEST(Serve, ConcurrentMixedQueriesBitIdenticalToSequential) {
  // Several corpora x several k x criteria x widths, all in flight at once
  // on one device; every answer must match the single-query path exactly.
  auto a = data::generate(1 << 16, Distribution::kUniform, 21);
  auto b = data::generate((1 << 15) + 777, Distribution::kNormal, 22);
  std::vector<u64> c(1 << 15);
  for (u64 i = 0; i < c.size(); ++i) c[i] = data::rand_u64(23, i);
  std::span<const u32> as(a.data(), a.size());
  std::span<const u32> bs(b.data(), b.size());
  std::span<const u64> cs(c.data(), c.size());

  ServerConfig cfg;
  cfg.executors = 4;
  TopkServer server(shared_device(), cfg);

  std::vector<Query> queries;
  for (u64 k : {u64{1}, u64{17}, u64{256}, u64{2048}}) {
    queries.push_back(Query::view(as, k));
    queries.push_back(Query::view(bs, k));
    queries.push_back(Query::view(cs, k));
    queries.push_back(Query::view(as, k, Criterion::kSmallest));
  }
  auto results = server.run_batch(queries);
  ASSERT_EQ(results.size(), queries.size());

  for (size_t i = 0; i < queries.size(); ++i) {
    const Query& q = queries[i];
    const QueryResult& r = results[i];
    std::vector<u64> expect;
    if (q.width() == KeyWidth::k64) {
      auto e = core::dr_topk<u64>(shared_device(), q.data64(), q.k,
                                  q.criterion);
      expect = e.values;
    } else {
      auto e = core::dr_topk<u32>(shared_device(), q.data32(), q.k,
                                  q.criterion);
      expect = widen(e.values);
    }
    ASSERT_EQ(r.values, expect) << "query " << i << " k=" << q.k;
    ASSERT_EQ(r.kth, expect.back()) << "query " << i;
  }
}

TEST(Serve, BatchedGroupSharesOneConstructionPass) {
  const u64 n = 1 << 16;
  auto v = data::generate(n, Distribution::kUniform, 31);
  std::span<const u32> vs(v.data(), v.size());

  ServerConfig cfg;
  cfg.executors = 1;  // deterministic grouping
  cfg.batch_max = 8;
  TopkServer server(shared_device(), cfg);

  std::vector<Query> queries;
  for (int i = 0; i < 8; ++i) queries.push_back(Query::view(vs, 64 + i));
  auto results = server.run_batch(queries);

  for (size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(results[i].values,
              widen(reference_topk(vs, queries[i].k)));
    EXPECT_TRUE(results[i].fused) << i;
  }
  const ServerStats s = server.stats();
  EXPECT_EQ(s.completed, 8u);
  EXPECT_EQ(s.fused_queries, 8u);
  EXPECT_EQ(s.groups, 1u);
  // The whole batch paid for exactly one construction pass: the delegate
  // builder reads each input element once (|V| element loads).
  EXPECT_EQ(s.stages.construct_stats.global_load_elems, n);
}

TEST(Serve, StreamedSubmitsJoinTheInFlightGroup) {
  // One-at-a-time submits against one corpus: queries arriving while the
  // first query's group is still setting up (plan probes + construction)
  // must join it rather than each paying their own construction pass.
  const u64 n = 1 << 18;
  auto v = data::generate(n, Distribution::kUniform, 35);
  std::span<const u32> vs(v.data(), v.size());

  const auto expect = widen(reference_topk(vs, 128));
  // How many submits land in a shared group depends on how far setup has
  // progressed when they arrive; with millisecond setups and microsecond
  // submits, batching is near-certain per attempt — retry a couple of
  // times so scheduler preemption on a loaded machine cannot flake this.
  u64 min_groups = 8;
  for (int attempt = 0; attempt < 3 && min_groups >= 8; ++attempt) {
    ServerConfig cfg;
    cfg.executors = 1;
    cfg.batch_max = 16;
    TopkServer server(shared_device(), cfg);
    std::vector<std::future<QueryResult>> futures;
    for (int i = 0; i < 8; ++i)
      futures.push_back(server.submit(Query::view(vs, 128)));
    for (auto& f : futures) EXPECT_EQ(f.get().values, expect);
    min_groups = std::min(min_groups, server.stats().groups);
  }
  EXPECT_LT(min_groups, 8u);
}

TEST(Serve, PlanCacheHitsOnRecurringShape) {
  auto v = data::generate(1 << 16, Distribution::kUniform, 41);
  std::span<const u32> vs(v.data(), v.size());

  ServerConfig cfg;
  cfg.executors = 1;
  TopkServer server(shared_device(), cfg);

  (void)server.run_batch({Query::view(vs, 128)});
  const ServerStats cold = server.stats();
  EXPECT_EQ(cold.plan_hits, 0u);
  EXPECT_GE(cold.plan_misses, 1u);

  (void)server.run_batch({Query::view(vs, 128)});
  const ServerStats warm = server.stats();
  EXPECT_GE(warm.plan_hits, 1u);
  EXPECT_EQ(warm.plan_misses, cold.plan_misses);  // no re-calibration
  EXPECT_GE(server.plan_cache().size(), 1u);
}

TEST(Serve, PlanCacheKeysOnShapeAndDistribution) {
  auto ud = data::generate(1 << 15, Distribution::kUniform, 51);
  auto nd = data::generate(1 << 15, Distribution::kNormal, 51);
  std::span<const u32> us(ud.data(), ud.size());
  std::span<const u32> ns(nd.data(), nd.size());

  ServerConfig cfg;
  cfg.executors = 1;
  TopkServer server(shared_device(), cfg);
  (void)server.run_batch({Query::view(us, 64)});
  (void)server.run_batch({Query::view(ns, 64)});
  // Same (n, k) but different distribution fingerprints: two plans.
  EXPECT_EQ(server.plan_cache().size(), 2u);
  (void)server.run_batch({Query::view(us, 64)});
  EXPECT_EQ(server.plan_cache().size(), 2u);
  EXPECT_GE(server.stats().plan_hits, 1u);
}

TEST(Serve, PinnedAlphaWinsOverCalibration) {
  // An explicit base.alpha is a contract (resolve_alpha: "an explicit
  // cfg.alpha wins"); the plan cache must not probe its way to a different
  // subrange size.
  auto v = data::generate(1 << 16, Distribution::kUniform, 55);
  std::span<const u32> vs(v.data(), v.size());

  ServerConfig cfg;
  cfg.executors = 1;
  cfg.base.alpha = 9;
  TopkServer server(shared_device(), cfg);
  auto r = server.submit(Query::view(vs, 64)).get();
  EXPECT_EQ(r.values, widen(reference_topk(vs, 64)));
  EXPECT_EQ(r.breakdown.alpha, 9);
}

TEST(Serve, BackpressureBoundsInFlightAndStaysExact) {
  auto v = data::generate(1 << 14, Distribution::kCustomized, 61);
  std::span<const u32> vs(v.data(), v.size());
  const auto expect = widen(reference_topk(vs, 33));

  ServerConfig cfg;
  cfg.executors = 2;
  cfg.max_in_flight = 3;  // force submit() to block and release repeatedly
  TopkServer server(shared_device(), cfg);

  std::vector<std::future<QueryResult>> futures;
  for (int i = 0; i < 24; ++i)
    futures.push_back(server.submit(Query::view(vs, 33)));
  for (auto& f : futures) EXPECT_EQ(f.get().values, expect);
  EXPECT_EQ(server.stats().completed, 24u);
}

TEST(Serve, SelectionOnlyQueriesReturnTheKth) {
  auto v = data::generate(1 << 15, Distribution::kUniform, 71);
  std::span<const u32> vs(v.data(), v.size());
  const u64 k = 200;
  const u32 kth = reference_topk(vs, k).back();

  TopkServer server(shared_device());
  auto r = server
               .submit(Query::view(vs, k, Criterion::kLargest,
                                   /*selection_only=*/true))
               .get();
  ASSERT_EQ(r.values.size(), 1u);
  EXPECT_EQ(r.kth, static_cast<u64>(kth));
  EXPECT_EQ(r.values[0], static_cast<u64>(kth));
}

TEST(Serve, OwnedPayloadQueries) {
  std::vector<u32> payload(1 << 14);
  for (u64 i = 0; i < payload.size(); ++i)
    payload[i] = data::rand_u32(81, i);
  std::span<const u32> ps(payload.data(), payload.size());
  const auto expect = widen(reference_topk(ps, 50));

  TopkServer server(shared_device());
  auto r = server.submit(Query::owned(std::move(payload), 50)).get();
  EXPECT_EQ(r.values, expect);
}

TEST(Serve, SmallestCriterionThroughServer) {
  auto v = data::generate(1 << 15, Distribution::kUniform, 91);
  std::span<const u32> vs(v.data(), v.size());
  std::vector<u32> asc(v.begin(), v.end());
  std::sort(asc.begin(), asc.end());
  asc.resize(20);

  TopkServer server(shared_device());
  auto r = server.submit(Query::view(vs, 20, Criterion::kSmallest)).get();
  EXPECT_EQ(r.values, widen(asc));
}

TEST(Serve, RejectsInvalidQueries) {
  auto v = data::generate(1024, Distribution::kUniform, 95);
  std::span<const u32> vs(v.data(), v.size());
  TopkServer server(shared_device());
  EXPECT_THROW((void)server.submit(Query::view(vs, 0)),
               std::invalid_argument);
  EXPECT_THROW((void)server.submit(Query::view(vs, 2048)),
               std::invalid_argument);
  EXPECT_THROW((void)server.submit(Query::view(std::span<const u32>{}, 1)),
               std::invalid_argument);
}

TEST(Serve, StatsAreCoherent) {
  auto v = data::generate(1 << 15, Distribution::kUniform, 97);
  std::span<const u32> vs(v.data(), v.size());
  ServerConfig cfg;
  cfg.executors = 2;
  TopkServer server(shared_device(), cfg);

  std::vector<Query> queries;
  for (int i = 0; i < 6; ++i) queries.push_back(Query::view(vs, 100));
  (void)server.run_batch(queries);
  (void)server.run_batch(queries);  // second group of the same shape: hits

  const ServerStats s = server.stats();
  EXPECT_EQ(s.completed, 12u);
  EXPECT_EQ(s.failed, 0u);
  EXPECT_GT(s.qps(), 0.0);
  EXPECT_GT(s.makespan_sim_ms, 0.0);
  // The busiest executor cannot have done more than all query work plus
  // the one-time calibration probes (which belong to no query's latency).
  EXPECT_LE(s.makespan_sim_ms, s.total_sim_ms + s.calibration_sim_ms + 1e-9);
  EXPECT_LE(s.p50_sim_ms, s.p99_sim_ms + 1e-12);
  EXPECT_GT(s.plan_hit_rate(), 0.0);  // recurring shape hits after group 1
}

TEST(Serve, MixedKGroupKeepsFusionForFeasibleQueries) {
  // One near-n outlier in a group must not disable shared construction for
  // the feasible majority: the delegate vector is sized for the largest
  // feasible k, the outlier runs unfused, everyone stays exact.
  auto v = data::generate(2048, Distribution::kUniform, 98);
  std::span<const u32> vs(v.data(), v.size());

  ServerConfig cfg;
  cfg.executors = 1;
  cfg.batch_max = 8;
  TopkServer server(shared_device(), cfg);

  std::vector<Query> queries;
  queries.push_back(Query::view(vs, 1800));  // delegation infeasible
  for (int i = 0; i < 7; ++i) queries.push_back(Query::view(vs, 10));
  auto results = server.run_batch(queries);

  EXPECT_EQ(results[0].values, widen(reference_topk(vs, 1800)));
  EXPECT_FALSE(results[0].fused);
  for (size_t i = 1; i < results.size(); ++i) {
    EXPECT_EQ(results[i].values, widen(reference_topk(vs, 10))) << i;
    EXPECT_TRUE(results[i].fused) << i;
  }
  EXPECT_EQ(server.stats().groups, 1u);
}

TEST(Serve, BatchedFinalizeOneSecondTopkLaunchPerWarmedGroup) {
  // The launch-count regression test: a warmed server with batching enabled
  // must perform exactly ONE second-top-k launch per admission group.
  const u64 n = 1 << 16;
  auto v = data::generate(n, Distribution::kUniform, 103);
  std::span<const u32> vs(v.data(), v.size());

  ServerConfig cfg;
  cfg.executors = 1;  // deterministic grouping: one group per batch
  cfg.batch_max = 8;
  TopkServer server(shared_device(), cfg);

  std::vector<Query> queries;
  for (int i = 0; i < 8; ++i) queries.push_back(Query::view(vs, 64 + 8 * i));

  (void)server.run_batch(queries);  // warm: plans calibrate, arenas grow
  const ServerStats warm = server.stats();
  EXPECT_GE(warm.batched_groups, 1u);

  const int rounds = 3;
  for (int r = 0; r < rounds; ++r) {
    auto results = server.run_batch(queries);
    for (size_t i = 0; i < queries.size(); ++i)
      ASSERT_EQ(results[i].values, widen(reference_topk(vs, queries[i].k)))
          << i;
  }
  const ServerStats after = server.stats();
  const u64 groups = after.groups - warm.groups;
  EXPECT_EQ(groups, static_cast<u64>(rounds));
  // Exactly one batched finalization — and one selection launch — per group.
  EXPECT_EQ(after.batched_groups - warm.batched_groups, groups);
  EXPECT_EQ(after.finalize_launches - warm.finalize_launches, groups);
  // Every query of every warmed group rode the batch.
  EXPECT_EQ(after.batched_queries - warm.batched_queries,
            groups * queries.size());
}

TEST(Serve, BatchedAndPerQueryPathsAreBitIdentical) {
  // The parity suite at server level: batched selection on vs off (the
  // PR-2 per-query baseline) across distributions, widths, criteria and
  // mixed k — identical answers, same group structure.
  auto a = data::generate(1 << 15, Distribution::kUniform, 111);
  auto b = data::generate((1 << 14) + 321, Distribution::kNormal, 112);
  auto c = data::generate(1 << 14, Distribution::kCustomized, 113);
  std::vector<u64> d(1 << 13);
  for (u64 i = 0; i < d.size(); ++i) d[i] = data::rand_u64(114, i);
  std::span<const u32> as(a.data(), a.size());
  std::span<const u32> bs(b.data(), b.size());
  std::span<const u32> cs(c.data(), c.size());
  std::span<const u64> dsn(d.data(), d.size());

  std::vector<Query> queries;
  for (u64 k : {u64{1}, u64{33}, u64{512}}) {
    queries.push_back(Query::view(as, k));
    queries.push_back(Query::view(bs, k, Criterion::kSmallest));
    queries.push_back(Query::view(cs, k, Criterion::kLargest,
                                  /*selection_only=*/true));
    queries.push_back(Query::view(dsn, k));
  }

  ServerConfig batched_cfg;
  batched_cfg.executors = 3;
  TopkServer batched(shared_device(), batched_cfg);
  auto br = batched.run_batch(queries);

  ServerConfig per_cfg;
  per_cfg.executors = 3;
  per_cfg.batched_select = false;
  TopkServer per(shared_device(), per_cfg);
  auto pr2 = per.run_batch(queries);

  ASSERT_EQ(br.size(), pr2.size());
  for (size_t i = 0; i < br.size(); ++i) {
    EXPECT_EQ(br[i].values, pr2[i].values) << "query " << i;
    EXPECT_EQ(br[i].kth, pr2[i].kth) << "query " << i;
  }
  EXPECT_GE(batched.stats().batched_queries, 1u);
  EXPECT_EQ(per.stats().batched_queries, 0u);
  EXPECT_EQ(per.stats().finalize_launches, 0u);
}

TEST(Serve, BatchedStreamedSubmitsStayExact) {
  // One-at-a-time submissions (late joiners ride in-flight groups) through
  // the batched path: deferral bookkeeping must close every group.
  const u64 n = 1 << 16;
  auto v = data::generate(n, Distribution::kUniform, 121);
  std::span<const u32> vs(v.data(), v.size());
  const auto expect = widen(reference_topk(vs, 96));

  ServerConfig cfg;
  cfg.executors = 2;
  TopkServer server(shared_device(), cfg);
  for (int round = 0; round < 3; ++round) {
    std::vector<std::future<QueryResult>> futures;
    for (int i = 0; i < 12; ++i)
      futures.push_back(server.submit(Query::view(vs, 96)));
    for (auto& f : futures) EXPECT_EQ(f.get().values, expect);
  }
  EXPECT_EQ(server.stats().completed, 36u);
  EXPECT_EQ(server.stats().failed, 0u);
}

TEST(Serve, DedupIdenticalQueriesShareOneClass) {
  // N identical queries: one leader runs phase A, everyone else subscribes
  // to its candidate span; results are bit-identical and exactly one query
  // class forms.
  const u64 n = 1 << 16;
  auto v = data::generate(n, Distribution::kUniform, 131);
  std::span<const u32> vs(v.data(), v.size());
  const auto expect = widen(reference_topk(vs, 100));

  ServerConfig cfg;
  cfg.executors = 1;  // deterministic grouping: one group
  cfg.batch_max = 8;
  TopkServer server(shared_device(), cfg);

  std::vector<Query> queries;
  for (int i = 0; i < 8; ++i) queries.push_back(Query::view(vs, 100));
  auto results = server.run_batch(queries);
  for (size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(results[i].values, expect) << i;
    EXPECT_EQ(results[i].kth, expect.back()) << i;
  }

  const ServerStats s = server.stats();
  EXPECT_EQ(s.completed, 8u);
  EXPECT_EQ(s.failed, 0u);
  EXPECT_EQ(s.dedup_classes, 1u);
  EXPECT_EQ(s.deduped_queries, 7u);
  // Everyone was delivered by the one batched finalization.
  EXPECT_EQ(s.batched_queries, 8u);
  EXPECT_EQ(s.batched_groups, 1u);
}

TEST(Serve, DedupMixedIdenticalAndDistinctQueries) {
  // Only the identical members share a class; distinct ks still run their
  // own phase A and everyone stays exact.
  const u64 n = 1 << 16;
  auto v = data::generate(n, Distribution::kUniform, 133);
  std::span<const u32> vs(v.data(), v.size());

  ServerConfig cfg;
  cfg.executors = 1;
  cfg.batch_max = 8;
  TopkServer server(shared_device(), cfg);

  std::vector<Query> queries;
  for (int i = 0; i < 4; ++i) queries.push_back(Query::view(vs, 64));
  for (u64 k : {u64{33}, u64{128}, u64{256}, u64{512}})
    queries.push_back(Query::view(vs, k));
  auto results = server.run_batch(queries);
  for (size_t i = 0; i < queries.size(); ++i)
    EXPECT_EQ(results[i].values, widen(reference_topk(vs, queries[i].k)))
        << i;

  const ServerStats s = server.stats();
  EXPECT_EQ(s.dedup_classes, 1u);    // only k=64 actually shared
  EXPECT_EQ(s.deduped_queries, 3u);  // its three subscribers
  EXPECT_EQ(s.failed, 0u);
}

TEST(Serve, DedupSelectionOnlySplitsTheClass) {
  // Same k but different selection_only must NOT share a span-emission
  // contract: two classes, both exact.
  auto v = data::generate(1 << 15, Distribution::kUniform, 137);
  std::span<const u32> vs(v.data(), v.size());
  const auto full = widen(reference_topk(vs, 77));

  ServerConfig cfg;
  cfg.executors = 1;
  cfg.batch_max = 8;
  TopkServer server(shared_device(), cfg);

  std::vector<Query> queries;
  for (int i = 0; i < 3; ++i) queries.push_back(Query::view(vs, 77));
  for (int i = 0; i < 3; ++i)
    queries.push_back(Query::view(vs, 77, Criterion::kLargest,
                                  /*selection_only=*/true));
  auto results = server.run_batch(queries);
  for (int i = 0; i < 3; ++i) EXPECT_EQ(results[i].values, full) << i;
  for (int i = 3; i < 6; ++i) {
    ASSERT_EQ(results[i].values.size(), 1u) << i;
    EXPECT_EQ(results[i].kth, full.back()) << i;
  }
  const ServerStats s = server.stats();
  EXPECT_EQ(s.dedup_classes, 2u);
  EXPECT_EQ(s.deduped_queries, 4u);
}

TEST(Serve, DedupParityWithDedupOffAcrossMatrix) {
  // Dedup on vs off over distributions x widths x criteria x duplicate
  // patterns: bit-identical answers (the acceptance parity matrix).
  auto a = data::generate(1 << 15, Distribution::kUniform, 141);
  auto b = data::generate((1 << 14) + 99, Distribution::kNormal, 142);
  auto c = data::generate(1 << 14, Distribution::kCustomized, 143);
  std::vector<u64> d(1 << 13);
  for (u64 i = 0; i < d.size(); ++i) d[i] = data::rand_u64(144, i);
  std::span<const u32> as(a.data(), a.size());
  std::span<const u32> bs(b.data(), b.size());
  std::span<const u32> cs(c.data(), c.size());
  std::span<const u64> dsn(d.data(), d.size());

  std::vector<Query> queries;
  for (int rep = 0; rep < 3; ++rep) {  // duplicates across every signature
    for (u64 k : {u64{1}, u64{33}, u64{512}}) {
      queries.push_back(Query::view(as, k));
      queries.push_back(Query::view(bs, k, Criterion::kSmallest));
      queries.push_back(Query::view(cs, k, Criterion::kLargest,
                                    /*selection_only=*/true));
      queries.push_back(Query::view(dsn, k));
    }
  }

  ServerConfig on_cfg;
  on_cfg.executors = 3;
  on_cfg.dedup = true;
  TopkServer on(shared_device(), on_cfg);
  auto ron = on.run_batch(queries);

  ServerConfig off_cfg;
  off_cfg.executors = 3;
  off_cfg.dedup = false;
  TopkServer off(shared_device(), off_cfg);
  auto roff = off.run_batch(queries);

  ASSERT_EQ(ron.size(), roff.size());
  for (size_t i = 0; i < ron.size(); ++i) {
    EXPECT_EQ(ron[i].values, roff[i].values) << "query " << i;
    EXPECT_EQ(ron[i].kth, roff[i].kth) << "query " << i;
  }
  EXPECT_GE(on.stats().deduped_queries, 1u);
  EXPECT_EQ(off.stats().deduped_queries, 0u);
}

TEST(Serve, WindowMergesTwoCorporaIntoOneFinalizeLaunch) {
  // Two admission groups on DIFFERENT corpora completing within the window
  // must be finalized by ONE shared batched launch (the cross-group
  // staging area): launch-count-asserted extension of the PR-3 regression
  // test. The segment cap (5: above one group's four leaders, at or below
  // two groups' worth even if a query resolves inline via the Rule-3 fast
  // path) fires the flush as soon as the second group parks, so the test
  // never waits out the generous window.
  const u64 n = 1 << 15;
  auto va = data::generate(n, Distribution::kUniform, 151);
  auto vb = data::generate(n, Distribution::kNormal, 152);
  std::span<const u32> as(va.data(), va.size());
  std::span<const u32> bs(vb.data(), vb.size());

  ServerConfig cfg;
  cfg.executors = 2;  // the window owner blocks; the peer drains the rest
  cfg.batch_max = 4;
  cfg.finalize_window_us = 1'000'000;  // cap-triggered long before this
  cfg.finalize_max_segments = 5;
  TopkServer server(shared_device(), cfg);

  std::vector<Query> queries;
  for (u64 k : {u64{32}, u64{64}, u64{96}, u64{128}})
    queries.push_back(Query::view(as, k));
  for (u64 k : {u64{32}, u64{64}, u64{96}, u64{128}})
    queries.push_back(Query::view(bs, k));
  auto results = server.run_batch(queries);
  for (size_t i = 0; i < 4; ++i)
    EXPECT_EQ(results[i].values, widen(reference_topk(as, queries[i].k)))
        << i;
  for (size_t i = 4; i < 8; ++i)
    EXPECT_EQ(results[i].values, widen(reference_topk(bs, queries[i].k)))
        << i;

  const ServerStats s = server.stats();
  EXPECT_EQ(s.failed, 0u);
  EXPECT_EQ(s.batched_groups, 2u);
  EXPECT_EQ(s.window_flushes, 1u);
  EXPECT_EQ(s.window_merged_groups, 2u);
  // THE assertion: both groups' (small, single-CTA) candidate segments
  // rode one launch.
  EXPECT_EQ(s.finalize_launches, 1u);
}

TEST(Serve, WindowZeroDedupOffReplaysPr3Behavior) {
  // The PR-3 configuration (window=0, dedup=off) must be exactly
  // reproducible: per-group finalization, one launch per warmed group, no
  // dedup/window counters moving, answers bit-identical to defaults.
  const u64 n = 1 << 16;
  auto v = data::generate(n, Distribution::kUniform, 155);
  std::span<const u32> vs(v.data(), v.size());

  ServerConfig pr3;
  pr3.executors = 1;
  pr3.batch_max = 8;
  pr3.dedup = false;
  pr3.finalize_window_us = 0;
  TopkServer server(shared_device(), pr3);

  std::vector<Query> queries;
  for (int i = 0; i < 8; ++i) queries.push_back(Query::view(vs, 64 + 8 * i));
  (void)server.run_batch(queries);  // warm
  const ServerStats warm = server.stats();
  const int rounds = 2;
  for (int r = 0; r < rounds; ++r) {
    auto results = server.run_batch(queries);
    for (size_t i = 0; i < queries.size(); ++i)
      ASSERT_EQ(results[i].values, widen(reference_topk(vs, queries[i].k)))
          << i;
  }
  const ServerStats after = server.stats();
  EXPECT_EQ(after.groups - warm.groups, static_cast<u64>(rounds));
  EXPECT_EQ(after.batched_groups - warm.batched_groups,
            static_cast<u64>(rounds));
  EXPECT_EQ(after.finalize_launches - warm.finalize_launches,
            static_cast<u64>(rounds));
  EXPECT_EQ(after.deduped_queries, 0u);
  EXPECT_EQ(after.dedup_classes, 0u);
  EXPECT_EQ(after.window_flushes, 0u);
  EXPECT_EQ(after.window_merged_groups, 0u);
}

TEST(Serve, WindowSpanLifetimeStressAcrossGroups) {
  // Span-lifetime stress: groups park in the staging area and are
  // finalized by an executor that never ran them — their arena-backed
  // candidate spans (dedup-shared included) must stay valid until the
  // shared launch consumes them. Several rounds over four corpora with
  // duplicate queries; everything must stay exact with zero failures.
  const u64 n = 1 << 14;
  std::vector<vgpu::device_vector<u32>> corpora;
  for (u64 t = 0; t < 4; ++t)
    corpora.push_back(data::generate(n, Distribution::kUniform, 161 + t));

  ServerConfig cfg;
  cfg.executors = 3;
  cfg.batch_max = 4;
  // The window is only the fallback bound: the cap (above one group's
  // three leader segments, below two groups' worth) drives the flushes,
  // so a straggler round costs at most 200ms instead of hanging the test.
  cfg.finalize_window_us = 200'000;
  cfg.finalize_max_segments = 4;  // force multi-group flushes
  TopkServer server(shared_device(), cfg);

  for (int round = 0; round < 4; ++round) {
    std::vector<Query> queries;
    for (u64 t = 0; t < 4; ++t) {
      std::span<const u32> vs(corpora[t].data(), corpora[t].size());
      queries.push_back(Query::view(vs, 40));
      queries.push_back(Query::view(vs, 40));  // dedup inside the window
      queries.push_back(Query::view(vs, 80));
      queries.push_back(Query::view(vs, 120));
    }
    auto results = server.run_batch(queries);
    for (size_t i = 0; i < queries.size(); ++i) {
      std::span<const u32> vs = queries[i].data32();
      ASSERT_EQ(results[i].values,
                widen(reference_topk(vs, queries[i].k)))
          << "round " << round << " query " << i;
    }
  }
  const ServerStats s = server.stats();
  EXPECT_EQ(s.failed, 0u);
  EXPECT_EQ(s.completed, 64u);
  EXPECT_GE(s.window_merged_groups, 2u);
  EXPECT_GE(s.deduped_queries, 1u);
}

TEST(Serve, WindowEarlyFlushFiresWhenPoolGoesIdle) {
  // Queue-empty early flush: a single-executor server with an absurdly
  // long window must NOT pay it — once the pool is idle (one group, fully
  // executed, nothing queued) nothing can join the window, so the parked
  // owner flushes immediately. The wall-clock bound is the whole point:
  // without the early flush this test would sit out the full two seconds.
  const u64 n = 1 << 15;
  auto v = data::generate(n, Distribution::kNormal, 171);
  std::span<const u32> vs(v.data(), v.size());

  ServerConfig cfg;
  cfg.executors = 1;
  cfg.batch_max = 8;
  cfg.finalize_window_us = 2'000'000;
  TopkServer server(shared_device(), cfg);

  std::vector<Query> queries;
  for (int i = 0; i < 8; ++i)
    queries.push_back(Query::view(vs, 32 + 32 * static_cast<u64>(i)));

  topk::WallTimer wall;
  auto results = server.run_batch(queries);
  const double elapsed_ms = wall.ms();

  for (size_t i = 0; i < queries.size(); ++i)
    EXPECT_EQ(results[i].values, widen(reference_topk(vs, queries[i].k)))
        << i;
  EXPECT_LT(elapsed_ms, 1000.0);  // far below the 2 s window

  const ServerStats s = server.stats();
  EXPECT_EQ(s.failed, 0u);
  EXPECT_GE(s.window_flushes, 1u);
  EXPECT_GE(s.window_early_flushes, 1u);
  EXPECT_EQ(s.window_early_flushes, s.window_flushes);
}

TEST(Serve, WindowEarlyFlushOffReplaysTimerOnlyBehavior) {
  // The `window_early_flush=false` escape hatch replays PR-5: a
  // single-executor owner waits out the full window (no peers to cap-flush
  // it), so elapsed time is bounded BELOW by the window. Keeps the
  // early-flush win measurable against its predecessor.
  const u64 n = 1 << 14;
  auto v = data::generate(n, Distribution::kNormal, 173);
  std::span<const u32> vs(v.data(), v.size());

  ServerConfig cfg;
  cfg.executors = 1;
  cfg.batch_max = 4;
  cfg.finalize_window_us = 50'000;
  cfg.window_early_flush = false;
  TopkServer server(shared_device(), cfg);

  std::vector<Query> queries;
  for (u64 k : {u64{32}, u64{64}, u64{96}, u64{128}})
    queries.push_back(Query::view(vs, k));

  topk::WallTimer wall;
  auto results = server.run_batch(queries);
  const double elapsed_ms = wall.ms();

  for (size_t i = 0; i < queries.size(); ++i)
    EXPECT_EQ(results[i].values, widen(reference_topk(vs, queries[i].k)))
        << i;

  const ServerStats s = server.stats();
  EXPECT_EQ(s.failed, 0u);
  if (s.window_flushes > 0) {
    // The group actually parked (stage 4 deferred): the owner must have
    // waited out the timer, and no early flush may be recorded.
    EXPECT_GE(elapsed_ms, 50.0);
    EXPECT_EQ(s.window_early_flushes, 0u);
  }
}

TEST(Serve, BatchedConcatParityMatrixAcrossConfigs) {
  // The PR-8 acceptance parity matrix: group-wide batched stage 3 on vs
  // off (the PR-7 per-query stage 3) x dedup on/off, over distributions,
  // widths, criteria, selection_only and duplicate ks — every combination
  // bit-identical, and the baseline bit-identical to the reference.
  auto a = data::generate(1 << 15, Distribution::kUniform, 181);
  auto b = data::generate((1 << 14) + 99, Distribution::kNormal, 182);
  auto c = data::generate(1 << 14, Distribution::kCustomized, 183);
  std::vector<u64> d(1 << 13);
  for (u64 i = 0; i < d.size(); ++i) d[i] = data::rand_u64(184, i);
  std::span<const u32> as(a.data(), a.size());
  std::span<const u32> bs(b.data(), b.size());
  std::span<const u32> cs(c.data(), c.size());
  std::span<const u64> dsn(d.data(), d.size());

  std::vector<Query> queries;
  for (int rep = 0; rep < 2; ++rep) {  // duplicate ks exercise dedup
    for (u64 k : {u64{1}, u64{33}, u64{512}, u64{1000}}) {
      queries.push_back(Query::view(as, k));
      queries.push_back(Query::view(bs, k, Criterion::kSmallest));
      queries.push_back(Query::view(cs, k, Criterion::kLargest,
                                    /*selection_only=*/true));
      queries.push_back(Query::view(dsn, k));
    }
  }

  std::vector<std::vector<QueryResult>> runs;
  for (bool batched_concat : {true, false}) {
    for (bool dedup : {true, false}) {
      ServerConfig cfg;
      cfg.executors = 3;
      cfg.batched_concat = batched_concat;
      cfg.dedup = dedup;
      TopkServer server(shared_device(), cfg);
      runs.push_back(server.run_batch(queries));
      if (batched_concat) EXPECT_GE(server.stats().concat_launches, 1u);
    }
  }
  for (size_t run = 1; run < runs.size(); ++run) {
    ASSERT_EQ(runs[run].size(), runs[0].size());
    for (size_t i = 0; i < runs[0].size(); ++i) {
      EXPECT_EQ(runs[run][i].values, runs[0][i].values)
          << "run " << run << " query " << i;
      EXPECT_EQ(runs[run][i].kth, runs[0][i].kth)
          << "run " << run << " query " << i;
    }
  }
  // Anchor the agreeing configurations to the reference answers.
  for (size_t i = 0; i < queries.size(); ++i) {
    const Query& q = queries[i];
    std::vector<u64> expect = q.width() == KeyWidth::k64
                                  ? reference_topk(q.data64(), q.k)
                                  : widen(reference_topk(q.data32(), q.k));
    if (q.criterion == Criterion::kSmallest) {
      std::vector<u64> all(q.data32().begin(), q.data32().end());
      std::sort(all.begin(), all.end());
      all.resize(q.k);
      expect = all;
    }
    if (q.selection_only) {
      ASSERT_EQ(runs[0][i].values.size(), 1u) << i;
      EXPECT_EQ(runs[0][i].kth, expect.back()) << i;
    } else {
      EXPECT_EQ(runs[0][i].values, expect) << i;
    }
  }
}

TEST(Serve, BatchedConcatOneLaunchPairPerWarmedGroup) {
  // THE launch-count regression test: with batched_concat a warmed group
  // of 16 distinct-k queries costs ONE classify + ONE concat launch
  // (stage 3) and ~5 device launches total — construct, batched kappa,
  // classify, concat, batched finalize. Member queries launch nothing.
  const u64 n = 1 << 16;
  auto v = data::generate(n, Distribution::kUniform, 191);
  std::span<const u32> vs(v.data(), v.size());

  vgpu::Device dev(vgpu::GpuProfile::v100s());  // private launch ledger
  ServerConfig cfg;
  cfg.executors = 1;  // deterministic grouping: one group per batch
  cfg.batch_max = 16;
  TopkServer server(dev, cfg);

  std::vector<Query> queries;
  for (u64 i = 0; i < 16; ++i) queries.push_back(Query::view(vs, 32 * (i + 1)));

  (void)server.run_batch(queries);  // warm: plans calibrate, arenas grow
  (void)server.run_batch(queries);
  const ServerStats warm = server.stats();
  const u64 warm_launches = dev.total_stats().kernels_launched;

  const u64 rounds = 3;
  for (u64 r = 0; r < rounds; ++r) {
    auto results = server.run_batch(queries);
    for (size_t i = 0; i < queries.size(); ++i)
      ASSERT_EQ(results[i].values, widen(reference_topk(vs, queries[i].k)))
          << i;
  }
  const ServerStats after = server.stats();
  const u64 groups = after.groups - warm.groups;
  EXPECT_EQ(groups, rounds);
  // Exactly one classify + one concat launch per group, regardless of the
  // 16 member ks.
  EXPECT_EQ(after.concat_launches - warm.concat_launches, 2 * groups);
  EXPECT_EQ(after.finalize_launches - warm.finalize_launches, groups);
  EXPECT_EQ(after.relax_guard_trips, 0u);  // exact kappas: guard never fires
  // The whole-pipeline launch budget: at most 6 launches per group — vs
  // 16 queries * ~2 stage-3 launches each on the per-query path.
  const u64 launches = dev.total_stats().kernels_launched - warm_launches;
  EXPECT_LE(launches, 6 * groups);
  const double lpq = static_cast<double>(launches) /
                     static_cast<double>(queries.size() * rounds);
  EXPECT_LT(lpq, 0.5);
}

TEST(Serve, RelaxationGuardTripsAreCountedAndExported) {
  // All-equal data makes every delegate >= kappa, so the per-query path's
  // Section 4.3 relaxation guard must fire (taken_total > 4k), be counted
  // in ServerStats, and be visible in the Prometheus exposition. The
  // batched-concat path feeds exact kappas, so it never trips the guard —
  // the counter is the observability seam proving that.
  std::vector<u32> v(1 << 20, 42u);
  std::span<const u32> vs(v.data(), v.size());

  ServerConfig cfg;
  cfg.executors = 1;
  cfg.batched_select = false;  // per-query pipeline: relaxation active
  // Pin a small subrange size: the delegate vector must outgrow the
  // single-launch shared-memory first top-k (which is exact and would
  // bypass the relaxation entirely).
  cfg.base.alpha = 5;
  TopkServer server(shared_device(), cfg);
  auto r = server.submit(Query::view(vs, 16)).get();
  EXPECT_EQ(r.values, std::vector<u64>(16, 42u));

  const ServerStats s = server.stats();
  EXPECT_GE(s.relax_guard_trips, 1u);
  EXPECT_NE(server.metrics_prometheus().find("serve_relax_guard_trips"),
            std::string::npos);
}

TEST(Serve, BatchedConcatStreamedLateJoinersStayExact) {
  // Streamed one-at-a-time submits with batched_concat: late joiners whose
  // k missed the group's precomputed stage 3 fall back to the per-item
  // deferred path inside the same group; everything stays exact across
  // duplicate and distinct ks.
  const u64 n = 1 << 16;
  auto v = data::generate(n, Distribution::kNormal, 193);
  std::span<const u32> vs(v.data(), v.size());

  ServerConfig cfg;
  cfg.executors = 2;
  cfg.batched_concat = true;
  TopkServer server(shared_device(), cfg);
  for (int round = 0; round < 3; ++round) {
    std::vector<std::future<QueryResult>> futures;
    std::vector<u64> ks;
    for (int i = 0; i < 12; ++i) {
      const u64 k = 16 + 16 * static_cast<u64>(i % 6);
      ks.push_back(k);
      futures.push_back(server.submit(Query::view(vs, k)));
    }
    for (size_t i = 0; i < futures.size(); ++i)
      EXPECT_EQ(futures[i].get().values, widen(reference_topk(vs, ks[i])))
          << "round " << round << " query " << i;
  }
  EXPECT_EQ(server.stats().completed, 36u);
  EXPECT_EQ(server.stats().failed, 0u);
}

TEST(Serve, FallbackWhenDelegationInfeasible) {
  // k close to n: delegation infeasible, server must degrade to the direct
  // path and still answer exactly.
  auto v = data::generate(2048, Distribution::kUniform, 99);
  std::span<const u32> vs(v.data(), v.size());
  TopkServer server(shared_device());
  auto r = server.submit(Query::view(vs, 1800)).get();
  EXPECT_EQ(r.values, widen(reference_topk(vs, 1800)));
  EXPECT_FALSE(r.fused);
}

// ---- Registered corpora: the corpus index --------------------------------

/// std::sort oracle: the k best values under `c`, best-first, widened.
template <class T>
std::vector<u64> sorted_best(std::span<const T> vs, u64 k, Criterion c) {
  std::vector<T> v(vs.begin(), vs.end());
  if (c == Criterion::kLargest)
    std::sort(v.begin(), v.end(), std::greater<T>());
  else
    std::sort(v.begin(), v.end());
  return {v.begin(), v.begin() + static_cast<i64>(k)};
}

/// Oracle of the recall-target answer: the k best per-subrange bests
/// (subranges of 2^alpha elements), i.e. the top-k of the beta=1 delegates.
template <class T>
std::vector<u64> delegate_best(std::span<const T> v, int alpha, u64 k,
                               Criterion c) {
  std::vector<T> best;
  const u64 len = u64{1} << alpha;
  for (u64 lo = 0; lo < v.size(); lo += len) {
    const auto b = v.begin() + static_cast<i64>(lo);
    const auto e = v.begin() + static_cast<i64>(std::min<u64>(lo + len,
                                                              v.size()));
    best.push_back(c == Criterion::kLargest ? *std::max_element(b, e)
                                            : *std::min_element(b, e));
  }
  return sorted_best(std::span<const T>(best), std::min<u64>(k, best.size()),
                     c);
}

/// The expected answer of one query: exact -> std::sort prefix; recall
/// target -> the delegate oracle at the alpha the server reported (a
/// direct fallback is exact); selection-only keeps just the k-th value.
/// Sorts once per corpus and once per alpha.
template <class T>
struct Oracle {
  Oracle(std::span<const T> values, Criterion crit)
      : v(values), c(crit), all(sorted_best(values, values.size(), crit)) {}

  std::vector<u64> expected(const QueryResult& r, u64 k, bool approx,
                            bool sel) {
    const std::vector<u64>* src = &all;
    if (approx && !r.breakdown.fallback_direct) {
      auto it = bests.find(r.breakdown.alpha);
      if (it == bests.end())
        it = bests
                 .emplace(r.breakdown.alpha,
                          delegate_best(v, r.breakdown.alpha, v.size(), c))
                 .first;
      src = &it->second;
    }
    if (k > src->size()) return {};
    std::vector<u64> e(src->begin(), src->begin() + static_cast<i64>(k));
    if (sel) e = {e.back()};
    return e;
  }

  std::span<const T> v;
  Criterion c;
  std::vector<u64> all;                    ///< every value, best-first
  std::map<int, std::vector<u64>> bests;   ///< per-subrange bests by alpha
};

/// Registered answers against the std::sort oracle and against the same
/// queries sent as Query::view, over k in {1, |D|-1, |D|, |D|+1, n-1, n},
/// both selection modes, as one setup snapshot and again as streamed late
/// joiners.
template <class T>
void registered_oracle_case(Criterion c, bool approx, bool all_equal,
                            u64 seed) {
  const u64 n = (u64{1} << 16) + 37;  // ragged last subrange
  std::vector<T> v(n);
  for (u64 i = 0; i < n; ++i)
    v[i] = all_equal ? T{42} : static_cast<T>(data::rand_u64(seed, i));
  const std::span<const T> vs(v.data(), v.size());
  Oracle<T> oracle(vs, c);

  const int alpha = 6;
  const u64 beta = approx ? 1 : 2;
  const u64 D = ((n + 63) >> alpha) * beta;  // |D| of a group built at k <= |D|
  const core::FidelityPolicy f =
      approx ? core::FidelityPolicy::approx(0.9) : core::FidelityPolicy{};

  ServerConfig cfg;
  cfg.executors = 2;
  cfg.batch_max = 16;
  cfg.base.alpha = alpha;
  TopkServer server(shared_device(), cfg);
  const CorpusId id = server.register_corpus(vs);

  struct Case {
    u64 k;
    bool sel;
  };
  std::vector<Case> cases;
  for (u64 k : {u64{1}, D - 1, D, D + 1, n - 1, n})
    for (bool sel : {false, true}) cases.push_back({k, sel});
  const std::string what = std::string(sizeof(T) == 8 ? "u64" : "u32") +
                           (c == Criterion::kLargest ? " largest" : " smallest") +
                           (approx ? " recall" : " exact") +
                           (all_equal ? " all-equal" : "");

  // One atomic batch: every case is a member of the setup snapshot.
  std::vector<Query> reg, views;
  for (const Case& cs : cases) {
    reg.push_back(server.registered_query(id, cs.k, c, cs.sel, f));
    views.push_back(Query::view(vs, cs.k, c, cs.sel, f));
  }
  const auto rr = server.run_batch(reg);
  const auto vr = server.run_batch(views);
  for (size_t i = 0; i < cases.size(); ++i) {
    const Case& cs = cases[i];
    EXPECT_EQ(rr[i].values, vr[i].values) << what << " k=" << cs.k;
    EXPECT_EQ(rr[i].kth, vr[i].kth) << what << " k=" << cs.k;
    EXPECT_EQ(rr[i].values, oracle.expected(rr[i], cs.k, approx, cs.sel))
        << what << " k=" << cs.k << " sel=" << cs.sel;
  }

  EXPECT_EQ(server.stats().failed, 0u);

  // Late joiners: one executor gets a group whose snapshot is {k = n-1,
  // k = 1} (admitted atomically by run_batch). Setup builds for k = 1; the
  // executor then claims the k = n-1 member first — a slow direct top-k —
  // and the group stays open while it runs, so queries submitted now join
  // after the setup snapshot. Their kappa comes from the index, and
  // k = |D|+1 takes the per-query fallback. The pause before submitting
  // grows per attempt until every case joined late.
  u64 late = 0;
  for (int attempt = 0; attempt < 6 && late < cases.size(); ++attempt) {
    ServerConfig one = cfg;
    one.executors = 1;
    TopkServer solo(shared_device(), one);
    const CorpusId sid = solo.register_corpus(vs);
    (void)solo.submit(sid, 1, c, false, f).get();  // warm plan + index
    const u64 late0 = solo.stats().late_joiners;
    auto snapshot = std::async(std::launch::async, [&] {
      return solo.run_batch({solo.registered_query(sid, n - 1, c, false, f),
                             solo.registered_query(sid, 1, c, false, f)});
    });
    std::this_thread::sleep_for(std::chrono::microseconds(200 << attempt));
    std::vector<std::future<QueryResult>> rf;
    for (const Case& cs : cases)
      rf.push_back(solo.submit(sid, cs.k, c, cs.sel, f));
    for (size_t i = 0; i < cases.size(); ++i) {
      const Case& cs = cases[i];
      const QueryResult r = rf[i].get();
      EXPECT_EQ(r.values, oracle.expected(r, cs.k, approx, cs.sel))
          << what << " late k=" << cs.k << " sel=" << cs.sel;
      if (r.breakdown.alpha == rr[i].breakdown.alpha)
        EXPECT_EQ(r.values, vr[i].values) << what << " late k=" << cs.k;
    }
    (void)snapshot.get();
    late = std::max(late, solo.stats().late_joiners - late0);
  }
  EXPECT_GE(late, 1u) << what;
}

TEST(Serve, RegisteredCorpusOracleMatrix) {
  u64 seed = 701;
  for (Criterion c : {Criterion::kLargest, Criterion::kSmallest}) {
    for (bool approx : {false, true}) {
      registered_oracle_case<u32>(c, approx, false, seed++);
      registered_oracle_case<u64>(c, approx, false, seed++);
      registered_oracle_case<u32>(c, approx, true, seed++);
    }
  }
}

/// Per-stage launches from a device's ledger.
std::map<std::string, u64> ledger(const vgpu::Device& dev) {
  std::map<std::string, u64> out;
  for (const auto& st : dev.stage_stats())
    out[st.stage] = st.stats.kernels_launched;
  return out;
}

/// Runs one warmed round of `batch` and checks that the device ledger's
/// per-stage launch deltas equal the server's counters; returns the
/// ledger delta.
std::map<std::string, u64> pinned_round(TopkServer& server,
                                        const vgpu::Device& dev,
                                        const std::vector<Query>& batch) {
  (void)server.run_batch(batch);  // warm: plans calibrate, indexes build
  (void)server.run_batch(batch);
  const auto l0 = ledger(dev);
  const ServerStats s0 = server.stats();
  (void)server.run_batch(batch);
  auto l1 = ledger(dev);
  const ServerStats s1 = server.stats();
  for (auto& [stage, n] : l1) n -= l0.count(stage) ? l0.at(stage) : 0;
  const auto launches = [](const vgpu::KernelStats& a,
                           const vgpu::KernelStats& b) {
    return a.kernels_launched - b.kernels_launched;
  };
  EXPECT_EQ(s1.groups - s0.groups, 1u);
  EXPECT_EQ(l1["construct"],
            launches(s1.stages.construct_stats, s0.stages.construct_stats));
  EXPECT_EQ(l1["first"],
            launches(s1.stages.first_stats, s0.stages.first_stats));
  EXPECT_EQ(l1["concat"], s1.concat_launches - s0.concat_launches);
  EXPECT_EQ(l1["second"], s1.finalize_launches - s0.finalize_launches);
  EXPECT_EQ(dev.unattributed_launches(), 0u);
  return l1;
}

TEST(Serve, StageLedgerMatchesServerCountersOnBothPaths) {
  // The device ledger and ServerStats are two views of the same launches:
  // per stage, over one warmed group, they must agree — on the ephemeral
  // (Query::view) path and on the registered-corpus path.
  const u64 n = 1 << 16;
  auto v = data::generate(n, Distribution::kUniform, 211);
  std::span<const u32> vs(v.data(), v.size());
  ServerConfig cfg;
  cfg.executors = 1;  // deterministic grouping: one group per batch
  cfg.batch_max = 16;

  {
    vgpu::Device dev(vgpu::GpuProfile::v100s());
    TopkServer server(dev, cfg);
    std::vector<Query> batch;
    for (u64 i = 0; i < 16; ++i)
      batch.push_back(Query::view(vs, 32 * (i + 1)));
    const auto l = pinned_round(server, dev, batch);
    EXPECT_EQ(l.at("construct"), 1u);  // the group's delegate build
    EXPECT_EQ(l.at("first"), 1u);      // the batched kappa launch
    EXPECT_EQ(l.at("concat"), 2u);     // ONE classify + concat pair
  }
  {
    vgpu::Device dev(vgpu::GpuProfile::v100s());
    TopkServer server(dev, cfg);
    const CorpusId id = server.register_corpus(vs);
    std::vector<Query> batch;
    for (u64 i = 0; i < 16; ++i)
      batch.push_back(server.registered_query(id, 32 * (i + 1)));
    auto l = pinned_round(server, dev, batch);
    EXPECT_EQ(l["construct"], 0u);  // the index holds the delegates
    EXPECT_EQ(l["first"], 0u);      // every kappa is a lookup
    EXPECT_EQ(l["concat"], 2u);
    const ServerStats s = server.stats();
    EXPECT_EQ(s.index_builds, 1u);
    EXPECT_EQ(s.index_hits, s.groups - 1);
    EXPECT_GT(s.index_bytes, 0u);
  }
}

TEST(Serve, RegisteredRecallGroupLaunchesNothing) {
  // A recall-target group on a registered corpus copies every answer from
  // the index's sorted delegates: after the build, no launch at all.
  const u64 n = 1 << 16;
  auto v = data::generate(n, Distribution::kUniform, 213);
  std::span<const u32> vs(v.data(), v.size());
  vgpu::Device dev(vgpu::GpuProfile::v100s());
  ServerConfig cfg;
  cfg.executors = 1;
  TopkServer server(dev, cfg);
  const CorpusId id = server.register_corpus(vs);
  const auto f = core::FidelityPolicy::approx(0.9);
  std::vector<Query> batch;
  for (u64 k : {16, 64, 256})
    batch.push_back(
        server.registered_query(id, k, Criterion::kLargest, false, f));
  (void)server.run_batch(batch);
  const u64 launches = dev.total_stats().kernels_launched;
  for (int r = 0; r < 3; ++r) {
    auto res = server.run_batch(batch);
    for (size_t i = 0; i < batch.size(); ++i)
      EXPECT_EQ(res[i].values,
                delegate_best(vs, res[i].breakdown.alpha, batch[i].k,
                              Criterion::kLargest));
  }
  EXPECT_EQ(dev.total_stats().kernels_launched, launches);
}

TEST(Serve, RacingColdSetupsBuildTheIndexOnce) {
  // Many executors set up groups on one cold (corpus, alpha) at once: the
  // per-entry once-guard must build exactly one index; everyone else hits.
  const u64 n = 1 << 18;
  auto v = data::generate(n, Distribution::kUniform, 215);
  std::span<const u32> vs(v.data(), v.size());
  ServerConfig cfg;
  cfg.executors = 4;
  cfg.batch_max = 1;  // one group per query: every setup races
  cfg.base.alpha = 7;  // one alpha for every k below
  TopkServer server(shared_device(), cfg);
  const CorpusId id = server.register_corpus(vs);
  std::vector<Query> batch;
  for (u64 i = 0; i < 16; ++i)
    batch.push_back(server.registered_query(id, 100 + i));
  auto res = server.run_batch(batch);
  for (size_t i = 0; i < batch.size(); ++i)
    EXPECT_EQ(res[i].values, widen(reference_topk(vs, batch[i].k))) << i;
  const ServerStats s = server.stats();
  EXPECT_EQ(s.groups, 16u);
  EXPECT_EQ(s.index_builds, 1u);
  EXPECT_EQ(s.index_hits, 15u);
}

TEST(Serve, UnregisterWithQueriesInFlightStaysCorrectAndFreesTheIndex) {
  const u64 n = 1 << 17;
  auto v = data::generate(n, Distribution::kUniform, 217);
  std::span<const u32> vs(v.data(), v.size());
  ServerConfig cfg;
  cfg.executors = 1;
  TopkServer server(shared_device(), cfg);
  const CorpusId id = server.register_corpus(vs);
  // A slow unrelated query (a direct top-k over a large payload) holds
  // the only executor, so every registered query below is still queued
  // when its corpus is unregistered — its index is built afterwards.
  std::vector<u32> big(u64{1} << 19);
  for (u64 i = 0; i < big.size(); ++i)
    big[i] = static_cast<u32>(data::rand_u64(218, i));
  auto blocker = server.submit(Query::owned(big, big.size() - 1));
  std::vector<u64> ks;
  std::vector<std::future<QueryResult>> futures;
  for (u64 i = 0; i < 32; ++i) {
    ks.push_back(16 + 8 * i);
    futures.push_back(server.submit(id, ks.back()));
  }
  server.unregister_corpus(id);
  EXPECT_EQ(server.stats().index_builds, 0u);
  EXPECT_THROW(server.submit(id, 10), std::invalid_argument);
  EXPECT_THROW(server.unregister_corpus(id), std::invalid_argument);
  for (size_t i = 0; i < futures.size(); ++i)
    EXPECT_EQ(futures[i].get().values, widen(reference_topk(vs, ks[i]))) << i;
  EXPECT_EQ(blocker.get().values.size(), big.size() - 1);
  server.drain();
  EXPECT_GE(server.stats().index_builds, 1u);
  // The last group releases its index right after its last answer: wait
  // for the executors to drop their claims.
  for (int i = 0; i < 2000 && server.stats().index_bytes != 0; ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  EXPECT_EQ(server.stats().index_bytes, 0u);
  EXPECT_NE(server.metrics_prometheus().find("serve_index_bytes 0"),
            std::string::npos);
}

TEST(Serve, HeldRegisteredQueryNeitherPinsTheIndexNorOutlivesItsServer) {
  // A caller may keep a registered Query around (for another run_batch).
  // It must not keep the corpus's index alive past unregistration, and
  // destroying it after the server is gone must touch nothing of the
  // server's (run under ASan in CI).
  const u64 n = 1 << 16;
  auto v = data::generate(n, Distribution::kUniform, 219);
  std::span<const u32> vs(v.data(), v.size());
  std::vector<Query> held;  // declared before the server: outlives it
  {
    ServerConfig cfg;
    cfg.executors = 1;
    TopkServer server(shared_device(), cfg);
    const CorpusId id = server.register_corpus(vs);
    held.push_back(server.registered_query(id, 50));
    EXPECT_EQ(server.run_batch({held.back()})[0].values,
              widen(reference_topk(vs, 50)));
    EXPECT_GT(server.stats().index_bytes, 0u);
    server.unregister_corpus(id);
    for (int i = 0; i < 2000 && server.stats().index_bytes != 0; ++i)
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    EXPECT_EQ(server.stats().index_bytes, 0u);
    // A second corpus is still registered (index built) when the server
    // is destroyed.
    const CorpusId id2 = server.register_corpus(vs);
    held.push_back(server.registered_query(id2, 60));
    EXPECT_EQ(server.run_batch({held.back()})[0].values,
              widen(reference_topk(vs, 60)));
    EXPECT_GT(server.stats().index_bytes, 0u);
  }
  held.clear();
}

}  // namespace
}  // namespace drtopk::serve
