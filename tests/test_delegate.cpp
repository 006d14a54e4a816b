// Property tests for delegate-vector construction (core/delegate.hpp):
// the delegates of every subrange are exactly its top-beta multiset, pads
// are well-formed, the shared-memory and warp paths agree, the host
// emulation matches the per-lane warp program (kept below as the reference)
// bit for bit, counters included, and the k-selection API matches the full
// pipeline.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>

#include "core/dr_topk.hpp"
#include "data/distributions.hpp"

namespace drtopk::core {
namespace {

using topk::reference_topk;

vgpu::Device& shared_device() {
  static vgpu::Device dev(vgpu::GpuProfile::v100s());
  return dev;
}

/// Brute-force delegates: top-`beta` of each subrange, descending.
std::vector<u32> expected_delegates(std::span<const u32> v, u64 s, int alpha,
                                    u32 beta) {
  const u64 len = u64{1} << alpha;
  const u64 begin = s * len;
  const u64 real = std::min(len, v.size() - begin);
  return reference_topk(v.subspan(begin, real), std::min<u64>(beta, real));
}

struct ConstructCase {
  u64 n;
  int alpha;
  u32 beta;
  bool optimized;
};

class DelegateConstruction
    : public ::testing::TestWithParam<ConstructCase> {};

TEST_P(DelegateConstruction, DelegatesAreExactSubrangeTopBeta) {
  const auto& c = GetParam();
  for (auto d : {data::Distribution::kUniform, data::Distribution::kNormal}) {
    auto v = data::generate(c.n, d, c.n + c.alpha);
    std::span<const u32> vs(v.data(), v.size());
    topk::Accum acc(shared_device());
    ConstructOpts opts;
    opts.optimized = c.optimized;
    vgpu::Workspace ws;
    auto dv = build_delegate_vector<u32>(acc, vs, c.alpha, c.beta, opts, ws);

    ASSERT_EQ(dv.size(), dv.num_subranges * c.beta);
    for (u64 s = 0; s < dv.num_subranges; ++s) {
      auto expect = expected_delegates(vs, s, c.alpha, c.beta);
      for (u64 j = 0; j < c.beta; ++j) {
        const u64 slot = s * c.beta + j;
        if (j < expect.size()) {
          ASSERT_EQ(dv.keys[slot], expect[j])
              << "subrange " << s << " slot " << j;
          ASSERT_EQ(dv.sids[slot], static_cast<u32>(s));
        } else {
          // Padded slot (short tail subrange).
          ASSERT_EQ(dv.sids[slot], kInvalidSid);
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, DelegateConstruction,
    ::testing::Values(ConstructCase{1 << 12, 3, 1, true},   // shared path
                      ConstructCase{1 << 12, 3, 1, false},  // warp path
                      ConstructCase{1 << 12, 5, 2, true},
                      ConstructCase{1 << 12, 5, 4, true},
                      ConstructCase{1 << 14, 8, 2, true},   // warp (alpha>5)
                      ConstructCase{1 << 14, 8, 4, false},
                      ConstructCase{(1 << 12) + 5, 4, 2, true},  // tail
                      ConstructCase{(1 << 12) + 1, 4, 4, false},
                      ConstructCase{100, 2, 4, true},  // beta == subrange len
                      ConstructCase{100, 1, 4, false}  // beta > subrange len
                      ));

TEST(DelegateConstruction, SharedAndWarpPathsProduceIdenticalVectors) {
  const u64 n = (1 << 15) + 13;
  auto v = data::generate(n, data::Distribution::kCustomized, 9);
  std::span<const u32> vs(v.data(), v.size());
  vgpu::Workspace ws;
  for (int alpha : {2, 4, 5}) {
    for (u32 beta : {1u, 2u, 3u}) {
      vgpu::Workspace::Scope scope(ws);  // both vectors rewound per config
      topk::Accum a1(shared_device()), a2(shared_device());
      ConstructOpts shared_opts, warp_opts;
      warp_opts.optimized = false;
      auto dvs = build_delegate_vector<u32>(a1, vs, alpha, beta, shared_opts,
                                            ws);
      auto dvw = build_delegate_vector<u32>(a2, vs, alpha, beta, warp_opts,
                                            ws);
      EXPECT_TRUE(std::equal(dvs.keys.begin(), dvs.keys.end(),
                             dvw.keys.begin(), dvw.keys.end()))
          << "alpha=" << alpha << " beta=" << beta;
      EXPECT_TRUE(std::equal(dvs.sids.begin(), dvs.sids.end(),
                             dvw.sids.begin(), dvw.sids.end()));
    }
  }
}

// ---- Reference: the warp-synchronous construction program, lane by lane ----
//
// This is the construction kernel as a GPU would run it: per-lane top-beta
// registers, ballot + shuffle max-reduction per delegate round, and on the
// shared path a padded [element][subrange] shared layout written by
// warp_scatter and read back by warp_gather. build_delegate_vector computes
// the same delegates with host code and charges in closed form; the parity
// test below holds it to this program's keys, sids and every counter.

/// Per-lane top-beta accumulator (descending insertion into a tiny array).
template <class K>
struct LaneTopBeta {
  std::array<K, kMaxBeta> best;  // sorted descending, only [0, count) valid
  u32 count = 0;

  void insert(K x, u32 beta) {
    if (count < beta) {
      u32 i = count++;
      while (i > 0 && best[i - 1] < x) {
        best[i] = best[i - 1];
        --i;
      }
      best[i] = x;
    } else if (x > best[beta - 1]) {
      u32 i = beta - 1;
      while (i > 0 && best[i - 1] < x) {
        best[i] = best[i - 1];
        --i;
      }
      best[i] = x;
    }
  }
};

/// Extracts the top-`rounds` values of the union of 32 per-lane top-beta
/// sets using shuffle-based max-reductions (charged per round), writing
/// (key, sid) pairs for subrange `sid` at delegate slot base `out_base`.
template <class K>
void emit_warp_delegates(vgpu::Warp& w, vgpu::LaneArray<LaneTopBeta<K>>& lanes,
                         u32 beta, u64 real_count, u64 sid, u64 out_base,
                         std::span<K> dkeys, std::span<u32> dsids) {
  vgpu::LaneArray<u32> ptr{};  // per-lane cursor into its sorted top-beta
  for (u32 r = 0; r < beta; ++r) {
    if (r < real_count) {
      vgpu::LaneArray<K> prop{};
      vgpu::LaneArray<u8> has{};
      for (u32 l = 0; l < vgpu::kWarpSize; ++l) {
        has[l] = ptr[l] < lanes[l].count ? 1 : 0;
        prop[l] =
            has[l] ? lanes[l].best[ptr[l]] : std::numeric_limits<K>::min();
      }
      // A lane with no proposal left could tie a real minimum-key element;
      // resolve by masking: ballot the proposing lanes, reduce over them.
      const u32 mask = w.ballot(has);
      auto [val, lane] = w.reduce_max_index(prop);
      if (!has[lane] && mask != 0) {
        lane = static_cast<u32>(std::countr_zero(mask));
        val = prop[lane];
      }
      ++ptr[lane];
      w.st(dkeys, out_base + r, val);
      if (!dsids.empty()) w.st(dsids, out_base + r, static_cast<u32>(sid));
    } else {
      w.st(dkeys, out_base + r, K{});
      if (!dsids.empty()) w.st(dsids, out_base + r, kInvalidSid);
    }
  }
}

template <class K>
DelegateVector<K> reference_build_delegate_vector(
    topk::Accum& acc, std::span<const K> v, int alpha, u32 beta,
    const ConstructOpts& opts, vgpu::Workspace& ws) {
  vgpu::StageScope stage_scope("construct");
  const u64 n = v.size();
  const u64 len = u64{1} << alpha;
  const u64 S = (n + len - 1) / len;

  DelegateVector<K> dv;
  dv.num_subranges = S;
  dv.beta = beta;
  dv.alpha = alpha;
  dv.keys = ws.alloc<K>(S * beta);
  if (opts.emit_sids) dv.sids = ws.alloc<u32>(S * beta);
  std::span<K> dkeys = dv.keys;
  std::span<u32> dsids = dv.sids;
  const bool emit_sids = opts.emit_sids;

  const bool shared_path = opts.optimized && alpha <= kSharedPathMaxAlpha &&
                           len <= vgpu::kWarpSize;
  const u64 groups = shared_path ? (n / (vgpu::kWarpSize * len)) : 0;
  const u64 first_tail_subrange = groups * vgpu::kWarpSize;

  if (groups > 0) {
    const u32 pitch = opts.shared_padding ? 33u : 32u;
    const u64 shared_per_warp = static_cast<u64>(len) * pitch * sizeof(K);
    const u32 warps_per_cta = 8;
    auto cfg = acc.device().launch_for_warp_items(
        groups, "delegate_shared", warps_per_cta,
        shared_per_warp * warps_per_cta);
    acc.launch(cfg, [&](vgpu::CtaCtx& cta) {
      cta.for_each_warp([&](vgpu::Warp& w) {
        auto sh = cta.shared().alloc<K>(len * pitch);
        for (u64 g = w.global_id(); g < groups; g += w.grid_warps()) {
          const u64 sid0 = g * vgpu::kWarpSize;
          const u64 base = sid0 * len;
          // (i) Coalesced load of 32 subranges, scattered into the padded
          // [element][subrange] shared layout.
          const u64 total = vgpu::kWarpSize * len;
          for (u64 off = 0; off < total; off += vgpu::kWarpSize) {
            auto vals = w.load_coalesced(v, base + off);
            sh.warp_scatter(
                vgpu::kWarpSize,
                [&](u32 l) {
                  const u64 flat = off + l;
                  return (flat % len) * pitch + flat / len;
                },
                vals);
          }
          // (ii) Strided compute: lane t walks subrange t out of shared.
          vgpu::LaneArray<LaneTopBeta<K>> tops{};
          for (u64 e = 0; e < len; ++e) {
            auto row = sh.warp_gather(vgpu::kWarpSize, [&](u32 l) {
              return e * pitch + l;
            });
            for (u32 l = 0; l < vgpu::kWarpSize; ++l)
              tops[l].insert(row[l], beta);
          }
          // (iii) Coalesced emission of the group's 32*beta slots.
          const u64 out_base = sid0 * beta;
          const u64 slots = vgpu::kWarpSize * beta;
          const u64 real = std::min<u64>(beta, len);
          for (u64 off = 0; off < slots; off += vgpu::kWarpSize) {
            vgpu::LaneArray<K> ks{};
            vgpu::LaneArray<u32> ss{};
            const u32 active = static_cast<u32>(
                std::min<u64>(vgpu::kWarpSize, slots - off));
            for (u32 l = 0; l < active; ++l) {
              const u64 flat = off + l;
              const u64 s_local = flat / beta;
              const u64 j = flat % beta;
              if (j < real) {
                ks[l] = tops[s_local].best[j];
                ss[l] = static_cast<u32>(sid0 + s_local);
              } else {
                ks[l] = K{};
                ss[l] = kInvalidSid;
              }
            }
            w.store_coalesced(dkeys, out_base + off, ks, active);
            if (emit_sids) w.store_coalesced(dsids, out_base + off, ss, active);
          }
        }
      });
    });
  }

  if (first_tail_subrange < S) {
    const u64 tail_count = S - first_tail_subrange;
    auto cfg = acc.device().launch_for_warp_items(tail_count, "delegate_warp");
    acc.launch(cfg, [&](vgpu::CtaCtx& cta) {
      cta.for_each_warp([&](vgpu::Warp& w) {
        for (u64 t = w.global_id(); t < tail_count; t += w.grid_warps()) {
          const u64 s = first_tail_subrange + t;
          const u64 begin = s * len;
          const u64 real_len = std::min(len, n - begin);
          vgpu::LaneArray<LaneTopBeta<K>> tops{};
          w.scan_coalesced(v, begin, real_len, [&](u32 lane, K x) {
            tops[lane].insert(x, beta);
          });
          emit_warp_delegates(w, tops, beta, std::min<u64>(beta, real_len), s,
                              s * beta, dkeys, dsids);
        }
      });
    });
  }
  return dv;
}

enum class Fill { kRandom, kFewDistinct, kAllEqual };

template <class K>
std::vector<K> make_fill(u64 n, Fill f, u64 seed) {
  std::mt19937_64 rng(seed);
  std::vector<K> v(n);
  const K few[] = {K{0}, K{1}, std::numeric_limits<K>::max()};
  for (K& x : v) {
    switch (f) {
      case Fill::kRandom: x = static_cast<K>(rng()); break;
      case Fill::kFewDistinct: x = few[rng() % 3]; break;
      case Fill::kAllEqual: x = K{7}; break;
    }
  }
  return v;
}

/// Runs the reference program and build_delegate_vector on `dev` over
/// every alpha/beta/option/fill combination at length n and asserts
/// bit-identical keys, sids, KernelStats and simulated time.
template <class K>
void expect_construction_parity(vgpu::Device& dev, u64 n) {
  vgpu::Workspace ws;
  for (const Fill fill : {Fill::kRandom, Fill::kFewDistinct, Fill::kAllEqual}) {
    const auto v = make_fill<K>(n, fill, n * 3 + static_cast<u64>(fill));
    const std::span<const K> vs(v.data(), v.size());
    for (int alpha = 0; alpha <= 12; ++alpha) {
      for (u32 beta = 1; beta <= kMaxBeta; ++beta) {
        for (const bool emit_sids : {true, false}) {
          for (const bool padding : {true, false}) {
            for (const bool optimized : {true, false}) {
              // Padding and the optimized switch only act on the shared
              // path (alpha <= 5); above it one combination covers them.
              if (alpha > kSharedPathMaxAlpha && (!padding || !optimized))
                continue;
              vgpu::Workspace::Scope scope(ws);
              ConstructOpts opts;
              opts.optimized = optimized;
              opts.shared_padding = padding;
              opts.emit_sids = emit_sids;
              topk::Accum ra(dev), ga(dev);
              const auto ref = reference_build_delegate_vector<K>(
                  ra, vs, alpha, beta, opts, ws);
              const auto got =
                  build_delegate_vector<K>(ga, vs, alpha, beta, opts, ws);
              const std::string what =
                  "n=" + std::to_string(n) + " fill=" +
                  std::to_string(static_cast<int>(fill)) +
                  " alpha=" + std::to_string(alpha) +
                  " beta=" + std::to_string(beta) +
                  " sids=" + std::to_string(emit_sids) +
                  " pad=" + std::to_string(padding) +
                  " opt=" + std::to_string(optimized);
              ASSERT_TRUE(std::equal(ref.keys.begin(), ref.keys.end(),
                                     got.keys.begin(), got.keys.end()))
                  << what;
              ASSERT_TRUE(std::equal(ref.sids.begin(), ref.sids.end(),
                                     got.sids.begin(), got.sids.end()))
                  << what;
              ASSERT_TRUE(ra.stats() == ga.stats())
                  << what << "\nreference " << ra.stats().to_string()
                  << "\nemulated  " << ga.stats().to_string();
              ASSERT_EQ(ra.sim_ms(), ga.sim_ms()) << what;
            }
          }
        }
      }
    }
  }
}

class ConstructionParity : public ::testing::TestWithParam<u32> {};

TEST_P(ConstructionParity, MatchesTheWarpProgramBitForBit) {
  vgpu::Device dev(vgpu::GpuProfile::v100s(), GetParam());
  for (const u64 n : {u64{1}, u64{31}, u64{32}, u64{33}, u64{1000},
                      u64{65537}}) {
    expect_construction_parity<u32>(dev, n);
    expect_construction_parity<u64>(dev, n);
  }
}

// One host thread and a multi-thread pool (CTAs run concurrently).
INSTANTIATE_TEST_SUITE_P(HostThreads, ConstructionParity,
                         ::testing::Values(1u, 4u));

TEST(DelegateConstruction, SubrangeLenGeometry) {
  DelegateVector<u32> dv;
  dv.alpha = 4;
  dv.num_subranges = 5;
  const u64 n = 4 * 16 + 7;  // last subrange short
  EXPECT_EQ(dv.subrange_len(0, n), 16u);
  EXPECT_EQ(dv.subrange_len(3, n), 16u);
  EXPECT_EQ(dv.subrange_len(4, n), 7u);
}

// ---- k-selection API ----

class KSelectionTest : public ::testing::TestWithParam<u64> {};

TEST_P(KSelectionTest, MatchesNthElement) {
  const u64 n = 1 << 15;
  for (auto d : {data::Distribution::kUniform, data::Distribution::kNormal,
                 data::Distribution::kCustomized}) {
    auto v = data::generate(n, d, GetParam());
    std::span<const u32> vs(v.data(), v.size());
    const u64 k = GetParam();
    const u32 got = dr_kth_keys<u32>(shared_device(), vs, k);
    EXPECT_EQ(got, reference_topk(vs, k).back()) << data::to_string(d);
  }
}

INSTANTIATE_TEST_SUITE_P(Ks, KSelectionTest,
                         ::testing::Values(1, 2, 100, 1 << 10, 1 << 13));

TEST(KSelection, CheaperThanFullTopk) {
  const u64 n = 1 << 20;
  const u64 k = 1 << 12;
  auto v = data::generate(n, data::Distribution::kUniform, 10);
  std::span<const u32> vs(v.data(), v.size());
  StageBreakdown sel, full;
  (void)dr_kth_keys<u32>(shared_device(), vs, k, DrTopkConfig{}, &sel);
  (void)dr_topk_keys<u32>(shared_device(), vs, k, DrTopkConfig{}, &full);
  // The selection-only second stage skips the collection pass.
  EXPECT_LE(sel.second_ms, full.second_ms);
  EXPECT_LT(sel.second_stats.global_store_elems,
            full.second_stats.global_store_elems + 1);
}

// ---- Hierarchical reduction option for the second top-k threshold ----

TEST(KappaHook, PipelineUsesHookedThreshold) {
  const u64 n = 1 << 14;
  auto v = data::generate(n, data::Distribution::kUniform, 11);
  std::span<const u32> vs(v.data(), v.size());
  u64 seen_kappa = 0;
  DrTopkConfig cfg;
  cfg.beta = 1;
  cfg.kappa_hook = [&](u64 kappa) {
    seen_kappa = kappa;
    return kappa;  // identity: result must stay exact
  };
  auto r = dr_topk_keys<u32>(shared_device(), vs, 64, cfg);
  EXPECT_GT(seen_kappa, 0u);
  EXPECT_EQ(r.keys, reference_topk(vs, 64));
}

TEST(KappaHook, SharperThresholdShrinksCandidates) {
  const u64 n = 1 << 16;
  const u64 k = 256;
  auto v = data::generate(n, data::Distribution::kUniform, 12);
  std::span<const u32> vs(v.data(), v.size());
  const u32 true_kth = reference_topk(vs, k).back();

  DrTopkConfig plain;
  plain.beta = 1;
  StageBreakdown b0;
  (void)dr_topk_keys<u32>(shared_device(), vs, k, plain, &b0);

  DrTopkConfig sharp = plain;
  // A hook that knows the exact answer (the best any exchange could do).
  sharp.kappa_hook = [true_kth](u64 kappa) {
    return std::max<u64>(kappa, true_kth);
  };
  StageBreakdown b1;
  auto r = dr_topk_keys<u32>(shared_device(), vs, k, sharp, &b1);
  EXPECT_EQ(r.keys, reference_topk(vs, k));
  EXPECT_LE(b1.concat_len, b0.concat_len);
}

}  // namespace
}  // namespace drtopk::core
