// Reference shared-memory select kernels for the parity suites: the
// warp programs that topk/small.hpp and topk/batched.hpp emulate. Here every
// CTA stages its input lane by lane (load_coalesced + warp_scatter), sorts
// the whole shared array, and emits through warp_gather + store_coalesced;
// the library computes the same keys with a partial host selection and
// charges the same accesses in closed form. Tests hold the library to these
// programs' keys and every KernelStats counter.
#pragma once

#include <algorithm>
#include <unordered_map>
#include <vector>

#include "topk/batched.hpp"

namespace drtopk::topk::reference {

/// Coalesced staging of v[begin, begin+len) into shared [sh_off, sh_off+len):
/// every warp of the CTA copies its warp_slice chunk by chunk.
template <class K>
void stage_shared(vgpu::CtaCtx& cta, std::span<const K> v, u64 begin,
                  u64 len, vgpu::SharedSpan<K>& sh, u64 sh_off = 0) {
  cta.for_each_warp([&](vgpu::Warp& w) {
    const u32 local = w.global_id() % cta.warps_per_cta();
    const Slice s = warp_slice(len, local, cta.warps_per_cta());
    if (s.len == 0) return;
    u64 pos = s.begin;
    const u64 end = s.begin + s.len;
    while (pos < end) {
      const u32 active =
          static_cast<u32>(std::min<u64>(vgpu::kWarpSize, end - pos));
      auto vals = w.load_coalesced(v, begin + pos, active);
      sh.warp_scatter(active, [&](u32 l) { return sh_off + pos + l; }, vals);
      pos += active;
    }
  });
}

/// Coalesced emission of the leading `count` shared elements into `out`.
template <class K>
void emit_shared(vgpu::Warp& w, vgpu::SharedSpan<K>& sh, std::span<K> out,
                 u64 count) {
  u64 pos = 0;
  while (pos < count) {
    const u32 active =
        static_cast<u32>(std::min<u64>(vgpu::kWarpSize, count - pos));
    auto vals = sh.warp_gather(active, [&](u32 l) { return pos + l; });
    w.store_coalesced(out, pos, vals, active);
    pos += active;
  }
}

/// small_topk_shared's warp program with a full shared sort.
template <class K>
TopkResult<K> small_topk_shared(Accum& acc, std::span<const K> v, u64 k,
                                bool selection_only = false) {
  const u64 n = v.size();
  TopkResult<K> r;
  r.keys.resize(selection_only ? 1 : k);
  std::span<K> out(r.keys.data(), r.keys.size());
  vgpu::Launch cfg;
  cfg.name = "small_topk_shared";
  cfg.num_ctas = 1;
  cfg.warps_per_cta = 8;
  cfg.shared_bytes = n * sizeof(K);
  acc.launch(cfg, [&](vgpu::CtaCtx& cta) {
    auto sh = cta.shared().alloc<K>(n);
    cta.for_each_warp([&](vgpu::Warp& w) {
      const Slice s = warp_slice(n, w.global_id(), w.grid_warps());
      if (s.len == 0) return;
      u64 pos = s.begin;
      const u64 end = s.begin + s.len;
      while (pos < end) {
        const u32 active =
            static_cast<u32>(std::min<u64>(vgpu::kWarpSize, end - pos));
        auto vals = w.load_coalesced(v, pos, active);
        sh.warp_scatter(active, [&](u32 l) { return pos + l; }, vals);
        pos += active;
      }
    });
    vgpu::Warp w = cta.warp(0);
    detail::charge_shared_network(w.stats(),
                                  detail::bitonic_sort_cx(std::bit_ceil(n)));
    std::sort(sh.data(), sh.data() + n, std::greater<>());
    if (selection_only)
      w.st(out, 0, sh.ld(k - 1));
    else
      emit_shared(w, sh, out, k);
  });
  r.kth = r.keys.back();
  r.stats = acc.stats();
  r.sim_ms = acc.sim_ms();
  return r;
}

/// batched_topk's warp programs (single-CTA, multi-CTA slice and merge
/// CTAs) with full shared sorts; same problem coalescing, classification
/// and launch structure.
template <class K>
BatchedResult<K> batched_topk(Accum& acc,
                              std::span<const BatchedSegment<K>> segs,
                              BatchedMode mode = BatchedMode::kAuto,
                              vgpu::Workspace& ws = vgpu::tls_workspace()) {
  // Defaulting scope: serve's "first"/"second" call-site labels win.
  vgpu::StageScope stage_scope("batched");
  BatchedResult<K> r;
  r.keys.resize(segs.size());
  const vgpu::GpuProfile& prof = acc.device().profile();
  const u64 cap = batched_single_cap<K>(prof);

  for (size_t i = 0; i < segs.size(); ++i) {
    const u64 keff = std::min(segs[i].k, segs[i].data.size());
    r.keys[i].resize(segs[i].selection_only ? (keff ? 1 : 0) : keff);
  }

  // ---- Coalesce same-span segments into problems: one sort per distinct
  // (pointer, length), every attached segment emits from it. ----
  enum class Path : u8 { kSingle, kMulti, kFallback };
  struct Problem {
    const K* ptr = nullptr;
    u64 n = 0;
    u64 kmax = 0;                 ///< max clamped k over attached segments
    std::vector<u32> seg_ids;
    Path path = Path::kSingle;
    u64 slices = 0;               ///< multi-CTA slice count
    u64 part_off = 0;             ///< offset into the shared partial buffer
    u64 part_total = 0;           ///< merge-set size
  };
  std::vector<Problem> probs;
  // Pointer-keyed index keeps coalescing O(N) — the common finalization
  // batch is all-distinct spans, which a linear rescan would make O(N^2).
  // Same pointer with different lengths (prefix views) is rare: those
  // chain through the per-pointer bucket.
  std::unordered_map<const K*, std::vector<u32>> by_ptr;
  for (size_t i = 0; i < segs.size(); ++i) {
    const auto& sg = segs[i];
    const u64 keff = std::min(sg.k, sg.data.size());
    if (sg.data.empty() || keff == 0) continue;
    Problem* host = nullptr;
    for (const u32 pi : by_ptr[sg.data.data()]) {
      if (probs[pi].n == sg.data.size()) {
        host = &probs[pi];
        break;
      }
    }
    if (!host) {
      by_ptr[sg.data.data()].push_back(static_cast<u32>(probs.size()));
      probs.emplace_back();
      host = &probs.back();
      host->ptr = sg.data.data();
      host->n = sg.data.size();
    } else {
      ++r.shared_sorts;
    }
    host->kmax = std::max(host->kmax, keff);
    host->seg_ids.push_back(static_cast<u32>(i));
  }

  // ---- Classify each problem by capacity (or the forced mode). ----
  vgpu::Workspace::Scope scope(ws);
  u64 part_sum = 0;
  for (Problem& pb : probs) {
    if (mode == BatchedMode::kPerSegment) {
      pb.path = Path::kFallback;
    } else if (pb.n <= cap) {
      pb.path = Path::kSingle;
    } else if (batched_multi_fits<K>(prof, pb.n, pb.kmax)) {
      pb.path = Path::kMulti;
      pb.slices = (pb.n + cap - 1) / cap;
      const u64 last_len = pb.n - (pb.slices - 1) * cap;
      pb.part_total = (pb.slices - 1) * std::min(pb.kmax, cap) +
                      std::min(pb.kmax, last_len);
      pb.part_off = part_sum;
      part_sum += pb.part_total;
    } else {
      pb.path = Path::kFallback;
    }
    r.single_cta += pb.path == Path::kSingle;
    r.multi_cta += pb.path == Path::kMulti;
    r.fallback += pb.path == Path::kFallback;
  }
  std::span<K> partial = ws.alloc<K>(part_sum);

  // ---- Launch 1: every single-CTA problem plus every multi-CTA slice,
  // one CTA each, in ONE launch. ----
  constexpr u32 kNoSlice = 0xFFFF'FFFFu;
  struct Item {
    u32 prob;
    u32 slice;
  };
  std::vector<Item> items;
  u64 max_shared = 0;
  for (u32 pi = 0; pi < probs.size(); ++pi) {
    const Problem& pb = probs[pi];
    if (pb.path == Path::kSingle) {
      items.push_back({pi, kNoSlice});
      max_shared = std::max(max_shared, pb.n * sizeof(K));
    } else if (pb.path == Path::kMulti) {
      for (u32 s = 0; s < pb.slices; ++s) items.push_back({pi, s});
      max_shared = std::max(max_shared, cap * sizeof(K));
    }
  }

  if (!items.empty()) {
    vgpu::Launch cfg;
    cfg.name = "batched_select";
    cfg.num_ctas = static_cast<u32>(items.size());
    cfg.warps_per_cta = 8;
    cfg.shared_bytes = max_shared;
    acc.launch(cfg, [&](vgpu::CtaCtx& cta) {
      const Item it = items[cta.cta_id()];
      const Problem& pb = probs[it.prob];
      const std::span<const K> data(pb.ptr, pb.n);
      if (it.slice == kNoSlice) {
        // Single-CTA segment: stage, sort, emit for every attached query.
        auto sh = cta.shared().alloc<K>(pb.n);
        stage_shared(cta, data, 0, pb.n, sh);
        vgpu::Warp w = cta.warp(0);
        topk::detail::charge_shared_network(
            w.stats(), topk::detail::bitonic_sort_cx(std::bit_ceil(pb.n)));
        std::sort(sh.data(), sh.data() + pb.n, std::greater<>());
        for (const u32 si : pb.seg_ids) {
          const auto& sg = segs[si];
          const u64 keff = std::min(sg.k, pb.n);
          std::span<K> out(r.keys[si]);
          if (sg.selection_only)
            w.st(out, 0, sh.ld(keff - 1));
          else
            emit_shared(w, sh, out, keff);
        }
      } else {
        // Multi-CTA slice: sort the slice, keep its top-kmax prefix for
        // the merge CTA (any global top-k element is in its slice's top-k).
        const u64 begin = static_cast<u64>(it.slice) * cap;
        const u64 slen = std::min(cap, pb.n - begin);
        auto sh = cta.shared().alloc<K>(slen);
        stage_shared(cta, data, begin, slen, sh);
        vgpu::Warp w = cta.warp(0);
        topk::detail::charge_shared_network(
            w.stats(), topk::detail::bitonic_sort_cx(std::bit_ceil(slen)));
        std::sort(sh.data(), sh.data() + slen, std::greater<>());
        const u64 keep = std::min(pb.kmax, slen);
        const u64 off = pb.part_off + it.slice * std::min(pb.kmax, cap);
        emit_shared(w, sh, partial.subspan(off, keep), keep);
      }
    });
    ++r.launches;
  }

  // ---- Launch 2 (only when multi-CTA problems exist): one merge CTA per
  // problem selects over the concatenated slice prefixes. ----
  std::vector<u32> multis;
  u64 merge_shared = 0;
  for (u32 pi = 0; pi < probs.size(); ++pi) {
    if (probs[pi].path == Path::kMulti) {
      multis.push_back(pi);
      merge_shared = std::max(merge_shared, probs[pi].part_total * sizeof(K));
    }
  }
  if (!multis.empty()) {
    vgpu::Launch cfg;
    cfg.name = "batched_merge";
    cfg.num_ctas = static_cast<u32>(multis.size());
    cfg.warps_per_cta = 8;
    cfg.shared_bytes = merge_shared;
    acc.launch(cfg, [&](vgpu::CtaCtx& cta) {
      const Problem& pb = probs[multis[cta.cta_id()]];
      const u64 m = pb.part_total;
      auto sh = cta.shared().alloc<K>(m);
      std::span<const K> runs(partial.data() + pb.part_off, m);
      stage_shared(cta, runs, 0, m, sh);
      vgpu::Warp w = cta.warp(0);
      // The merge set is a concatenation of pb.slices sorted runs: charge
      // the P-way merge network (a binary tree of bitonic merges), not a
      // full re-sort — the runs' order is information already paid for in
      // launch 1.
      topk::detail::charge_shared_network(
          w.stats(), vgpu::merge_network_cx(m, pb.slices));
      std::sort(sh.data(), sh.data() + m, std::greater<>());
      for (const u32 si : pb.seg_ids) {
        const auto& sg = segs[si];
        const u64 keff = std::min(sg.k, pb.n);
        std::span<K> out(r.keys[si]);
        if (sg.selection_only)
          w.st(out, 0, sh.ld(keff - 1));
        else
          emit_shared(w, sh, out, keff);
      }
    });
    ++r.launches;
  }

  // ---- Fallback problems: the regular engine, once per problem (attached
  // segments still share the run via the prefix property). ----
  for (const Problem& pb : probs) {
    if (pb.path != Path::kFallback) continue;
    const std::span<const K> data(pb.ptr, pb.n);
    auto fr = run_topk_keys<K>(acc.device(), data, pb.kmax,
                               Algo::kRadixFlag, ws);
    acc.add(fr.stats, fr.sim_ms);
    r.launches += fr.stats.kernels_launched;
    for (const u32 si : pb.seg_ids) {
      const auto& sg = segs[si];
      const u64 keff = std::min(sg.k, pb.n);
      if (sg.selection_only) {
        r.keys[si][0] = fr.keys[keff - 1];
      } else {
        std::copy(fr.keys.begin(), fr.keys.begin() + static_cast<i64>(keff),
                  r.keys[si].begin());
      }
    }
  }

  return r;
}

}  // namespace drtopk::topk::reference
