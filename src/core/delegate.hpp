// Delegate vector construction (Sections 4.1, 4.3, 5.1 and 5.3).
//
// The input vector is split into subranges of 2^alpha elements; each
// subrange contributes its top-beta elements ("delegates") tagged with the
// subrange id. Two construction kernels, selected by subrange size exactly
// as in the paper (each charges exactly the counters of the warp program
// described below; the host computes the same delegates at memory speed —
// see "The virtual GPU" in docs/ARCHITECTURE.md):
//
//  * Warp-centric path (alpha > 5): one warp per subrange. Lanes stride
//    through the subrange keeping a private top-beta, then beta rounds of
//    shuffle-based max-reduction extract the delegates (31 shuffles per
//    round for a full warp — Equation 2's communication term, and the
//    "beta x more shuffles" cost Section 4.3 mentions).
//
//  * Coalesced-load-to-shared + strided-compute path (alpha <= 5,
//    Section 5.3): one warp loads 32 whole subranges into shared memory
//    coalescedly, then each lane walks one subrange privately — full thread
//    utilization and zero shuffles. The shared layout is padded (pitch 33)
//    to avoid bank conflicts; the padding is a config knob so its effect is
//    measurable.
//
// Short tail subranges yield fewer than beta real delegates; missing slots
// are padded with (key = 0, sid = kInvalidSid) entries which every consumer
// ignores.
#pragma once

#include "topk/kernels.hpp"

namespace drtopk::core {

using topk::Accum;
using topk::Slice;
using topk::warp_slice;

inline constexpr u32 kInvalidSid = 0xFFFF'FFFFu;
inline constexpr u32 kMaxBeta = 4;

/// Largest alpha handled by the shared-memory construction path
/// (subranges of up to 32 elements — one per lane).
inline constexpr int kSharedPathMaxAlpha = 5;

struct ConstructOpts {
  bool optimized = true;       ///< use the shared-memory path for small alpha
  bool shared_padding = true;  ///< pad the shared layout (bank conflicts off)
  /// Store the per-delegate subrange-id array. The fused stage-3 pipeline
  /// derives delegate validity analytically (valid slots are a prefix of
  /// each subrange's beta slots) and never reads sids, so the pipeline
  /// skips these stores entirely; consumers that want the tags (tests, the
  /// distributed layer) keep the default.
  bool emit_sids = true;
};

/// Workspace-backed delegate vector: `keys`/`sids` view arena memory owned
/// by the workspace the constructor was given; the caller controls their
/// lifetime through that workspace's scope. Invariant (relied on by the
/// fused concatenation): within each subrange's beta slots the real
/// delegates occupy a prefix of length min(beta, subrange_len), sorted
/// descending; trailing slots are padding (key 0 / sid kInvalidSid).
template <class K>
struct DelegateVector {
  std::span<K> keys;    ///< |D| = num_subranges * beta entries
  std::span<u32> sids;  ///< subrange id per delegate (empty if !emit_sids)
  u64 num_subranges = 0;
  u32 beta = 1;
  int alpha = 0;

  u64 size() const { return keys.size(); }
  u64 subrange_len(u64 s, u64 n) const {
    const u64 len = u64{1} << alpha;
    const u64 begin = s * len;
    return std::min(len, n - begin);
  }
};

namespace detail {

/// Compare-exchange: a keeps the larger key, b the smaller.
template <class K>
inline void cmp_exchange(K& a, K& b) {
  const K hi = a > b ? a : b;
  b = a > b ? b : a;
  a = hi;
}

/// Per-lane top-B of the warp program as structure-of-arrays: top[j][l] is
/// lane l's j-th best key, each lane's column sorted descending. Slots the
/// data has not filled hold 0, the smallest key, so the B best of the
/// union are the real top-B whenever the lanes saw at least B elements.
template <u32 B, class K>
struct LaneTops {
  static constexpr u32 kLanes = vgpu::kWarpSize;
  alignas(64) K top[B][kLanes] = {};

  /// Inserts one element per lane: a branchless compare-exchange cascade
  /// down each column, vectorized across lanes.
  void insert(K (&x)[kLanes]) {
    for (u32 j = 0; j < B; ++j)
      for (u32 l = 0; l < kLanes; ++l) cmp_exchange(top[j][l], x[l]);
  }

  /// Folds every lane's column into lane 0 (lanes [h, 2h) are inserted
  /// into lanes [0, h) for h = 16..1), leaving the top-B of all 32*B
  /// candidates in top[0..B)[0], descending.
  void fold() {
    for (u32 h = kLanes / 2; h >= 1; h /= 2) {
      for (u32 i = 0; i < B; ++i)
        for (u32 j = 0; j < B; ++j)
          for (u32 l = 0; l < h; ++l) {
            K x = top[i][h + l];
            cmp_exchange(top[j][l], x);
            top[i][h + l] = x;
          }
    }
  }
};

/// Top-B of p[0, len), descending, into out[0, B): lane l of the warp
/// program sees elements l, l+32, ...; a ragged last chunk is padded with
/// 0. Entries past min(B, len) are 0.
template <u32 B, class K>
void subrange_top(const K* p, u64 len, K* out) {
  constexpr u32 W = vgpu::kWarpSize;
  if (len <= W) {
    // One element per lane at most: the lanes' tops are the elements.
    K top[B] = {};
    for (u64 i = 0; i < len; ++i) {
      K x = p[i];
      for (u32 j = 0; j < B; ++j) cmp_exchange(top[j], x);
    }
    for (u32 j = 0; j < B; ++j) out[j] = top[j];
    return;
  }
  LaneTops<B, K> t;
  alignas(64) K x[W];
  u64 pos = 0;
  for (; pos + W <= len; pos += W) {
    for (u32 l = 0; l < W; ++l) x[l] = p[pos + l];
    t.insert(x);
  }
  if (pos < len) {
    const u64 rem = len - pos;
    for (u32 l = 0; l < W; ++l) x[l] = l < rem ? p[pos + l] : K{};
    t.insert(x);
  }
  t.fold();
  for (u32 j = 0; j < B; ++j) out[j] = t.top[j][0];
}

/// Writes subrange `sid`'s beta delegate slots at `out_base`: the first
/// `real` entries of `top`, then (0, kInvalidSid) pads.
template <u32 B, class K>
void write_delegates(const K* top, u64 real, u64 sid, u64 out_base,
                     std::span<K> dkeys, std::span<u32> dsids) {
  for (u32 j = 0; j < B; ++j) {
    dkeys[out_base + j] = j < real ? top[j] : K{};
    if (!dsids.empty())
      dsids[out_base + j] = j < real ? static_cast<u32>(sid) : kInvalidSid;
  }
}

/// The warp program's charge for one subrange of `real_len` elements on
/// the warp path: a coalesced scan of the subrange, then per delegate
/// round a ballot and a full-warp max-reduction (31 shuffles, Eq. 2) for
/// each of the min(B, real_len) real delegates, and B single-lane stores
/// of the key (and sid) slots.
template <u32 B, class K>
vgpu::KernelStats warp_subrange_charge(u64 real_len, bool emit_sids) {
  vgpu::KernelStats c;
  vgpu::charge_coalesced_loads<K>(c, real_len);
  const u64 rounds = std::min<u64>(B, real_len);
  c.vote_ops += rounds;
  c.shfl_ops += rounds * (vgpu::kWarpSize - 1);
  const u64 slots = emit_sids ? 2 * B : B;
  c.global_store_elems += slots;
  c.global_store_bytes += B * sizeof(K) + (emit_sids ? B * sizeof(u32) : 0);
  c.global_store_txns += slots;
  return c;
}

/// The warp program's charge for one 32-subrange group on the shared path
/// (subranges of `len` elements, shared pitch `pitch`): len coalesced
/// 32-element loads scattered into the [element][subrange] layout, len
/// 32-lane row gathers for the strided compute, and B coalesced stores of
/// key (and sid) slots. The bank replays of the fixed index pattern are
/// the same for every group and are evaluated here once per launch.
template <u32 B, class K>
vgpu::KernelStats shared_group_charge(u64 len, u32 pitch, bool emit_sids) {
  constexpr u32 W = vgpu::kWarpSize;
  vgpu::KernelStats c;
  vgpu::charge_coalesced_loads<K>(c, W * len);
  c.shared_stores += W * len;
  c.shared_loads += W * len;
  for (u64 off = 0; off < W * len; off += W) {
    c.shared_bank_conflicts += vgpu::SharedSpan<K>::bank_replays(
        W, [&](u32 l) { return (off + l) % len * pitch + (off + l) / len; });
  }
  for (u64 e = 0; e < len; ++e) {
    c.shared_bank_conflicts += vgpu::SharedSpan<K>::bank_replays(
        W, [&](u32 l) { return e * pitch + l; });
  }
  vgpu::charge_coalesced_stores<K>(c, u64{W} * B);
  if (emit_sids) vgpu::charge_coalesced_stores<u32>(c, u64{W} * B);
  return c;
}

template <u32 B, class K>
void build_delegates(Accum& acc, std::span<const K> v, int alpha,
                     const ConstructOpts& opts, DelegateVector<K>& dv) {
  constexpr u32 W = vgpu::kWarpSize;
  const u64 n = v.size();
  const u64 len = u64{1} << alpha;
  const u64 S = dv.num_subranges;
  const std::span<K> dkeys = dv.keys;
  const std::span<u32> dsids = dv.sids;
  const bool emit_sids = opts.emit_sids;
  const K* vp = v.data();

  const bool shared_path =
      opts.optimized && alpha <= kSharedPathMaxAlpha && len <= W;

  // Subranges handled by the shared path: whole groups of 32 full-length
  // subranges. The tail (and everything, on the warp path) goes through the
  // shuffle-based kernel.
  const u64 groups = shared_path ? (n / (W * len)) : 0;
  const u64 first_tail_subrange = groups * W;

  if (groups > 0) {
    // One warp per group: (i) coalesced load of 32 subranges scattered
    // into the padded [element][subrange] shared layout, (ii) strided
    // compute — lane t walks subrange t, no shuffles at all — and (iii)
    // coalesced emission of the group's 32*beta contiguous delegate slots.
    // Host: lane t's top-beta straight from subrange t in global memory.
    const u32 pitch = opts.shared_padding ? 33u : 32u;
    const u64 shared_per_warp = len * pitch * sizeof(K);
    const u32 warps_per_cta = 8;
    auto cfg = acc.device().launch_for_warp_items(
        groups, "delegate_shared", warps_per_cta,
        shared_per_warp * warps_per_cta);
    const vgpu::KernelStats per_group =
        shared_group_charge<B, K>(len, pitch, emit_sids);
    const u64 real = std::min<u64>(B, len);
    acc.launch(cfg, [&](vgpu::CtaCtx& cta) {
      cta.for_each_warp([&](vgpu::Warp& w) {
        for (u64 g = w.global_id(); g < groups; g += w.grid_warps()) {
          const u64 sid0 = g * W;
          const K* base = vp + sid0 * len;
          LaneTops<B, K> t;
          alignas(64) K x[W];
          for (u64 e = 0; e < len; ++e) {
            for (u32 l = 0; l < W; ++l) x[l] = base[l * len + e];
            t.insert(x);
          }
          for (u32 l = 0; l < W; ++l) {
            K top[B];
            for (u32 j = 0; j < B; ++j) top[j] = t.top[j][l];
            write_delegates<B>(top, real, sid0 + l, (sid0 + l) * B, dkeys,
                               dsids);
          }
          w.stats() += per_group;
        }
      });
    });
  }

  if (first_tail_subrange < S) {
    // Warp-centric path: one warp per subrange. Lanes stride through it
    // keeping a private top-beta, then beta rounds of ballot + shuffle
    // max-reduction extract the delegates.
    const u64 tail_count = S - first_tail_subrange;
    const vgpu::KernelStats per_full =
        warp_subrange_charge<B, K>(len, emit_sids);
    auto cfg = acc.device().launch_for_warp_items(tail_count, "delegate_warp");
    acc.launch(cfg, [&](vgpu::CtaCtx& cta) {
      cta.for_each_warp([&](vgpu::Warp& w) {
        for (u64 t = w.global_id(); t < tail_count; t += w.grid_warps()) {
          const u64 s = first_tail_subrange + t;
          const u64 begin = s * len;
          const u64 real_len = std::min(len, n - begin);
          K top[B];
          subrange_top<B>(vp + begin, real_len, top);
          write_delegates<B>(top, std::min<u64>(B, real_len), s, s * B,
                             dkeys, dsids);
          w.stats() += real_len == len
                           ? per_full
                           : warp_subrange_charge<B, K>(real_len, emit_sids);
        }
      });
    });
  }
}

}  // namespace detail

/// Builds the delegate vector for subranges of 2^alpha elements. The
/// delegate arrays are allocated from `ws` (no per-call heap traffic); the
/// caller keeps them alive by not rewinding past this point.
template <class K>
DelegateVector<K> build_delegate_vector(
    Accum& acc, std::span<const K> v, int alpha, u32 beta,
    const ConstructOpts& opts = {},
    vgpu::Workspace& ws = vgpu::tls_workspace()) {
  // Stage 1 of the paper's pipeline. Defaulting scope: an enclosing label
  // (e.g. serve's "calibrate") wins.
  vgpu::StageScope stage_scope("construct");
  assert(beta >= 1 && beta <= kMaxBeta);
  assert(alpha >= 0);
  const u64 n = v.size();
  const u64 len = u64{1} << alpha;
  const u64 S = (n + len - 1) / len;

  DelegateVector<K> dv;
  dv.num_subranges = S;
  dv.beta = beta;
  dv.alpha = alpha;
  dv.keys = ws.alloc<K>(S * beta);
  if (opts.emit_sids) dv.sids = ws.alloc<u32>(S * beta);
  switch (beta) {
    case 1: detail::build_delegates<1>(acc, v, alpha, opts, dv); break;
    case 2: detail::build_delegates<2>(acc, v, alpha, opts, dv); break;
    case 3: detail::build_delegates<3>(acc, v, alpha, opts, dv); break;
    default: detail::build_delegates<4>(acc, v, alpha, opts, dv); break;
  }
  return dv;
}

}  // namespace drtopk::core
