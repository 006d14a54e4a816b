// Single-launch shared-memory sort-and-choose for small inputs.
//
// The Dr. Top-k pipeline's later stages run on inputs that are orders of
// magnitude smaller than |V| (Section 4: the delegate vector and the
// concatenated candidate vector). At serving rates those stages are
// launch-overhead bound: a multi-pass radix selection on a 16 KB candidate
// vector spends far more simulated time in its ~6 kernel launches than in
// its memory traffic. Real GPU top-k implementations special-case exactly
// this regime with a one-block kernel; this engine models it:
//
//   one CTA - one launch:  stage the whole input into one SM's shared
//   memory (coalesced), bitonically sort it there (the network is charged
//   analytically, like topk/bitonic.hpp), and emit the top k (or just the
//   k-th key for selection-only callers).
//
// Applicability is a hard capacity bound: the input must fit the profile's
// per-SM shared memory (small_topk_fits). The pipeline uses it for the
// first top-k when the delegate vector fits and for the second top-k when
// the candidate vector fits, both gated by DrTopkConfig::small_input_shared
// so the multi-pass baseline stays measurable.
#pragma once

#include "topk/bitonic.hpp"

namespace drtopk::topk {

/// Elements of key type K that fit one CTA's shared-memory staging on `p`
/// — the single source of the one-SM capacity bound (topk/batched.hpp's
/// classification uses the same constant, so the two gates move together).
template <class K>
u64 small_topk_cap(const vgpu::GpuProfile& p) {
  return p.shared_bytes_per_sm / sizeof(K);
}

/// True when an n-element input of key type K fits the single-CTA
/// shared-memory path on `p`.
template <class K>
bool small_topk_fits(const vgpu::GpuProfile& p, u64 n) {
  return n > 0 && n <= small_topk_cap<K>(p);
}

namespace detail {

/// Coalesced staging of v[begin, begin+len) into a CTA's shared span at
/// shared offset [sh_off, sh_off+len): each of the CTA's warps copies its
/// warp_slice in 32-lane chunks (load_coalesced + warp_scatter). The copy
/// is one host memcpy; each warp's loads, shared stores and contiguous
/// bank replays are charged in closed form. The offset form lets one CTA
/// stage several disjoint runs side by side.
template <class K>
void stage_shared(vgpu::CtaCtx& cta, std::span<const K> v, u64 begin,
                  u64 len, vgpu::SharedSpan<K>& sh, u64 sh_off = 0) {
  assert(begin + len <= v.size() && sh_off + len <= sh.size());
  std::copy_n(v.data() + begin, len, sh.data() + sh_off);
  vgpu::KernelStats& st = cta.stats();
  for (u32 w = 0; w < cta.warps_per_cta(); ++w) {
    const u64 slen = warp_slice(len, w, cta.warps_per_cta()).len;
    vgpu::charge_coalesced_loads<K>(st, slen);
    st.shared_stores += slen;
    st.shared_bank_conflicts += vgpu::SharedSpan<K>::contiguous_run_replays(slen);
  }
}

/// Coalesced emission of the leading `count` shared elements into `out`
/// (32-lane warp_gather + store_coalesced chunks), charged in closed form.
template <class K>
void emit_shared(vgpu::Warp& w, const vgpu::SharedSpan<K>& sh,
                 std::span<K> out, u64 count) {
  assert(count <= sh.size() && count <= out.size());
  std::copy_n(sh.data(), count, out.data());
  w.stats().shared_loads += count;
  w.stats().shared_bank_conflicts +=
      vgpu::SharedSpan<K>::contiguous_run_replays(count);
  vgpu::charge_coalesced_stores<K>(w.stats(), count);
}

/// Host stand-in for the shared-memory sorting network, whose charge the
/// caller adds analytically: leaves the `keep` largest of p[0, n) in
/// p[0, keep), sorted descending. Nothing past the emitted prefix is ever
/// read, so the rest stays unsorted.
template <class K>
void sort_top(K* p, u64 n, u64 keep) {
  if (keep < n) std::nth_element(p, p + keep, p + n, std::greater<>());
  std::sort(p, p + keep, std::greater<>());
}

}  // namespace detail

/// One-launch top-k of a small input. Returns exactly k keys sorted
/// descending (selection-only: just the k-th key), bit-identical to every
/// other engine's multiset. No scratch beyond the CTA's shared arena.
template <class K>
TopkResult<K> small_topk_shared(Accum& acc, std::span<const K> v, u64 k,
                                bool selection_only = false) {
  const u64 n = v.size();
  assert(k >= 1 && k <= n);
  assert(small_topk_fits<K>(acc.device().profile(), n));
  WallTimer wall;
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
    // (i) Coalesced staging: every warp copies its slice into shared.
    detail::stage_shared(cta, v, 0, n, sh);
    // (ii) In-place bitonic sort, descending. The compare-exchange network
    // is charged analytically (same convention as topk/bitonic.hpp); the
    // host only orders what is emitted.
    vgpu::Warp w = cta.warp(0);
    detail::charge_shared_network(w.stats(),
                                  detail::bitonic_sort_cx(std::bit_ceil(n)));
    // (iii) Emission straight out of shared memory.
    if (selection_only) {
      std::nth_element(sh.data(), sh.data() + (k - 1), sh.data() + n,
                       std::greater<>());
      w.st(out, 0, sh.ld(k - 1));
    } else {
      detail::sort_top(sh.data(), n, k);
      detail::emit_shared(w, sh, out, k);
    }
  });

  r.kth = r.keys.back();
  r.stats = acc.stats();
  r.sim_ms = acc.sim_ms();
  r.wall_ms = wall.ms();
  return r;
}

}  // namespace drtopk::topk
