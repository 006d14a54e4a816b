// Warp-cooperative programming model.
//
// Kernels on the virtual GPU are written warp-synchronously: a Warp executes
// as a unit, per-thread registers live in LaneArray<T>, and lanes exchange
// data only through the collectives below. Each collective charges the
// shuffle count the hardware would execute — a full 32-lane reduction costs
// 16+8+4+2+1 = 31 shuffle executions, the exact accounting used in the
// paper's Equation 2 and Rule 4.
#pragma once

#include <bit>
#include <cassert>
#include <span>
#include <utility>

#include "vgpu/stats.hpp"
#include "vgpu/types.hpp"

namespace drtopk::vgpu {

namespace detail {

/// Sector transactions for a contiguous warp access of `bytes` bytes.
/// Contiguous aligned accesses are perfectly coalesced.
inline u64 coalesced_txns(u64 bytes) {
  return (bytes + kSectorBytes - 1) / kSectorBytes;
}

template <class T>
struct AtomicOps {
  static T fetch_add(T* p, T v) {
    return std::atomic_ref<T>(*p).fetch_add(v, std::memory_order_relaxed);
  }
  static T fetch_max(T* p, T v) {
    std::atomic_ref<T> a(*p);
    T cur = a.load(std::memory_order_relaxed);
    while (cur < v &&
           !a.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
    return cur;
  }
};

}  // namespace detail

/// Closed-form charge of `len` consecutive elements of T loaded by a warp
/// as coalesced 32-lane accesses, the last one ragged: the accounting of
/// every chunked streaming loop (Warp::scan_coalesced, a load_coalesced
/// loop), for kernels that move the data with host code.
template <class T>
void charge_coalesced_loads(KernelStats& s, u64 len) {
  s.global_load_elems += len;
  s.global_load_bytes += len * sizeof(T);
  s.global_load_txns +=
      len / kWarpSize * detail::coalesced_txns(u64{kWarpSize} * sizeof(T)) +
      detail::coalesced_txns(len % kWarpSize * sizeof(T));
}

/// Store counterpart of charge_coalesced_loads (a store_coalesced loop).
template <class T>
void charge_coalesced_stores(KernelStats& s, u64 len) {
  s.global_store_elems += len;
  s.global_store_bytes += len * sizeof(T);
  s.global_store_txns +=
      len / kWarpSize * detail::coalesced_txns(u64{kWarpSize} * sizeof(T)) +
      detail::coalesced_txns(len % kWarpSize * sizeof(T));
}

class Warp {
 public:
  Warp(KernelStats& stats, u32 global_id, u32 grid_warps)
      : sink_(&stats), global_id_(global_id), grid_warps_(grid_warps) {}

  // Accounting is accumulated into a warp-local KernelStats (a hot-loop
  // store into a stack struct, not a pointer chase into the per-worker
  // sink) and flushed once when the warp retires. Copies are forbidden so
  // a warp's counters are flushed exactly once.
  Warp(const Warp&) = delete;
  Warp& operator=(const Warp&) = delete;
  ~Warp() { flush_stats(); }

  u32 global_id() const { return global_id_; }
  u32 grid_warps() const { return grid_warps_; }

  /// The warp's local (not yet flushed) counters; kernels may charge
  /// analytic costs directly through this.
  KernelStats& stats() { return local_; }

  /// Adds the local counters to the launch's per-worker sink. Called
  /// automatically on destruction; idempotent.
  void flush_stats() {
    *sink_ += local_;
    local_ = KernelStats{};
  }

  // ------------------------------------------------------------------
  // Global memory
  // ------------------------------------------------------------------

  /// Single-lane (divergent) load: one sector transaction regardless of size.
  template <class T>
  T ld(std::span<const T> v, u64 i) {
    local_.global_load_elems += 1;
    local_.global_load_bytes += sizeof(T);
    local_.global_load_txns += 1;
    return v[i];
  }

  /// Single-lane (divergent) store.
  template <class T>
  void st(std::span<T> v, u64 i, const T& x) {
    local_.global_store_elems += 1;
    local_.global_store_bytes += sizeof(T);
    local_.global_store_txns += 1;
    v[i] = x;
  }

  /// Warp-coalesced load of `active` consecutive elements starting at base;
  /// lane l receives v[base + l]. Inactive lanes get value-initialized T.
  /// The full-warp case runs a constant-trip-count copy with no per-lane
  /// branches so it auto-vectorizes (the accounting is hoisted in front).
  template <class T>
  LaneArray<T> load_coalesced(std::span<const T> v, u64 base,
                              u32 active = kWarpSize) {
    assert(active <= kWarpSize && base + active <= v.size());
    charge_coalesced_loads<T>(local_, active);
    const T* src = v.data() + base;
    LaneArray<T> out;
    if (active == kWarpSize) {
      for (u32 l = 0; l < kWarpSize; ++l) out[l] = src[l];
    } else {
      out = LaneArray<T>{};
      for (u32 l = 0; l < active; ++l) out[l] = src[l];
    }
    return out;
  }

  /// Warp-coalesced store of `active` consecutive elements. Full-warp fast
  /// path as in load_coalesced.
  template <class T>
  void store_coalesced(std::span<T> v, u64 base, const LaneArray<T>& x,
                       u32 active = kWarpSize) {
    assert(active <= kWarpSize && base + active <= v.size());
    charge_coalesced_stores<T>(local_, active);
    T* dst = v.data() + base;
    if (active == kWarpSize) {
      for (u32 l = 0; l < kWarpSize; ++l) dst[l] = x[l];
    } else {
      for (u32 l = 0; l < active; ++l) dst[l] = x[l];
    }
  }

  /// Streams [begin, begin+len) through the warp in coalesced 32-element
  /// chunks; calls f(lane, value) for every element. This is the canonical
  /// "each thread strides through the subrange" pattern of the paper's
  /// warp-centric delegate construction.
  ///
  /// Hot-loop structure: the accounting (element/byte/transaction totals)
  /// is in closed form and hoisted out entirely, and the full 32-element
  /// chunks run with a constant trip count and no branches — an inlined f
  /// over the contiguous slice auto-vectorizes. The ragged tail is handled
  /// once at the end.
  template <class T, class F>
  void scan_coalesced(std::span<const T> v, u64 begin, u64 len, F&& f) {
    assert(begin + len <= v.size());
    const u64 full = len / kWarpSize;
    const u32 tail = static_cast<u32>(len % kWarpSize);
    const T* p = v.data();
    u64 pos = begin;
    for (u64 c = 0; c < full; ++c, pos += kWarpSize) {
      for (u32 l = 0; l < kWarpSize; ++l) f(l, p[pos + l]);
    }
    for (u32 l = 0; l < tail; ++l) f(l, p[pos + l]);
    charge_coalesced_loads<T>(local_, len);
  }

  /// Like scan_coalesced but also passes the element index:
  /// f(lane, value, index).
  template <class T, class F>
  void scan_coalesced_idx(std::span<const T> v, u64 begin, u64 len, F&& f) {
    assert(begin + len <= v.size());
    const u64 full = len / kWarpSize;
    const u32 tail = static_cast<u32>(len % kWarpSize);
    const T* p = v.data();
    u64 pos = begin;
    for (u64 c = 0; c < full; ++c, pos += kWarpSize) {
      for (u32 l = 0; l < kWarpSize; ++l) f(l, p[pos + l], pos + l);
    }
    for (u32 l = 0; l < tail; ++l) f(l, p[pos + l], pos + l);
    charge_coalesced_loads<T>(local_, len);
  }

  /// Scattered warp store: lane l (if bit l of mask set) writes val[l] to
  /// v[idx[l]]. Charged one sector per active lane — the uncoalesced pattern
  /// the paper's flag-based radix optimization removes.
  template <class T>
  void store_scattered(std::span<T> v, const LaneArray<u64>& idx,
                       const LaneArray<T>& val, u32 mask) {
    const u32 active = std::popcount(mask);
    local_.global_store_elems += active;
    local_.global_store_bytes += static_cast<u64>(active) * sizeof(T);
    local_.global_store_txns += active;
    for (u32 l = 0; l < kWarpSize; ++l) {
      if (mask & (1u << l)) v[idx[l]] = val[l];
    }
  }

  /// Lane-scoped atomic fetch-add (thread-safe across CTAs).
  template <class T>
  T atomic_add(std::span<T> v, u64 i, T delta) {
    local_.atomic_ops += 1;
    return detail::AtomicOps<T>::fetch_add(&v[i], delta);
  }

  template <class T>
  T atomic_max(std::span<T> v, u64 i, T x) {
    local_.atomic_ops += 1;
    return detail::AtomicOps<T>::fetch_max(&v[i], x);
  }

  // ------------------------------------------------------------------
  // Collectives (intra-warp communication via shuffles)
  // ------------------------------------------------------------------

  /// Butterfly max-reduction; charges sum_{i=1..5} active/2^i shuffles
  /// (31 for a full warp, per Section 5.2).
  template <class T>
  T reduce_max(const LaneArray<T>& x, u32 active = kWarpSize) {
    charge_reduction(active);
    T best = x[0];
    for (u32 l = 1; l < active; ++l)
      if (x[l] > best) best = x[l];
    return best;
  }

  template <class T>
  T reduce_min(const LaneArray<T>& x, u32 active = kWarpSize) {
    charge_reduction(active);
    T best = x[0];
    for (u32 l = 1; l < active; ++l)
      if (x[l] < best) best = x[l];
    return best;
  }

  template <class T>
  T reduce_add(const LaneArray<T>& x, u32 active = kWarpSize) {
    charge_reduction(active);
    T sum{};
    for (u32 l = 0; l < active; ++l) sum += x[l];
    return sum;
  }

  /// Max-reduction that also reports the winning lane (lowest lane wins
  /// ties, matching the deterministic behaviour of a shfl-based argmax).
  template <class T>
  std::pair<T, u32> reduce_max_index(const LaneArray<T>& x,
                                     u32 active = kWarpSize) {
    charge_reduction(active);
    T best = x[0];
    u32 lane = 0;
    for (u32 l = 1; l < active; ++l) {
      if (x[l] > best) {
        best = x[l];
        lane = l;
      }
    }
    return {best, lane};
  }

  /// Broadcast from src lane to all active lanes (shfl with a uniform
  /// source); one shuffle execution per receiving lane.
  template <class T>
  T broadcast(const LaneArray<T>& x, u32 src, u32 active = kWarpSize) {
    assert(src < kWarpSize);
    local_.shfl_ops += active;
    return x[src];
  }

  /// Warp vote: bit l of the result is pred[l] != 0 for active lanes.
  u32 ballot(const LaneArray<u8>& pred, u32 active = kWarpSize) {
    local_.vote_ops += 1;
    u32 mask = 0;
    for (u32 l = 0; l < active; ++l)
      if (pred[l]) mask |= (1u << l);
    return mask;
  }

  /// Exclusive prefix sum across lanes (Hillis-Steele via shfl_up):
  /// step d in {1,2,4,8,16} has (active - d) receiving lanes.
  template <class T>
  LaneArray<T> exclusive_scan_add(const LaneArray<T>& x,
                                  u32 active = kWarpSize) {
    for (u32 d = 1; d < active; d <<= 1) local_.shfl_ops += active - d;
    LaneArray<T> out{};
    T run{};
    for (u32 l = 0; l < active; ++l) {
      out[l] = run;
      run += x[l];
    }
    return out;
  }

 private:
  void charge_reduction(u32 active) {
    // Tree reduction: halve the active lanes each step.
    for (u32 w = active / 2; w >= 1; w /= 2) local_.shfl_ops += w;
    if (active == 1) return;  // no communication needed
  }

  KernelStats* sink_;       ///< the launch's per-worker stats
  KernelStats local_;       ///< warp-local accumulator, flushed once
  u32 global_id_;
  u32 grid_warps_;
};

}  // namespace drtopk::vgpu
