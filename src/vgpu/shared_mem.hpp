// Per-CTA shared memory with a bank-conflict model.
//
// V100-class GPUs expose 32 banks of 4-byte words; a warp access in which
// multiple lanes hit *different words in the same bank* is replayed once per
// extra word. Section 5.3 of the paper pads its shared-memory layout to
// avoid exactly these replays; SharedSpan::warp_gather/warp_scatter measure
// them so the padding ablation is observable.
#pragma once

#include <algorithm>
#include <array>
#include <cassert>
#include <cstring>
#include <vector>

#include "vgpu/stats.hpp"
#include "vgpu/types.hpp"

namespace drtopk::vgpu {

template <class T>
class SharedSpan {
 public:
  SharedSpan() = default;
  SharedSpan(T* p, u64 n, KernelStats* stats) : p_(p), n_(n), stats_(stats) {}

  u64 size() const { return n_; }

  T ld(u64 i) const {
    assert(i < n_);
    stats_->shared_loads += 1;
    return p_[i];
  }

  void st(u64 i, const T& v) {
    assert(i < n_);
    stats_->shared_stores += 1;
    p_[i] = v;
  }

  /// Warp-wide gather: lane l reads element idx(l). Counts `active` loads
  /// plus the replay cycles caused by bank conflicts.
  template <class IdxFn>
  LaneArray<T> warp_gather(u32 active, IdxFn&& idx) const {
    LaneArray<T> out{};
    for (u32 l = 0; l < active; ++l) {
      const u64 i = idx(l);
      assert(i < n_);
      out[l] = p_[i];
    }
    stats_->shared_loads += active;
    stats_->shared_bank_conflicts += bank_replays(active, idx);
    return out;
  }

  /// Warp-wide scatter: lane l writes val[l] to element idx(l).
  template <class IdxFn>
  void warp_scatter(u32 active, IdxFn&& idx, const LaneArray<T>& val) {
    for (u32 l = 0; l < active; ++l) {
      const u64 i = idx(l);
      assert(i < n_);
      p_[i] = val[l];
    }
    stats_->shared_stores += active;
    stats_->shared_bank_conflicts += bank_replays(active, idx);
  }

  /// Replay cycles (beyond the first) of one warp access in which lane l
  /// touches element idx(l): for each bank, count the distinct words
  /// touched; the access is serialized max-over-banks times. The count
  /// depends only on the index pattern, never on the data, so a kernel
  /// whose pattern is fixed may evaluate it once and charge it per access
  /// — warp_gather/warp_scatter and those closed forms share this one
  /// definition. Translating every index by d shifts every word by
  /// d*sizeof(T)/4 and so permutes the banks cyclically (for 4- and 8-byte
  /// T): a contiguous run's count depends on its length only.
  template <class IdxFn>
  static u64 bank_replays(u32 active, IdxFn&& idx) {
    u32 bank_words[kSharedBanks][kWarpSize];
    u32 bank_count[kSharedBanks] = {};
    u32 worst = 1;
    for (u32 l = 0; l < active; ++l) {
      const u64 word = static_cast<u64>(idx(l)) * sizeof(T) / 4;
      const u32 bank = static_cast<u32>(word % kSharedBanks);
      bool seen = false;
      for (u32 j = 0; j < bank_count[bank]; ++j) {
        if (bank_words[bank][j] == static_cast<u32>(word)) {
          seen = true;  // same word: broadcast, no extra replay
          break;
        }
      }
      if (!seen) {
        bank_words[bank][bank_count[bank]++] = static_cast<u32>(word);
        worst = std::max(worst, bank_count[bank]);
      }
    }
    return worst - 1;
  }

  /// Total replays of `len` consecutive elements accessed as 32-lane warp
  /// accesses, the last one ragged (a coalesced staging or emission loop).
  /// By the translation argument above each access's count depends only
  /// on its lane count, so the per-count table is evaluated once per T.
  static u64 contiguous_run_replays(u64 len) {
    static const std::array<u64, kWarpSize + 1> per_access = [] {
      std::array<u64, kWarpSize + 1> t{};
      for (u32 a = 1; a <= kWarpSize; ++a)
        t[a] = bank_replays(a, [](u32 l) { return u64{l}; });
      return t;
    }();
    return len / kWarpSize * per_access[kWarpSize] +
           per_access[len % kWarpSize];
  }

  /// Raw access, not charged: for tests, and for kernels that compute
  /// their result with host code and charge their accesses in closed form.
  T* data() { return p_; }
  const T* data() const { return p_; }

 private:
  T* p_ = nullptr;
  u64 n_ = 0;
  KernelStats* stats_ = nullptr;
};

/// Bump allocator over the CTA's shared-memory arena. Kernels carve typed
/// spans out of it exactly like `__shared__` array declarations.
class SharedMem {
 public:
  SharedMem(std::byte* arena, u64 capacity, KernelStats* stats)
      : arena_(arena), capacity_(capacity), stats_(stats) {}

  template <class T>
  SharedSpan<T> alloc(u64 n) {
    const u64 align = alignof(T);
    u64 off = (used_ + align - 1) / align * align;
    const u64 bytes = n * sizeof(T);
    assert(off + bytes <= capacity_ && "shared memory overflow");
    used_ = off + bytes;
    return SharedSpan<T>(reinterpret_cast<T*>(arena_ + off), n, stats_);
  }

  u64 used() const { return used_; }
  u64 capacity() const { return capacity_; }

 private:
  std::byte* arena_;
  u64 capacity_;
  u64 used_ = 0;
  KernelStats* stats_;
};

}  // namespace drtopk::vgpu
