// Instrumentation counters gathered while a kernel runs on the virtual GPU.
// These are the quantities the paper reasons about: global-memory element
// accesses and sector transactions (Table 3, Equations 2-5), shuffle
// instructions (Equation 2), atomics (Section 4.2) and shared-memory traffic
// with bank conflicts (Section 5.3).
#pragma once

#include <string>

#include "vgpu/types.hpp"

namespace drtopk::vgpu {

struct KernelStats {
  // Global memory, element granularity (what Eq. 2-5 count).
  u64 global_load_elems = 0;
  u64 global_store_elems = 0;
  u64 global_load_bytes = 0;
  u64 global_store_bytes = 0;

  // Global memory, 32-byte sector transactions (what Table 3 counts).
  // A fully coalesced warp access of 32 x 4B elements costs 4 sectors;
  // a scattered access costs one sector per lane.
  u64 global_load_txns = 0;
  u64 global_store_txns = 0;

  // Intra-warp communication: shuffle executions, counted per active lane
  // per step exactly as Section 5.2 does (a full 32-lane max-reduction is
  // 16+8+4+2+1 = 31 shuffles).
  u64 shfl_ops = 0;

  // Warp vote (ballot) instructions; cheap, tracked separately.
  u64 vote_ops = 0;

  u64 atomic_ops = 0;

  // Shared memory.
  u64 shared_loads = 0;
  u64 shared_stores = 0;
  u64 shared_bank_conflicts = 0;  ///< extra serialized cycles beyond 1/access

  // Control.
  u64 kernels_launched = 0;
  u64 ctas_run = 0;

  KernelStats& operator+=(const KernelStats& o) {
    global_load_elems += o.global_load_elems;
    global_store_elems += o.global_store_elems;
    global_load_bytes += o.global_load_bytes;
    global_store_bytes += o.global_store_bytes;
    global_load_txns += o.global_load_txns;
    global_store_txns += o.global_store_txns;
    shfl_ops += o.shfl_ops;
    vote_ops += o.vote_ops;
    atomic_ops += o.atomic_ops;
    shared_loads += o.shared_loads;
    shared_stores += o.shared_stores;
    shared_bank_conflicts += o.shared_bank_conflicts;
    kernels_launched += o.kernels_launched;
    ctas_run += o.ctas_run;
    return *this;
  }

  /// Field-by-field equality: the emulation contract is that a kernel's
  /// counters match its warp-synchronous program's exactly.
  bool operator==(const KernelStats&) const = default;

  friend KernelStats operator+(KernelStats a, const KernelStats& b) {
    a += b;
    return a;
  }

  u64 global_elems() const { return global_load_elems + global_store_elems; }
  u64 global_bytes() const { return global_load_bytes + global_store_bytes; }
  u64 global_txns() const { return global_load_txns + global_store_txns; }

  std::string to_string() const;
};

}  // namespace drtopk::vgpu
