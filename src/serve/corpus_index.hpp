// Corpus registry and per-corpus delegate index for the top-k server.
//
//   serve::CorpusId id = server.register_corpus(std::span<const u32>(data));
//   auto f = server.submit(id, 100);          // kappa is a lookup, not a launch
//   server.unregister_corpus(id);             // index freed after in-flight work
//
// The delegate vector (Sections 3-4) summarizes a corpus: one to two orders
// of magnitude smaller, and it depends only on the data and on (alpha,
// beta, direction) — never on k. A *registered* corpus therefore gets one
// CorpusIndex per (alpha, beta, direction), built on first use by the
// regular kernels and shared by every later admission group through
// shared_ptr:
//
//   * the directed keys, when the key mapping is not the identity;
//   * the delegate vector (build_delegate_vector);
//   * the delegates sorted descending (one batched_topk launch).
//
// With the sorted delegates at hand, an exact query's stage-2 threshold
// kappa = sorted[k-1] is a lookup for ANY k <= |D| (setup-snapshot members
// and late joiners alike), and a recall-target query's answer — the top-k
// of the per-subrange maxima — is the sorted prefix itself, copied on the
// host with no launch. The build's launches are charged to "construct" and
// "first" exactly once, in the admission group that triggered it.
//
// Contract: a registered span is immutable and must stay alive until
// unregister_corpus() returns AND every query submitted against it has
// completed. An index lives as long as its registration plus any admission
// group still holding it: unregistration (and the server's destruction)
// drops the registry's references at once, so a Query that is merely kept
// around never pins an index. Query::view / Query::owned never touch the
// registry (their groups build an ephemeral delegate vector, as always).
#pragma once

#include <map>
#include <mutex>
#include <tuple>
#include <unordered_map>

#include "core/dr_topk.hpp"
#include "obs/metrics.hpp"
#include "serve/query.hpp"
#include "topk/batched.hpp"

namespace drtopk::serve {

/// Handle of a corpus registered with a TopkServer (never reused).
using CorpusId = u32;

/// Bytes held by live indexes, shared by a registry and every index it
/// built: an index may be the last thing alive (a running group's copy
/// outliving unregistration), so it reports its bytes here rather than to
/// the registry. The registry detaches the gauge when it is destroyed.
struct IndexMemory {
  std::mutex mu;
  u64 bytes = 0;                ///< guarded by mu
  obs::Gauge* gauge = nullptr;  ///< guarded by mu; null once detached

  void account(u64 added, u64 removed) {
    std::lock_guard lk(mu);
    bytes = bytes + added - removed;
    if (gauge) gauge->set(bytes);
  }
};

/// The built summary of one registered corpus under one (alpha, beta,
/// direction): directed keys, delegate vector and sorted delegates. Built
/// once, then read-only and shared by every admission group using it.
struct CorpusIndex {
  explicit CorpusIndex(std::shared_ptr<IndexMemory> mem)
      : mem_(std::move(mem)) {}
  /// Returns the index's bytes to the serve_index_bytes accounting.
  ~CorpusIndex() {
    if (bytes) mem_->account(0, bytes);
  }
  CorpusIndex(const CorpusIndex&) = delete;
  CorpusIndex& operator=(const CorpusIndex&) = delete;

  /// Backs the directed keys and the delegate vector (sized exactly once).
  vgpu::Workspace arena;
  bool keys_materialized = false;  ///< directed keys differ from the values
  std::span<const u32> keys32;
  std::span<const u64> keys64;
  core::DelegateVector<u32> dv32;
  core::DelegateVector<u64> dv64;
  std::vector<u32> sorted32;  ///< all |D| delegates, descending
  std::vector<u64> sorted64;
  u64 bytes = 0;  ///< arena capacity + sorted delegates

  /// The delegate vector of key width K.
  template <class K>
  const core::DelegateVector<K>& delegates() const {
    if constexpr (std::is_same_v<K, u64>) return dv64;
    else return dv32;
  }
  /// The directed keys of width K (only meaningful if keys_materialized).
  template <class K>
  std::span<const K> keys() const {
    if constexpr (std::is_same_v<K, u64>) return keys64;
    else return keys32;
  }
  /// The delegates of width K sorted descending.
  template <class K>
  const std::vector<K>& sorted() const {
    if constexpr (std::is_same_v<K, u64>) return sorted64;
    else return sorted32;
  }

 private:
  std::shared_ptr<IndexMemory> mem_;
};

/// A registered corpus: its immutable span and the lazily built indexes.
/// Queries submitted by id carry a shared_ptr to this entry, so the entry
/// outlives unregistration until the last of them is gone; its indexes do
/// not (unregistration clears `slots`, leaving running groups the only
/// owners).
struct RegisteredCorpus {
  std::span<const u32> v32;
  std::span<const u64> v64;

  /// One index per (alpha, beta, direction), built under its once-guard.
  struct Slot {
    std::once_flag once;
    std::shared_ptr<const CorpusIndex> index;
  };
  std::mutex mu;  ///< guards `slots` (the map, not the slots' contents)
  std::map<std::tuple<int, u32, data::Criterion>, std::shared_ptr<Slot>>
      slots;
  bool removed = false;  ///< guarded by mu; set by unregistration

  /// Marks the entry unregistered and drops its cached indexes (running
  /// groups keep their own references).
  void drop_indexes() {
    decltype(slots) dead;
    std::lock_guard lk(mu);
    removed = true;
    dead.swap(slots);
  }
};

/// The server's corpus table: registration, lookup by id, and the
/// build-once index cache with its metrics (serve_index_builds_total,
/// serve_index_hits_total, serve_index_bytes). Thread-safe.
class CorpusRegistry {
 public:
  explicit CorpusRegistry(obs::Registry& reg)
      : builds_(reg.counter("serve_index_builds_total",
                            "Corpus indexes built (delegates + sorted)")),
        hits_(reg.counter("serve_index_hits_total",
                          "Group setups served by an already-built index")),
        mem_(std::make_shared<IndexMemory>()) {
    mem_->gauge = &reg.gauge("serve_index_bytes",
                             "Bytes held by live corpus indexes");
  }
  /// Drops every cached index and detaches the gauge (which dies with the
  /// server's metrics registry): indexes still referenced elsewhere then
  /// account into the shared IndexMemory alone.
  ~CorpusRegistry() {
    for (auto& [id, c] : corpora_) c->drop_indexes();
    std::lock_guard lk(mem_->mu);
    mem_->gauge = nullptr;
  }
  CorpusRegistry(const CorpusRegistry&) = delete;
  CorpusRegistry& operator=(const CorpusRegistry&) = delete;

  /// Registers a span; the returned id stays valid until remove().
  template <class T>
  CorpusId add(std::span<const T> v) {
    auto e = std::make_shared<RegisteredCorpus>();
    if constexpr (std::is_same_v<T, u64>) e->v64 = v;
    else e->v32 = v;
    std::lock_guard lk(mu_);
    const CorpusId id = next_id_++;
    corpora_.emplace(id, std::move(e));
    return id;
  }

  /// Drops the registration and the cached indexes. In-flight queries
  /// still complete: a group that already holds an index keeps it, and a
  /// group set up after this builds one that only it owns. False when the
  /// id is unknown.
  bool remove(CorpusId id) {
    std::shared_ptr<RegisteredCorpus> dead;
    {
      std::lock_guard lk(mu_);
      auto it = corpora_.find(id);
      if (it == corpora_.end()) return false;
      dead = std::move(it->second);
      corpora_.erase(it);
    }
    dead->drop_indexes();
    return true;
  }

  /// The live entry for `id`, or null.
  std::shared_ptr<RegisteredCorpus> find(CorpusId id) const {
    std::lock_guard lk(mu_);
    auto it = corpora_.find(id);
    return it == corpora_.end() ? nullptr : it->second;
  }

  /// The corpus's index for (alpha, beta, criterion), building it on first
  /// use — exactly once, however many executors race on a cold entry (the
  /// losers block until the winner's build is published). On a build the
  /// launches' costs land in `charged` (construct + first), so the caller
  /// accounts them once; a hit leaves it untouched.
  template <class T>
  std::shared_ptr<const CorpusIndex> index_for(
      vgpu::Device& dev, RegisteredCorpus& c, data::Criterion criterion,
      int alpha, u32 beta, const core::ConstructOpts& copts,
      core::StageBreakdown* charged);

  u64 builds() const { return builds_.value(); }
  u64 hits() const { return hits_.value(); }
  u64 bytes() const {
    std::lock_guard lk(mem_->mu);
    return mem_->bytes;
  }

 private:
  template <class T>
  std::shared_ptr<const CorpusIndex> build(vgpu::Device& dev,
                                           std::span<const T> values,
                                           data::Criterion criterion,
                                           int alpha, u32 beta,
                                           const core::ConstructOpts& copts,
                                           core::StageBreakdown* charged);

  mutable std::mutex mu_;
  std::unordered_map<CorpusId, std::shared_ptr<RegisteredCorpus>> corpora_;
  CorpusId next_id_ = 0;
  obs::Counter& builds_;
  obs::Counter& hits_;
  std::shared_ptr<IndexMemory> mem_;
};

template <class T>
std::shared_ptr<const CorpusIndex> CorpusRegistry::index_for(
    vgpu::Device& dev, RegisteredCorpus& c, data::Criterion criterion,
    int alpha, u32 beta, const core::ConstructOpts& copts,
    core::StageBreakdown* charged) {
  std::shared_ptr<RegisteredCorpus::Slot> slot;
  {
    std::lock_guard lk(c.mu);
    if (c.removed) {
      // Unregistered with this query in flight: build an index that only
      // the calling group owns, so nothing is cached past unregistration.
      slot = std::make_shared<RegisteredCorpus::Slot>();
    } else {
      auto& s = c.slots[{alpha, beta, criterion}];
      if (!s) s = std::make_shared<RegisteredCorpus::Slot>();
      slot = s;
    }
  }
  bool built = false;
  std::call_once(slot->once, [&] {
    std::span<const T> values;
    if constexpr (std::is_same_v<T, u64>) values = c.v64;
    else values = c.v32;
    slot->index = build<T>(dev, values, criterion, alpha, beta, copts,
                           charged);
    built = true;
  });
  (built ? builds_ : hits_).add();
  return slot->index;
}

template <class T>
std::shared_ptr<const CorpusIndex> CorpusRegistry::build(
    vgpu::Device& dev, std::span<const T> values, data::Criterion criterion,
    int alpha, u32 beta, const core::ConstructOpts& copts,
    core::StageBreakdown* charged) {
  using Key = typename data::KeyTraits<T>::Key;
  auto idx = std::make_shared<CorpusIndex>(mem_);
  const u64 n = values.size();
  const u64 subranges = (n + (u64{1} << alpha) - 1) >> alpha;
  const bool materialize = !topk::key_is_identity<T>(criterion);
  // One exact-size block: directed keys + delegate keys (+ sids) + slack
  // for alignment, so the arena never grows past what it holds.
  idx->arena.reserve_bytes((materialize ? n * sizeof(Key) : 0) +
                           subranges * beta * (sizeof(Key) + sizeof(u32)) +
                           256);
  topk::Accum construct_acc(dev);
  std::span<const Key> keyspan;
  core::DelegateVector<Key> dv;
  {
    vgpu::StageScope construct("construct");
    if (materialize) {
      keyspan = topk::make_directed_keys(construct_acc, values, criterion,
                                         idx->arena);
    } else {
      keyspan = values;  // Key == T for u32/u64
    }
    dv = core::build_delegate_vector<Key>(construct_acc, keyspan, alpha, beta,
                                          copts, idx->arena);
  }
  // The sorted delegates: one full-width selection over D. Scratch comes
  // from a call-local arena, freed on return.
  topk::Accum first_acc(dev);
  std::vector<Key> sorted;
  {
    vgpu::StageScope first("first");
    vgpu::Workspace scratch;
    const std::span<const Key> dkeys(dv.keys.data(), dv.keys.size());
    const topk::BatchedSegment<Key> seg{dkeys, dkeys.size(), 0, false};
    auto br = topk::batched_topk<Key>(
        first_acc, std::span<const topk::BatchedSegment<Key>>(&seg, 1),
        topk::BatchedMode::kAuto, scratch);
    sorted = std::move(br.keys[0]);
  }
  idx->keys_materialized = materialize;
  if constexpr (std::is_same_v<Key, u64>) {
    idx->keys64 = keyspan;
    idx->dv64 = dv;
    idx->sorted64 = std::move(sorted);
  } else {
    idx->keys32 = keyspan;
    idx->dv32 = dv;
    idx->sorted32 = std::move(sorted);
  }
  idx->bytes = idx->arena.capacity_bytes() + dv.keys.size() * sizeof(Key);
  mem_->account(idx->bytes, 0);
  if (charged) {
    charged->construct_ms += construct_acc.sim_ms();
    charged->construct_stats += construct_acc.stats();
    charged->first_ms += first_acc.sim_ms();
    charged->first_stats += first_acc.stats();
  }
  return idx;
}

}  // namespace drtopk::serve
