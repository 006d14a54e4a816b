// Shared pieces of the serving benchmark: clocks, command line, the oracle,
// per-window tallies, bench-side trace spans, counter snapshots and the
// metric report. Everything here reads the program under test through its
// public headers only.
#pragma once

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "net/net_server.hpp"
#include "serve/server.hpp"
#include "serve/sharded.hpp"

namespace perfbench {

using namespace drtopk;

inline u64 now_ns() {
  return static_cast<u64>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}
inline double seconds_since(u64 t0_ns) {
  return static_cast<double>(now_ns() - t0_ns) / 1e9;
}

struct Args {
  std::string workload;
  u64 seed = 0;
  double seconds = 0;
  bool trace = false;
  std::string out_dir;  ///< where the traced run writes its span file
};

/// q-quantile (nearest rank) of `v`; sorts in place. 0 for an empty sample.
inline double quantile(std::vector<double>& v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size());
  size_t idx = pos <= 1.0 ? 0 : static_cast<size_t>(std::ceil(pos)) - 1;
  return v[std::min(idx, v.size() - 1)];
}

inline double median(std::vector<double> v) { return quantile(v, 0.5); }

inline double ratio(double num, double den) {
  return den != 0.0 ? num / den : 0.0;
}

/// Per-process CPU time (user + system) in microseconds.
inline double cpu_us() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto us = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) * 1e6 +
           static_cast<double>(t.tv_usec);
  };
  return us(ru.ru_utime) + us(ru.ru_stime);
}

// ---------------------------------------------------------------------------
// Oracle: a best-first (descending) sorted copy of every input, built with
// std::sort during set-up and outside the timed set-up phase.

class Oracle {
 public:
  template <class T>
  explicit Oracle(std::span<const T> v) : desc_(v.begin(), v.end()) {
    std::sort(desc_.begin(), desc_.end(), std::greater<>());
  }

  u64 n() const { return desc_.size(); }

  /// i-th best value under `c` (0 = best).
  u64 at(data::Criterion c, u64 i) const {
    return c == data::Criterion::kLargest ? desc_[i]
                                          : desc_[desc_.size() - 1 - i];
  }

  /// An exact answer: `values` is the oracle's best-first prefix of length
  /// k, bit for bit, and `kth` its last element. Selection-only answers
  /// are judged on `kth` alone.
  bool exact_ok(data::Criterion c, u64 k, bool selection_only,
                const std::vector<u64>& values, u64 kth) const {
    if (k == 0 || k > n() || kth != at(c, k - 1)) return false;
    if (selection_only) return true;
    if (values.size() != k) return false;
    for (u64 i = 0; i < k; ++i)
      if (values[i] != at(c, i)) return false;
    return true;
  }

  /// An approximate answer must be well-formed — k values, best-first —
  /// and is scored by its recall: the multiset intersection with the true
  /// top-k, over k. Returns -1 for a malformed answer.
  double recall(data::Criterion c, u64 k,
                const std::vector<u64>& values) const {
    if (k == 0 || k > n() || values.size() != k) return -1.0;
    const auto better = [c](u64 a, u64 b) {
      return c == data::Criterion::kLargest ? a > b : a < b;
    };
    for (u64 i = 1; i < k; ++i)
      if (better(values[i], values[i - 1])) return -1.0;
    u64 i = 0, j = 0, hit = 0;
    while (i < k && j < k) {
      const u64 a = values[i], b = at(c, j);
      if (a == b) {
        ++hit, ++i, ++j;
      } else if (better(a, b)) {
        ++i;
      } else {
        ++j;
      }
    }
    return static_cast<double>(hit) / static_cast<double>(k);
  }

 private:
  std::vector<u64> desc_;
};

// ---------------------------------------------------------------------------
// What one measured window saw, from the client side.

struct Tally {
  u64 attempted = 0;  ///< requests sent / submitted
  u64 answered = 0;   ///< answered with a value (ok or degraded)
  u64 good = 0;       ///< answered correctly (and within the deadline)
  u64 wrong = 0;      ///< exact answer differing from the oracle, or a
                      ///< malformed approximate one
  u64 errors = 0;     ///< kError / kBadRequest / exception from the future
  u64 lost = 0;       ///< no response, or a duplicate / unknown id
  u64 shed = 0;       ///< typed shed responses
  u64 degraded = 0;
  u64 approx_answers = 0;   ///< approximate or degraded answers
  double approx_recall_sum = 0;
  double all_recall_sum = 0;  ///< recall over every answer (exact ok = 1)
  u64 t0_ns = 0;        ///< window start
  double window_s = 0;  ///< requested window length (the drain excluded)
  double n_sum = 0;  ///< summed input length of the answered queries
  std::vector<double> latency_us;     ///< client-observed, answered only
  std::vector<u64> done_ns;           ///< completion time of each answer
  std::vector<double> sim_exact_us;   ///< QueryResult::latency_sim_ms
  std::vector<double> sim_approx_us;
  std::vector<double> service_us;     ///< wall_ms - queue_us (in process)
  std::vector<double> client_minus_server_us;  ///< net only
  std::vector<double> server_us;               ///< net only
  std::vector<double> gen_late_us;             ///< open loop only

  u64 failed() const { return wrong + errors + lost; }

  /// Share of attempted requests not answered correctly: wrong answers,
  /// errors, lost/duplicate/unknown ids and sheds.
  double error_frac() const {
    return ratio(static_cast<double>(wrong + errors + lost + shed),
                 static_cast<double>(attempted));
  }

  /// Mean oracle recall of the approximate or degraded answers; on a
  /// window with none, the mean recall of every answer (1 when all exact
  /// answers matched the oracle).
  double recall_mean() const {
    if (approx_answers)
      return approx_recall_sum / static_cast<double>(approx_answers);
    return answered ? all_recall_sum / static_cast<double>(answered) : 0.0;
  }

  /// Judges one answer and files its latency. `floor_ok` is false when a
  /// degraded answer claims less fidelity than the client allowed.
  void record(const Oracle& o, data::Criterion c, u64 k, bool selection_only,
              bool approx, const std::vector<u64>& values, u64 kth,
              double latency_us_v, u64 done, bool in_deadline = true,
              bool floor_ok = true) {
    ++answered;
    latency_us.push_back(latency_us_v);
    done_ns.push_back(done);
    bool ok = false;
    double r = 0;
    if (approx) {
      r = floor_ok ? o.recall(c, k, values) : -1.0;
      ok = r >= 0;
      if (ok) {
        ++approx_answers;
        approx_recall_sum += r;
      }
    } else {
      ok = o.exact_ok(c, k, selection_only, values, kth);
      r = ok ? 1.0 : std::max(0.0, o.recall(c, k, values));
    }
    all_recall_sum += std::max(0.0, r);
    if (!ok) ++wrong;
    if (ok && in_deadline) ++good;
  }
};

/// The answered latencies of the window, cut into `parts` equal slices by
/// completion time. The end-to-end figures are medians over slices, so one
/// slice disturbed by another process on the host moves them less.
inline std::vector<std::vector<double>> slice_latencies(const Tally& t,
                                                        u32 parts) {
  const double len = t.window_s / parts;
  std::vector<std::vector<double>> slices(parts);
  for (size_t i = 0; i < t.done_ns.size(); ++i) {
    if (t.done_ns[i] < t.t0_ns) continue;
    const double at = static_cast<double>(t.done_ns[i] - t.t0_ns) / 1e9;
    const u64 j = static_cast<u64>(at / len);
    if (j < parts) slices[j].push_back(t.latency_us[i]);
  }
  return slices;
}

// ---------------------------------------------------------------------------
// Bench-side trace spans: recorded around each call into a layer, kept in
// memory per generator thread, written out once the run ends.

struct Span {
  const char* name = "";
  u64 start_ns = 0, end_ns = 0;
  u64 request = 0;
  u32 parent = 0;  ///< 1-based index of the parent span in the same lane
  u32 lane = 0;
};

class SpanLog {
 public:
  explicit SpanLog(bool enabled, u32 lane = 0, size_t capacity = 1u << 19)
      : enabled_(enabled), lane_(lane) {
    if (enabled_) spans_.reserve(capacity);
  }

  /// Opens a span; returns its 1-based handle (0 when not recording).
  u32 open(const char* name, u64 request, u32 parent = 0,
           u64 start = 0) {
    if (!enabled_ || spans_.size() == spans_.capacity()) {
      if (enabled_) ++dropped_;
      return 0;
    }
    spans_.push_back({name, start ? start : now_ns(), 0, request, parent,
                      lane_});
    return static_cast<u32>(spans_.size());
  }
  void close(u32 handle, u64 end = 0) {
    if (handle) spans_[handle - 1].end_ns = end ? end : now_ns();
  }

  const std::vector<Span>& spans() const { return spans_; }
  u64 dropped() const { return dropped_; }

 private:
  bool enabled_;
  u32 lane_;
  std::vector<Span> spans_;
  u64 dropped_ = 0;
};

/// RAII span over one call.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog& log, const char* name, u64 request, u32 parent = 0)
      : log_(log), h_(log.open(name, request, parent)) {}
  ~ScopedSpan() { log_.close(h_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog& log_;
  u32 h_;
};

/// Writes every lane's spans as Chrome trace_event JSON and prints each
/// span name's count and mean self time (duration minus the part its
/// children cover).
inline void write_spans(const std::vector<const SpanLog*>& logs,
                        const std::string& path) {
  std::error_code ec;
  std::filesystem::create_directories(
      std::filesystem::path(path).parent_path(), ec);
  std::ofstream f(path);
  u64 t0 = ~u64{0};
  for (const SpanLog* l : logs)
    for (const Span& s : l->spans()) t0 = std::min(t0, s.start_ns);
  struct Agg {
    u64 n = 0;
    double self_us = 0;
  };
  std::map<std::string, Agg> agg;
  f << "{\"traceEvents\":[";
  bool first = true;
  for (const SpanLog* l : logs) {
    const auto& sp = l->spans();
    std::vector<u64> child_ns(sp.size(), 0);
    for (const Span& s : sp)
      if (s.parent && s.end_ns > s.start_ns)
        child_ns[s.parent - 1] += s.end_ns - s.start_ns;
    for (size_t i = 0; i < sp.size(); ++i) {
      const Span& s = sp[i];
      if (s.end_ns < s.start_ns) continue;  // never closed
      const u64 dur = s.end_ns - s.start_ns;
      Agg& a = agg[s.name];
      ++a.n;
      a.self_us += static_cast<double>(dur - std::min(dur, child_ns[i])) / 1e3;
      if (!f) continue;
      f << (first ? "" : ",") << "{\"name\":\"" << s.name
        << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << s.lane
        << ",\"ts\":" << static_cast<double>(s.start_ns - t0) / 1e3
        << ",\"dur\":" << static_cast<double>(dur) / 1e3
        << ",\"args\":{\"request\":" << s.request << ",\"id\":" << i + 1
        << ",\"parent\":" << s.parent << "}}";
      first = false;
    }
  }
  f << "]}\n";
  u64 dropped = 0;
  for (const SpanLog* l : logs) dropped += l->dropped();
  std::printf("trace spans -> %s (%llu dropped: log full)\n", path.c_str(),
              static_cast<unsigned long long>(dropped));
  for (const auto& [name, a] : agg)
    std::printf("  span %-14s n=%-8llu mean self %.2f us\n", name.c_str(),
                static_cast<unsigned long long>(a.n),
                a.self_us / static_cast<double>(std::max<u64>(1, a.n)));
}

// ---------------------------------------------------------------------------
// Counter snapshots, taken at both ends of a measured window. Every number
// a per-layer metric needs is a difference of two snapshots.

/// Per-bucket counts of an obs::Histogram (keyed by bucket upper bound).
struct HistCounts {
  std::map<u64, u64> buckets;
  u64 count = 0, sum = 0;

  void add(const obs::Histogram* h) {
    if (!h) return;
    u64 prev = 0;
    for (const auto& [limit, cum] : h->cumulative_buckets()) {
      buckets[limit] += cum - prev;
      prev = cum;
    }
    count += h->count();
    sum += h->sum();
  }
  HistCounts minus(const HistCounts& o) const {
    HistCounts d;
    for (const auto& [limit, c] : buckets) {
      const auto it = o.buckets.find(limit);
      const u64 base = it == o.buckets.end() ? 0 : it->second;
      if (c > base) d.buckets[limit] = c - base;
    }
    d.count = count - o.count;
    d.sum = sum - o.sum;
    return d;
  }
  /// Upper bound of the bucket holding the q-quantile sample.
  double quantile(double q) const {
    if (count == 0) return 0.0;
    const u64 rank = std::max<u64>(
        1, static_cast<u64>(std::ceil(q * static_cast<double>(count))));
    u64 cum = 0;
    for (const auto& [limit, c] : buckets) {
      cum += c;
      if (cum >= rank) return static_cast<double>(limit);
    }
    return static_cast<double>(buckets.rbegin()->first);
  }
  double mean() const {
    return ratio(static_cast<double>(sum), static_cast<double>(count));
  }
};

/// The pieces of one deployment the snapshots read. Non-owning.
struct Deployment {
  std::vector<vgpu::Device*> devices;        ///< every device, merge too
  std::vector<serve::TopkServer*> servers;   ///< every TopkServer (shards)
  serve::ShardedTopkServer* sharded = nullptr;
  net::NetServer* front = nullptr;
};

struct StageSlot {
  vgpu::KernelStats stats;
  double sim_ms = 0;
};

struct Snapshot {
  double wall_s = 0;
  double cpu_us = 0;
  // devices
  vgpu::KernelStats dev_total;
  double dev_sim_ms = 0;
  u64 unattributed = 0;
  std::map<std::string, StageSlot> ledger;
  // serve
  u64 completed = 0, fused = 0, plan_hits = 0, plan_misses = 0;
  u64 concat_launches = 0, finalize_launches = 0;
  u64 delegate_len = 0, concat_len = 0;
  u64 ws_growths = 0;
  HistCounts queue_wait_us, group_size, sim_latency_us;
  // sharded
  serve::ShardedStats sharded;
  // net
  std::map<std::string, u64> net;
};

inline const char* const kNetCounters[] = {
    "net_admitted", "net_degraded", "net_shed", "net_deadline_missed"};

inline Snapshot snapshot(const Deployment& d) {
  Snapshot s;
  s.wall_s = static_cast<double>(now_ns()) / 1e9;
  s.cpu_us = cpu_us();
  for (vgpu::Device* dev : d.devices) {
    s.dev_total += dev->total_stats();
    s.dev_sim_ms += dev->total_sim_ms();
    s.unattributed += dev->unattributed_launches();
    for (const vgpu::StageStats& st : dev->stage_stats()) {
      StageSlot& slot = s.ledger[st.stage];
      slot.stats += st.stats;
      slot.sim_ms += st.sim_ms;
    }
  }
  for (serve::TopkServer* srv : d.servers) {
    const serve::ServerStats st = srv->stats();
    s.completed += st.completed;
    s.fused += st.fused_queries;
    s.plan_hits += st.plan_hits;
    s.plan_misses += st.plan_misses;
    s.concat_launches += st.concat_launches;
    s.finalize_launches += st.finalize_launches;
    s.delegate_len += st.stages.delegate_len;
    s.concat_len += st.stages.concat_len;
    s.ws_growths += srv->workspace_growths();
    s.queue_wait_us.add(srv->metrics().find_histogram("serve_queue_wait_us"));
    s.group_size.add(srv->metrics().find_histogram("serve_group_size"));
    s.sim_latency_us.add(
        srv->metrics().find_histogram("serve_latency_sim_us"));
  }
  if (d.sharded) s.sharded = d.sharded->stats();
  if (d.front) {
    for (const char* name : kNetCounters) {
      const obs::Counter* c = d.front->metrics().find_counter(name);
      s.net[name] = c ? c->value() : 0;
    }
  }
  return s;
}

// ---------------------------------------------------------------------------
// The report: every metric by name, with its unit, printed as a table and
// as the final JSON line.

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

class Report {
 public:
  void add(const std::string& name, double value, const std::string& unit) {
    metrics_.push_back({name, std::isfinite(value) ? value : 0.0, unit});
  }

  void print_table(const char* title) const {
    std::printf("%s\n", title);
    for (const Metric& m : metrics_)
      std::printf("  %-40s %16.6g %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
  }

  std::string json(bool correct, u64 attempted, u64 failed) const {
    std::string out = "{\"correct\": ";
    out += correct ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted);
    out += ", \"failed\": " + std::to_string(failed);
    out += ", \"metrics\": {";
    char buf[64];
    for (size_t i = 0; i < metrics_.size(); ++i) {
      std::snprintf(buf, sizeof(buf), "%.17g", metrics_[i].value);
      out += (i ? ", \"" : "\"") + metrics_[i].name + "\": {\"value\": " +
             buf + ", \"unit\": \"" + metrics_[i].unit + "\"}";
    }
    out += "}}";
    return out;
  }

 private:
  std::vector<Metric> metrics_;
};

}  // namespace perfbench
