// Snapshot exporters for the metrics registry (Prometheus text format and
// JSON) plus the device stage ledger on both clocks: the paper-style
// per-stage kernel breakdown table and its Prometheus/JSON series.
//
// Prometheus output follows the text exposition format: `# HELP`/`# TYPE`
// headers, histograms as cumulative `_bucket{le="..."}` series ending in
// `+Inf`, plus `_sum` and `_count`. JSON output mirrors the same data for
// programmatic consumers (bench reports, the future network front door).
#pragma once

#include <iomanip>
#include <sstream>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "vgpu/device.hpp"

namespace drtopk::obs {

/// Renders the registry in Prometheus text exposition format. `labels` is
/// an optional pre-rendered label set (e.g. `shard="2"`) attached to every
/// series — sharded servers export one registry per shard under a `shard`
/// label so series from different shards never collide.
inline std::string to_prometheus(const Registry& reg,
                                 const std::string& labels = {}) {
  std::ostringstream os;
  // `name{labels}` for plain series; histogram buckets splice `le` into the
  // same brace set (`name_bucket{shard="2",le="10"}`).
  const std::string plain = labels.empty() ? "" : "{" + labels + "}";
  const std::string le_open = labels.empty() ? "{" : "{" + labels + ",";
  for (const Registry::Entry* e : reg.entries()) {
    if (!e->help.empty())
      os << "# HELP " << e->name << " " << e->help << "\n";
    switch (e->kind) {
      case Registry::Kind::kCounter:
        os << "# TYPE " << e->name << " counter\n";
        os << e->name << plain << " " << e->c->value() << "\n";
        break;
      case Registry::Kind::kGauge:
        os << "# TYPE " << e->name << " gauge\n";
        os << e->name << plain << " " << e->g->value() << "\n";
        break;
      case Registry::Kind::kHistogram: {
        os << "# TYPE " << e->name << " histogram\n";
        for (const auto& [le, cum] : e->h->cumulative_buckets())
          os << e->name << "_bucket" << le_open << "le=\"" << le << "\"} "
             << cum << "\n";
        os << e->name << "_bucket" << le_open << "le=\"+Inf\"} "
           << e->h->count() << "\n";
        os << e->name << "_sum" << plain << " " << e->h->sum() << "\n";
        os << e->name << "_count" << plain << " " << e->h->count() << "\n";
        break;
      }
    }
  }
  return os.str();
}

/// `{labels}` in Prometheus brace style for splicing into a JSON key; the
/// label set is embedded in a JSON string, so its quotes get escaped.
/// Empty labels give an empty suffix.
inline std::string json_label_suffix(const std::string& labels) {
  if (labels.empty()) return {};
  std::string suffix = "{";
  for (const char ch : labels) {
    if (ch == '"') suffix += '\\';
    suffix += ch;
  }
  return suffix + "}";
}

/// Renders the registry as a JSON object keyed by metric name. Counters
/// and gauges map to numbers; histograms to
/// {"count", "sum", "p50", "p90", "p99", "buckets": [[le, cumulative], ...]}.
/// A non-empty `labels` (e.g. `shard="2"`) is appended to every key in
/// Prometheus brace style — `"serve_completed{shard=\"2\"}"` — keeping the
/// per-shard objects mergeable into one flat document.
inline std::string to_json(const Registry& reg,
                           const std::string& labels = {}) {
  std::ostringstream os;
  os << "{";
  const std::string suffix = json_label_suffix(labels);
  bool first = true;
  for (const Registry::Entry* e : reg.entries()) {
    if (!first) os << ",";
    first = false;
    os << "\"" << e->name << suffix << "\":";
    switch (e->kind) {
      case Registry::Kind::kCounter: os << e->c->value(); break;
      case Registry::Kind::kGauge: os << e->g->value(); break;
      case Registry::Kind::kHistogram: {
        os << "{\"count\":" << e->h->count() << ",\"sum\":" << e->h->sum()
           << ",\"p50\":" << e->h->percentile(0.50)
           << ",\"p90\":" << e->h->percentile(0.90)
           << ",\"p99\":" << e->h->percentile(0.99) << ",\"buckets\":[";
        bool bfirst = true;
        for (const auto& [le, cum] : e->h->cumulative_buckets()) {
          if (!bfirst) os << ",";
          bfirst = false;
          os << "[" << le << "," << cum << "]";
        }
        os << "]}";
        break;
      }
    }
  }
  os << "}";
  return os.str();
}

/// Formats the per-stage kernel breakdown as an aligned text table —
/// launches, CTAs, sector transactions (the paper's Table 3 unit), element
/// accesses (Eq. 2-5), shuffles (Eq. 2), atomics (Section 4.2), simulated
/// device milliseconds and the host wall milliseconds the launches took to
/// emulate, per stage, with a totals row. The two clock columns are named
/// after their clocks.
inline std::string stage_table(const std::vector<vgpu::StageStats>& stages) {
  std::ostringstream os;
  os << std::left << std::setw(14) << "stage" << std::right << std::setw(10)
     << "launches" << std::setw(10) << "ctas" << std::setw(14) << "sectors"
     << std::setw(14) << "elems" << std::setw(12) << "shfl" << std::setw(12)
     << "atomics" << std::setw(12) << "dev_sim_ms" << std::setw(14)
     << "host_wall_ms" << "\n";
  auto row = [&](const std::string& name, const vgpu::KernelStats& st,
                 double sim_ms, double wall_ms) {
    os << std::left << std::setw(14) << name << std::right << std::setw(10)
       << st.kernels_launched << std::setw(10) << st.ctas_run << std::setw(14)
       << st.global_txns() << std::setw(14) << st.global_elems()
       << std::setw(12) << st.shfl_ops << std::setw(12) << st.atomic_ops
       << std::setw(12) << std::fixed << std::setprecision(3) << sim_ms
       << std::setw(14) << wall_ms << "\n";
  };
  vgpu::KernelStats sum;
  double sum_sim = 0.0, sum_wall = 0.0;
  for (const vgpu::StageStats& st : stages) {
    row(st.stage, st.stats, st.sim_ms, st.wall_ms);
    sum += st.stats;
    sum_sim += st.sim_ms;
    sum_wall += st.wall_ms;
  }
  row("total", sum, sum_sim, sum_wall);
  return os.str();
}

/// One device's stage ledger plus the pre-rendered label set its series
/// carry (e.g. `shard="2"`; empty for a single device).
struct LabelledLedger {
  std::string labels;
  std::vector<vgpu::StageStats> stages;
};

/// Renders stage ledgers in Prometheus text format: per stage,
/// `vgpu_stage_launches`, `vgpu_stage_sim_ms` (simulated device clock) and
/// `vgpu_stage_wall_ms` (host wall clock), labelled `stage="<name>"` after
/// each ledger's labels. Every family is written once, with the series of
/// all ledgers under its single HELP/TYPE header.
inline std::string stage_prometheus(const std::vector<LabelledLedger>& ledgers) {
  std::ostringstream os;
  auto family = [&](const char* name, const char* help, auto value) {
    os << "# HELP " << name << " " << help << "\n";
    os << "# TYPE " << name << " counter\n";
    for (const LabelledLedger& led : ledgers) {
      const std::string extra = led.labels.empty() ? "" : led.labels + ",";
      for (const vgpu::StageStats& st : led.stages)
        os << name << "{" << extra << "stage=\"" << st.stage << "\"} "
           << value(st) << "\n";
    }
  };
  family("vgpu_stage_launches", "Kernel launches per pipeline stage",
         [](const vgpu::StageStats& st) { return st.stats.kernels_launched; });
  family("vgpu_stage_sim_ms",
         "Simulated device milliseconds per pipeline stage (cost model)",
         [](const vgpu::StageStats& st) { return st.sim_ms; });
  family("vgpu_stage_wall_ms",
         "Host wall-clock milliseconds spent emulating each stage's launches",
         [](const vgpu::StageStats& st) { return st.wall_ms; });
  return os.str();
}

/// Renders a device stage ledger as a JSON object keyed by stage:
/// {"construct": {"launches": n, "sim_ms": x, "wall_ms": y}, ...}.
inline std::string stage_json(const std::vector<vgpu::StageStats>& stages) {
  std::ostringstream os;
  os << "{";
  bool first = true;
  for (const vgpu::StageStats& st : stages) {
    if (!first) os << ",";
    first = false;
    os << "\"" << st.stage << "\":{\"launches\":" << st.stats.kernels_launched
       << ",\"sim_ms\":" << st.sim_ms << ",\"wall_ms\":" << st.wall_ms << "}";
  }
  os << "}";
  return os.str();
}

}  // namespace drtopk::obs
