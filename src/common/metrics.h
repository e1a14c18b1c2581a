#ifndef KJOIN_COMMON_METRICS_H_
#define KJOIN_COMMON_METRICS_H_

// Lightweight serving metrics: named counters and fixed-bucket latency
// histograms, exported as JSON.
//
// The serving layer (src/serve/) reports its health through one
// MetricsRegistry: the query router counts answered/deadline-exceeded
// queries and observes per-query latency, the index manager
// counts swaps and rebuild time, the snapshot loader records load time
// and bytes. A scrape renders the whole registry as one JSON object
// (ToJson), so an embedding server can expose it on a debug endpoint
// verbatim.
//
// Thread safety: all methods may be called concurrently. Counter and
// Histogram updates are single relaxed atomic RMWs — cheap enough for
// per-query paths. Counter/Histogram pointers returned by the registry
// are stable for the registry's lifetime (node-based storage), so hot
// paths resolve a metric once and keep the pointer.
//
// Histograms use fixed bucket upper bounds chosen at creation
// (DefaultLatencyBuckets spans 1 µs .. 100 s log-spaced) and derive
// quantiles by linear interpolation inside the owning bucket — the
// standard fixed-bucket estimate (what Prometheus' histogram_quantile
// computes), exact at bucket boundaries.

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace kjoin {

class Counter {
 public:
  void Increment(int64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

// A settable level (health state, active connections, object count):
// the last Set wins, unlike a Counter's monotone accumulation.
class Gauge {
 public:
  void Set(int64_t v) { value_.store(v, std::memory_order_relaxed); }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

// Strictly increasing bucket upper bounds; a final implicit +inf bucket
// catches everything above the last bound.
std::vector<double> DefaultLatencyBuckets();

class Histogram {
 public:
  // `bounds` must be strictly increasing and non-empty.
  explicit Histogram(std::vector<double> bounds);

  void Observe(double value);

  int64_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum() const;

  // Quantile estimate in [0, 1] (0.5 = p50). Returns 0 when empty.
  // Values in the overflow bucket report the last finite bound.
  double Quantile(double q) const;

  const std::vector<double>& bounds() const { return bounds_; }

  // {"count":N,"sum":S,"p50":...,"p95":...,"p99":...}
  std::string ToJson() const;

 private:
  std::vector<double> bounds_;
  // bounds_.size() + 1 buckets; the last is the +inf overflow.
  std::vector<std::atomic<int64_t>> buckets_;
  std::atomic<int64_t> count_{0};
  // Sum accumulated in fixed-point nanounits to stay a single atomic add.
  std::atomic<int64_t> sum_nanos_{0};
};

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // Finds or creates. The returned pointer stays valid for the registry's
  // lifetime. Names are free-form; use "subsystem.metric" by convention.
  Counter* counter(std::string_view name);
  Gauge* gauge(std::string_view name);
  // On first use `bounds` fixes the histogram's buckets (empty = default
  // latency buckets); later calls with the same name ignore `bounds`.
  Histogram* histogram(std::string_view name, std::vector<double> bounds = {});

  // One JSON object: counters and gauges as integers, histograms as
  // {"count":...,"sum":...,"p50":...,"p95":...,"p99":...}. Keys sorted
  // within each kind (counters, then gauges, then histograms).
  std::string ToJson() const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
};

// "<prefix>.shard<index>.<name>" — the naming convention for per-shard
// replicas of a subsystem metric (e.g. ShardMetricName("router", 2,
// "probes") == "router.shard2.probes"). Shard routers resolve
// these once per shard and keep the pointers (see the stability note
// above).
std::string ShardMetricName(std::string_view prefix, int shard, std::string_view name);

// JSON string-escapes `raw`: quotes and backslashes get a backslash,
// control characters become \uXXXX. Metric names are free-form
// (ToJson uses this so a name with a quote can never corrupt the
// export), and the network METRICS reply embeds the export verbatim.
std::string JsonEscape(std::string_view raw);

// Sample-exact percentile over an ascending-sorted latency vector
// (nearest-rank with midpoint rounding; q in [0, 1], 0.5 = p50). The
// benches and the loopback serving harness share this instead of each
// interpolating their own — Histogram::Quantile stays the estimate for
// streaming fixed-bucket data.
double PercentileOfSorted(const std::vector<double>& sorted_ascending, double q);

}  // namespace kjoin

#endif  // KJOIN_COMMON_METRICS_H_
