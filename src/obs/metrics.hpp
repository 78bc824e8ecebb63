#pragma once
// Low-overhead, thread-safe metrics primitives and the process-wide
// registry behind them — the unified observability layer the trainers,
// stores, query engines, and server all report through (before this,
// instrumentation was scattered ad-hoc counters with no common export
// path: the server's latency ring, ShardedEmbeddingStore::rows_copied,
// TrainStats fields).
//
// Primitives:
//  * Counter  — monotonic; add() is one relaxed fetch_add into a
//    cache-line-padded per-thread stripe, so concurrent hot paths never
//    contend on a shared line. value() sums the stripes (exact: adds
//    are atomic per stripe and never lost).
//  * Gauge    — settable signed level (queue depth, chain depth); one
//    atomic, relaxed.
//  * Histogram — fixed ascending bucket boundaries plus an implicit
//    +Inf overflow bucket; observe() is a bucket lookup plus relaxed
//    adds into the caller's stripe. percentile() interpolates linearly
//    within the bracketing bucket, so accuracy is bounded by bucket
//    width (tests compare against util/stats::percentile).
//
// Registry: name + labels -> metric, get-or-create under a mutex at
// registration time only; call sites cache the returned pointer (it is
// stable for the registry's lifetime), so steady-state recording never
// touches the registry lock. Registry::global() is the process-wide
// instance every built-in instrumentation site uses; tests construct
// their own.
//
// Kill switch: obs::enabled() is a process-wide flag initialised once
// from the SEQGE_OBS environment variable ("0" / "off" / "false"
// disables) and overridable with obs::set_enabled(). When disabled,
// every record path (Counter::add, Gauge ops, Histogram::observe, span
// scopes) returns after one predictable branch and performs no atomic
// write and no allocation — the "no-obs build" the bench overhead gate
// compares against. Compiling with SEQGE_OBS_DISABLED additionally
// expands OBS_SPAN to nothing (obs/span.hpp).

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

namespace seqge::obs {

/// Runtime kill switch. Initialised from SEQGE_OBS on first use
/// (default: enabled); set_enabled() overrides for benches and tests.
[[nodiscard]] bool enabled() noexcept;
void set_enabled(bool on) noexcept;

/// Scoped set_enabled for tests/benches: restores the previous state.
class EnabledGuard {
 public:
  explicit EnabledGuard(bool on) noexcept : prev_(enabled()) {
    set_enabled(on);
  }
  ~EnabledGuard() { set_enabled(prev_); }
  EnabledGuard(const EnabledGuard&) = delete;
  EnabledGuard& operator=(const EnabledGuard&) = delete;

 private:
  bool prev_;
};

namespace detail {

/// Stripes per sharded metric. Power of two; 8 covers the worker
/// counts in this codebase without bloating per-histogram memory.
inline constexpr std::size_t kStripes = 8;

/// This thread's stripe: threads round-robin over stripes in creation
/// order, so any fixed pool spreads evenly.
[[nodiscard]] std::size_t stripe_index() noexcept;

}  // namespace detail

/// Monotonic counter. add() never blocks and never contends across
/// stripes; value() is exact once the writing threads are quiescent
/// (and a live lower bound while they are not).
class Counter {
 public:
  Counter() = default;
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  void add(std::uint64_t n = 1) noexcept {
    if (!enabled()) return;
    stripes_[detail::stripe_index()].v.fetch_add(n,
                                                 std::memory_order_relaxed);
  }

  [[nodiscard]] std::uint64_t value() const noexcept {
    std::uint64_t sum = 0;
    for (const auto& s : stripes_) sum += s.v.load(std::memory_order_relaxed);
    return sum;
  }

 private:
  struct alignas(64) Stripe {
    std::atomic<std::uint64_t> v{0};
  };
  Stripe stripes_[detail::kStripes];
};

/// Settable signed level (queue depth, delta-chain depth). One atomic:
/// gauges are written at event granularity, not per-row hot paths.
class Gauge {
 public:
  Gauge() = default;
  Gauge(const Gauge&) = delete;
  Gauge& operator=(const Gauge&) = delete;

  void set(std::int64_t v) noexcept {
    if (!enabled()) return;
    v_.store(v, std::memory_order_relaxed);
  }
  void add(std::int64_t n = 1) noexcept {
    if (!enabled()) return;
    v_.fetch_add(n, std::memory_order_relaxed);
  }
  void sub(std::int64_t n = 1) noexcept { add(-n); }

  [[nodiscard]] std::int64_t value() const noexcept {
    return v_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::int64_t> v_{0};
};

/// Prometheus-style exponential boundaries: count buckets starting at
/// `start`, each `factor` times the last (start, start*factor, ...).
[[nodiscard]] std::vector<double> exponential_buckets(double start,
                                                      double factor,
                                                      std::size_t count);

/// Default boundaries for microsecond latencies: 1 us .. ~33.5 s,
/// factor 2 (26 buckets + overflow).
[[nodiscard]] const std::vector<double>& default_latency_buckets_us();

/// Merged read-side view of a histogram (see Histogram::snapshot()).
struct HistogramSnapshot {
  std::uint64_t count = 0;
  double sum = 0.0;
  double max = 0.0;
  std::vector<std::uint64_t> buckets;  ///< bounds.size() + 1 (+Inf last)
};

/// Fixed-boundary histogram, sharded like Counter. Designed for
/// non-negative samples (times, sizes); percentile() assumes the first
/// bucket spans [0, bounds[0]].
class Histogram {
 public:
  /// `bounds` are ascending inclusive upper bounds; an +Inf overflow
  /// bucket is implicit. Throws std::invalid_argument when not
  /// strictly ascending.
  explicit Histogram(std::vector<double> bounds);
  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  void observe(double v) noexcept {
    if (!enabled()) return;
    Stripe& s = *stripes_[detail::stripe_index()];
    s.buckets[bucket_of(v)].fetch_add(1, std::memory_order_relaxed);
    s.count.fetch_add(1, std::memory_order_relaxed);
    // fetch_add on atomic<double> (C++20) — relaxed accumulate.
    s.sum.fetch_add(v, std::memory_order_relaxed);
    double cur = s.max.load(std::memory_order_relaxed);
    while (v > cur &&
           !s.max.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }

  [[nodiscard]] const std::vector<double>& bounds() const noexcept {
    return bounds_;
  }
  [[nodiscard]] std::uint64_t count() const noexcept;
  [[nodiscard]] double sum() const noexcept;
  [[nodiscard]] double mean() const noexcept;
  /// Largest observed sample (0 when empty).
  [[nodiscard]] double max() const noexcept;
  /// Merged per-bucket counts + totals in one pass over the stripes.
  [[nodiscard]] HistogramSnapshot snapshot() const;

  /// q in [0, 1], linear interpolation inside the bracketing bucket;
  /// samples in the overflow bucket resolve to max(). 0 when empty.
  [[nodiscard]] double percentile(double q) const noexcept;

 private:
  [[nodiscard]] std::size_t bucket_of(double v) const noexcept;

  // Stripes hold atomics (immovable), so they live behind unique_ptr;
  // the indirection is off the hot path's critical dependency chain.
  struct alignas(64) Stripe {
    explicit Stripe(std::size_t n) : buckets(n) {}
    std::vector<std::atomic<std::uint64_t>> buckets;
    std::atomic<std::uint64_t> count{0};
    std::atomic<double> sum{0.0};
    std::atomic<double> max{0.0};
  };

  std::vector<double> bounds_;
  std::vector<std::unique_ptr<Stripe>> stripes_;
};

/// Static label set rendered as {k="v",...} in the exporters. Kept as
/// an ordered vector so output is deterministic.
using Labels = std::vector<std::pair<std::string, std::string>>;

enum class MetricKind { kCounter, kGauge, kHistogram };

/// One metric's identity + current value, as collected for export.
struct MetricSnapshot {
  MetricKind kind = MetricKind::kCounter;
  std::string name;
  Labels labels;
  std::string help;
  std::uint64_t counter_value = 0;
  std::int64_t gauge_value = 0;
  std::vector<double> bounds;  ///< histogram only
  HistogramSnapshot hist;      ///< histogram only
  double p50 = 0.0, p95 = 0.0, p99 = 0.0;
};

/// Name/label-keyed metric registry. Registration (get-or-create) takes
/// a mutex; returned pointers are stable for the registry's lifetime,
/// so hot paths register once and record lock-free ever after.
/// Re-registering the same (name, labels) returns the same metric;
/// re-registering under a different kind throws std::logic_error.
class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// The process-wide registry every built-in instrumentation site
  /// records into and the exporters dump.
  static Registry& global();

  Counter* counter(const std::string& name, Labels labels = {},
                   const std::string& help = {});
  Gauge* gauge(const std::string& name, Labels labels = {},
               const std::string& help = {});
  /// `bounds` applies on first registration only (later calls with the
  /// same identity return the existing histogram unchanged).
  Histogram* histogram(const std::string& name, std::vector<double> bounds,
                       Labels labels = {}, const std::string& help = {});

  /// Find without creating (nullptr when absent or kind mismatch).
  [[nodiscard]] const Counter* find_counter(const std::string& name,
                                            const Labels& labels = {}) const;
  [[nodiscard]] const Histogram* find_histogram(
      const std::string& name, const Labels& labels = {}) const;

  [[nodiscard]] std::size_t size() const;
  /// Value snapshot of every metric, in registration order (stable, so
  /// exports diff cleanly run-to-run).
  [[nodiscard]] std::vector<MetricSnapshot> collect() const;

 private:
  struct Entry {
    MetricKind kind;
    std::string name;
    Labels labels;
    std::string help;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  static std::string key_of(const std::string& name, const Labels& labels);
  Entry* get_or_create(MetricKind kind, const std::string& name,
                       Labels labels, const std::string& help,
                       std::vector<double> bounds);

  mutable std::mutex mutex_;
  /// A deque: get_or_create's callers read the returned entry after
  /// the lock is released, so an insert must not move existing entries.
  std::deque<Entry> entries_;
  std::unordered_map<std::string, std::size_t> index_;
};

}  // namespace seqge::obs
