#ifndef DCBENCH_OBS_METRICS_H_
#define DCBENCH_OBS_METRICS_H_

/**
 * @file
 * Labeled metrics registry for the simulated cluster.
 *
 * Prometheus-shaped observability over the multi-job scheduler: named
 * counter / gauge / histogram series carrying a fixed label set
 * `{node, rack, job, shard, worker}`, rendered as deterministic text
 * exposition and periodically snapshotted into the columnar extent
 * store (time_series.h / extent.h), one snapshot row per scheduler
 * barrier.
 *
 * Determinism contract: rendering and snapshot bytes are a pure
 * function of the sequence of metric updates. The cluster wiring
 * performs every update on the coordinator thread at epoch barriers in
 * fixed shard/job order, so serial, sharded and replayed runs produce
 * byte-identical Prometheus text and snapshot series at any thread
 * count (tests/metrics_test.cc). The registry itself is thread-safe --
 * registration and rendering take the registry mutex, counters and
 * gauges are relaxed atomics, histograms take a per-series mutex -- but
 * concurrent updates trade away byte-determinism (floating-point
 * accumulation order), which is why the cluster never issues them.
 *
 * Snapshot rows preserve the extent store's exact-sum invariant:
 * counter columns record fit_delta()-nudged deltas, so the running sum
 * in every extent footer equals the live counter value bit-for-bit.
 * Histogram sketches are persisted into the extent file's sketch
 * section at finalize (extent.h), where `check_obs.py sketch` re-proves
 * the Greenwald-Khanna rank-error invariant from the on-disk bytes.
 *
 * Label cardinality is bounded by construction: labels are small
 * integer ids (node/rack/shard/worker indices, job submission order),
 * the key space is the simulated cluster topology (O(nodes + racks +
 * jobs + shards) series, plus host-side series per engine worker, no
 * unbounded strings), and the snapshot column set is frozen at the
 * first snapshot.
 */

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "obs/quantile.h"
#include "obs/time_series.h"

namespace dcb::obs {

/**
 * The fixed label key set. -1 = label absent. Rendering order is
 * alphabetical (job, node, rack, shard) in both the Prometheus form
 * (`{job="3",shard="1"}`) and the CSV-safe column form
 * (`{job=3;shard=1}` -- no commas or quotes, so registry snapshot
 * columns survive the recorder's CSV header).
 */
struct MetricLabels
{
    std::int32_t node = -1;
    std::int32_t rack = -1;
    std::int32_t job = -1;
    std::int32_t shard = -1;
    std::int32_t worker = -1;  ///< host-side engine worker lane

    /** Prometheus label block, empty string when no label is set. */
    std::string render() const;
    /** Column-name-safe label block (`;`-separated, unquoted). */
    std::string key() const;
};

/** Monotone counter (resets never; add() must be >= 0). */
class Counter
{
  public:
    void add(double d);
    void inc() { add(1.0); }
    double value() const;

  private:
    friend class MetricsRegistry;
    Counter() = default;
    std::atomic<double> value_{0.0};
};

/** Point-in-time gauge. */
class Gauge
{
  public:
    void set(double v);
    void add(double d);
    double value() const;

  private:
    friend class MetricsRegistry;
    Gauge() = default;
    std::atomic<double> value_{0.0};
};

/**
 * Value distribution backed by a deterministic GK quantile sketch.
 *
 * observe() is on the scheduler's hot path, so it only bumps the
 * count/sum scalars and appends to a pending buffer; values are folded
 * into the sketch in insertion order when the sketch is next read (or
 * when the buffer hits its cap), which keeps the resulting tuple list
 * identical to eager insertion.
 */
class Histogram
{
  public:
    void observe(double v);
    /** Observe `n` values in order under one lock (batched callers). */
    void observe_many(const double* v, std::size_t n);
    std::uint64_t count() const;
    double sum() const;
    /** The sketch over every observation so far (flushes pending). */
    const QuantileSketch& sketch() const;

  private:
    friend class MetricsRegistry;
    explicit Histogram(double epsilon) : sketch_(epsilon) {}
    void flush_locked() const;
    /** Pending-buffer cap: flush amortized past this many deferred
        observations so memory stays bounded on long runs. */
    static constexpr std::size_t kPendingCap = 65536;
    mutable std::mutex mutex_;
    mutable QuantileSketch sketch_;
    mutable std::vector<double> pending_;
    std::uint64_t count_ = 0;
    double sum_ = 0.0;
};

/** Labeled metric registry with Prometheus text + extent snapshots. */
class MetricsRegistry
{
  public:
    MetricsRegistry();
    ~MetricsRegistry();

    MetricsRegistry(const MetricsRegistry&) = delete;
    MetricsRegistry& operator=(const MetricsRegistry&) = delete;

    /**
     * Get-or-create one series. A (name, labels) pair always returns
     * the same object; one name must keep one kind (counter vs gauge vs
     * histogram) across all label sets. Returned pointers stay valid
     * for the registry's lifetime.
     */
    Counter* counter(const std::string& name,
                     const MetricLabels& labels = {});
    Gauge* gauge(const std::string& name, const MetricLabels& labels = {});
    Histogram* histogram(const std::string& name,
                         const MetricLabels& labels = {},
                         double epsilon = QuantileSketch::kDefaultEpsilon);

    /** Total registered series across all kinds. */
    std::size_t series_count() const;

    // --- Periodic snapshots --------------------------------------------

    /**
     * Stream snapshot rows to `path` in columnar extents (bounded
     * memory, exact-sum footers). Must precede the first snapshot();
     * empty path keeps snapshots in memory only.
     */
    void set_snapshot_spill(const std::string& path,
                            std::uint32_t rows_per_extent = 256);

    /**
     * Record one snapshot row: every counter contributes an exact-sum
     * delta column, every gauge a raw-value column, every histogram
     * `_count`/`_sum` delta columns. The column set is frozen (sorted
     * by series key) at the first call; series registered later are
     * still rendered in the Prometheus text but not snapshotted.
     * `first` / `weight` label the row (the cluster passes the epoch
     * ordinal and the barrier's message count).
     */
    void snapshot(std::uint64_t first, std::uint64_t weight);

    std::uint64_t snapshot_count() const;

    /**
     * Seal the snapshot series: histogram sketches are persisted into
     * the extent file's sketch section and the spill file is committed
     * atomically. Idempotent; true when every write succeeded (or
     * nothing spilled).
     */
    bool finalize_snapshots();

    /** The snapshot series (nullptr before the first snapshot). */
    const TimeSeriesRecorder* snapshots() const;

    // --- Export --------------------------------------------------------

    /**
     * Deterministic Prometheus-style text exposition: families sorted
     * by name (`# TYPE` comment each), series sorted by label key,
     * round-trip-exact doubles. Histograms render as summaries
     * (quantile 0.5/0.95/0.99/0.999 plus _sum and _count).
     */
    std::string render_prometheus() const;

    /** render_prometheus() to `path` via atomic write-temp + rename. */
    bool write_prometheus(const std::string& path) const;

  private:
    enum class Kind : std::uint8_t { kCounter, kGauge, kHistogram };
    using SeriesKey = std::pair<std::string, std::string>;  // name, labels

    /** Register `name` under `kind`, asserting kind consistency. */
    void check_kind(const std::string& name, Kind kind);

    mutable std::mutex mutex_;
    std::map<SeriesKey, std::unique_ptr<Counter>> counters_;
    std::map<SeriesKey, std::unique_ptr<Gauge>> gauges_;
    std::map<SeriesKey, std::unique_ptr<Histogram>> histograms_;
    std::map<SeriesKey, MetricLabels> labels_;  ///< parsed-label cache
    std::map<std::string, Kind> kinds_;

    // Snapshot state (built lazily at the first snapshot()).
    struct ColumnSource;
    std::vector<ColumnSource> snapshot_columns_;
    std::unique_ptr<TimeSeriesRecorder> recorder_;
    std::string spill_path_;
    std::uint32_t rows_per_extent_ = 256;
    std::uint64_t snapshots_taken_ = 0;
    bool finalized_ok_ = true;
    bool finalized_ = false;
};

}  // namespace dcb::obs

#endif  // DCBENCH_OBS_METRICS_H_
