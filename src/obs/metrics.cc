#include "obs/metrics.h"

#include <algorithm>

#include "obs/json.h"
#include "util/assert.h"
#include "util/atomic_file.h"

namespace dcb::obs {

namespace {

/** Append one label as `job="3"` (prom) or `job=3` (key form). */
void
append_label(std::string* out, const char* key, std::int32_t value,
             bool prom, char* sep)
{
    if (value < 0)
        return;
    if (*sep != '\0')
        out->push_back(*sep);
    *out += key;
    *out += prom ? "=\"" : "=";
    *out += std::to_string(value);
    if (prom)
        out->push_back('"');
    *sep = prom ? ',' : ';';
}

std::string
render_labels(const MetricLabels& l, bool prom)
{
    std::string body;
    char sep = '\0';
    append_label(&body, "job", l.job, prom, &sep);
    append_label(&body, "node", l.node, prom, &sep);
    append_label(&body, "rack", l.rack, prom, &sep);
    append_label(&body, "shard", l.shard, prom, &sep);
    append_label(&body, "worker", l.worker, prom, &sep);
    if (body.empty())
        return body;
    return "{" + body + "}";
}

/** `{job="3"}` -> `{job="3",quantile="0.99"}` (summary series). */
std::string
with_quantile(const std::string& labels, const char* phi)
{
    std::string out = labels.empty() ? "{" : labels.substr(0, labels.size() - 1);
    if (out.size() > 1)
        out += ",";
    out += std::string("quantile=\"") + phi + "\"}";
    return out;
}

}  // namespace

std::string
MetricLabels::render() const
{
    return render_labels(*this, /*prom=*/true);
}

std::string
MetricLabels::key() const
{
    return render_labels(*this, /*prom=*/false);
}

void
Counter::add(double d)
{
    DCB_EXPECTS(d >= 0.0);
    value_.fetch_add(d, std::memory_order_relaxed);
}

double
Counter::value() const
{
    return value_.load(std::memory_order_relaxed);
}

void
Gauge::set(double v)
{
    value_.store(v, std::memory_order_relaxed);
}

void
Gauge::add(double d)
{
    value_.fetch_add(d, std::memory_order_relaxed);
}

double
Gauge::value() const
{
    return value_.load(std::memory_order_relaxed);
}

void
Histogram::observe(double v)
{
    std::lock_guard<std::mutex> lock(mutex_);
    pending_.push_back(v);
    ++count_;
    sum_ += v;
    if (pending_.size() >= kPendingCap)
        flush_locked();
}

void
Histogram::observe_many(const double* v, std::size_t n)
{
    std::lock_guard<std::mutex> lock(mutex_);
    pending_.insert(pending_.end(), v, v + n);
    count_ += n;
    for (std::size_t i = 0; i < n; ++i)
        sum_ += v[i];
    if (pending_.size() >= kPendingCap)
        flush_locked();
}

void
Histogram::flush_locked() const
{
    for (const double v : pending_)
        sketch_.insert(v);
    pending_.clear();
}

const QuantileSketch&
Histogram::sketch() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    flush_locked();
    return sketch_;
}

std::uint64_t
Histogram::count() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return count_;
}

double
Histogram::sum() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return sum_;
}

// ---------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------

/** One snapshot column bound to its live series. */
struct MetricsRegistry::ColumnSource
{
    enum class What : std::uint8_t {
        kCounter,    ///< exact-sum delta of Counter::value()
        kGauge,      ///< raw Gauge::value()
        kHistCount,  ///< exact-sum delta of Histogram::count()
        kHistSum,    ///< exact-sum delta of Histogram::sum()
    };
    std::string column;  ///< e.g. `grants_total{job=0}`
    What what = What::kCounter;
    const Counter* counter = nullptr;
    const Gauge* gauge = nullptr;
    const Histogram* histogram = nullptr;
};

MetricsRegistry::MetricsRegistry() = default;
MetricsRegistry::~MetricsRegistry() = default;

void
MetricsRegistry::check_kind(const std::string& name, Kind kind)
{
    const auto [it, inserted] = kinds_.emplace(name, kind);
    DCB_EXPECTS(it->second == kind);  // one name, one kind
}

Counter*
MetricsRegistry::counter(const std::string& name,
                         const MetricLabels& labels)
{
    std::lock_guard<std::mutex> lock(mutex_);
    check_kind(name, Kind::kCounter);
    const SeriesKey key{name, labels.key()};
    auto it = counters_.find(key);
    if (it == counters_.end()) {
        it = counters_.emplace(key, std::unique_ptr<Counter>(new Counter))
                 .first;
        labels_.emplace(key, labels);
    }
    return it->second.get();
}

Gauge*
MetricsRegistry::gauge(const std::string& name, const MetricLabels& labels)
{
    std::lock_guard<std::mutex> lock(mutex_);
    check_kind(name, Kind::kGauge);
    const SeriesKey key{name, labels.key()};
    auto it = gauges_.find(key);
    if (it == gauges_.end()) {
        it = gauges_.emplace(key, std::unique_ptr<Gauge>(new Gauge)).first;
        labels_.emplace(key, labels);
    }
    return it->second.get();
}

Histogram*
MetricsRegistry::histogram(const std::string& name,
                           const MetricLabels& labels, double epsilon)
{
    std::lock_guard<std::mutex> lock(mutex_);
    check_kind(name, Kind::kHistogram);
    const SeriesKey key{name, labels.key()};
    auto it = histograms_.find(key);
    if (it == histograms_.end()) {
        it = histograms_
                 .emplace(key,
                          std::unique_ptr<Histogram>(new Histogram(epsilon)))
                 .first;
        labels_.emplace(key, labels);
    }
    return it->second.get();
}

std::size_t
MetricsRegistry::series_count() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return counters_.size() + gauges_.size() + histograms_.size();
}

void
MetricsRegistry::set_snapshot_spill(const std::string& path,
                                    std::uint32_t rows_per_extent)
{
    std::lock_guard<std::mutex> lock(mutex_);
    DCB_EXPECTS(recorder_ == nullptr);  // before the first snapshot
    spill_path_ = path;
    rows_per_extent_ = rows_per_extent;
}

void
MetricsRegistry::snapshot(std::uint64_t first, std::uint64_t weight)
{
    std::lock_guard<std::mutex> lock(mutex_);
    DCB_EXPECTS(!finalized_);
    if (recorder_ == nullptr) {
        // Freeze the column set: every registered series, in sorted
        // (name, label) order so the layout is a pure function of the
        // registration set, not of registration timing.
        snapshot_columns_.clear();
        for (const auto& [key, c] : counters_) {
            ColumnSource src;
            src.column = key.first + key.second;
            src.what = ColumnSource::What::kCounter;
            src.counter = c.get();
            snapshot_columns_.push_back(std::move(src));
        }
        for (const auto& [key, g] : gauges_) {
            ColumnSource src;
            src.column = key.first + key.second;
            src.what = ColumnSource::What::kGauge;
            src.gauge = g.get();
            snapshot_columns_.push_back(std::move(src));
        }
        for (const auto& [key, h] : histograms_) {
            ColumnSource count;
            count.column = key.first + "_count" + key.second;
            count.what = ColumnSource::What::kHistCount;
            count.histogram = h.get();
            snapshot_columns_.push_back(std::move(count));
            ColumnSource sum;
            sum.column = key.first + "_sum" + key.second;
            sum.what = ColumnSource::What::kHistSum;
            sum.histogram = h.get();
            snapshot_columns_.push_back(std::move(sum));
        }
        std::sort(snapshot_columns_.begin(), snapshot_columns_.end(),
                  [](const ColumnSource& a, const ColumnSource& b) {
                      return a.column < b.column;
                  });
        std::vector<std::string> columns;
        std::vector<bool> additive;
        columns.reserve(snapshot_columns_.size());
        for (const ColumnSource& src : snapshot_columns_) {
            columns.push_back(src.column);
            additive.push_back(src.what != ColumnSource::What::kGauge);
        }
        recorder_ = std::make_unique<TimeSeriesRecorder>(
            std::move(columns), std::move(additive));
        if (!spill_path_.empty() && rows_per_extent_ > 0)
            recorder_->enable_spill(spill_path_, rows_per_extent_);
    }
    std::vector<double> values;
    values.reserve(snapshot_columns_.size());
    for (std::size_t i = 0; i < snapshot_columns_.size(); ++i) {
        const ColumnSource& src = snapshot_columns_[i];
        // Counter-like columns record the fit_delta()-nudged step so the
        // extent footers' running sums land exactly on the live value.
        switch (src.what) {
        case ColumnSource::What::kCounter:
            values.push_back(TimeSeriesRecorder::fit_delta(
                recorder_->sum(i), src.counter->value()));
            break;
        case ColumnSource::What::kGauge:
            values.push_back(src.gauge->value());
            break;
        case ColumnSource::What::kHistCount:
            values.push_back(TimeSeriesRecorder::fit_delta(
                recorder_->sum(i),
                static_cast<double>(src.histogram->count())));
            break;
        case ColumnSource::What::kHistSum:
            values.push_back(TimeSeriesRecorder::fit_delta(
                recorder_->sum(i), src.histogram->sum()));
            break;
        }
    }
    recorder_->add_row(first, weight, values.data());
    ++snapshots_taken_;
}

std::uint64_t
MetricsRegistry::snapshot_count() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return snapshots_taken_;
}

bool
MetricsRegistry::finalize_snapshots()
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (finalized_ || recorder_ == nullptr)
        return finalized_ok_;
    finalized_ = true;
    recorder_->set_source("metrics", 0);
    // Histogram sketches ride in the extent file's sketch section, so
    // the on-disk snapshot artifact is self-contained: series rows plus
    // the distributions behind every summary.
    for (const auto& [key, h] : histograms_)
        recorder_->attach_sketch(key.first + key.second, &h->sketch());
    finalized_ok_ = recorder_->finalize_spill(/*flush_partial=*/true);
    return finalized_ok_;
}

const TimeSeriesRecorder*
MetricsRegistry::snapshots() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return recorder_.get();
}

std::string
MetricsRegistry::render_prometheus() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::string out;
    // kinds_ is sorted by name; series maps are sorted by (name, label),
    // so walking each family's series is a range scan.
    for (const auto& [name, kind] : kinds_) {
        const char* type = kind == Kind::kCounter   ? "counter"
                           : kind == Kind::kGauge   ? "gauge"
                                                    : "summary";
        out += "# TYPE " + name + " " + type + "\n";
        const SeriesKey lo{name, ""};
        switch (kind) {
        case Kind::kCounter:
            for (auto it = counters_.lower_bound(lo);
                 it != counters_.end() && it->first.first == name; ++it)
                out += name + labels_.at(it->first).render() + " " +
                       json_double(it->second->value()) + "\n";
            break;
        case Kind::kGauge:
            for (auto it = gauges_.lower_bound(lo);
                 it != gauges_.end() && it->first.first == name; ++it)
                out += name + labels_.at(it->first).render() + " " +
                       json_double(it->second->value()) + "\n";
            break;
        case Kind::kHistogram:
            for (auto it = histograms_.lower_bound(lo);
                 it != histograms_.end() && it->first.first == name;
                 ++it) {
                const std::string labels =
                    labels_.at(it->first).render();
                const Histogram& h = *it->second;
                const LatencyStats stats = latency_stats(h.sketch());
                out += name + with_quantile(labels, "0.5") + " " +
                       json_double(stats.p50) + "\n";
                out += name + with_quantile(labels, "0.95") + " " +
                       json_double(stats.p95) + "\n";
                out += name + with_quantile(labels, "0.99") + " " +
                       json_double(stats.p99) + "\n";
                out += name + with_quantile(labels, "0.999") + " " +
                       json_double(stats.p999) + "\n";
                out += name + "_sum" + labels + " " +
                       json_double(h.sum()) + "\n";
                out += name + "_count" + labels + " " +
                       json_double(static_cast<double>(h.count())) +
                       "\n";
            }
            break;
        }
    }
    return out;
}

bool
MetricsRegistry::write_prometheus(const std::string& path) const
{
    return util::write_file_atomic(path, render_prometheus());
}

}  // namespace dcb::obs
