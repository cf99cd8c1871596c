/**
 * @file
 * Lightweight statistics registry.
 *
 * Components create named counters/histograms under a hierarchical dotted
 * name ("tile3.l2.misses"), optionally attaching a unit and description at
 * registration. Benches read them back by name, dump all as text, or dump
 * machine-readable JSON (dumpJson). A registry can also carry a sampled
 * time series of selected counters (see mon/sink.hh) so benches can plot
 * trajectories instead of end-of-run totals.
 */

#ifndef TAKO_SIM_STATS_HH
#define TAKO_SIM_STATS_HH

#include <algorithm>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "sim/logging.hh"
#include "sim/types.hh"

namespace tako
{

/** A scalar, accumulating statistic. */
class Counter
{
  public:
    Counter &
    operator+=(double v)
    {
        value_ += v;
        return *this;
    }

    Counter &operator++() { return *this += 1; }
    void operator++(int) { *this += 1; }

    double value() const { return value_; }

    /** Overwrite the value; for host-side gauges (wall clock, rates). */
    void set(double v) { value_ = v; }

    void reset() { set(0); }

  private:
    double value_ = 0;
};

/** A histogram over fixed-width buckets plus mean tracking. */
class Histogram
{
  public:
    Histogram() : Histogram(16, 8) {}

    /** @p num_buckets buckets of width @p bucket_width; overflow last. */
    Histogram(unsigned num_buckets, std::uint64_t bucket_width)
        : buckets_(num_buckets, 0), width_(bucket_width)
    {
    }

    void
    sample(std::uint64_t v)
    {
        // Skip the integer division for sub-bucket-width values: latency
        // breakdowns sample several mostly-zero components per access,
        // which would otherwise put six divides on the L1-hit path.
        std::size_t idx = v < width_ ? 0 : v / width_;
        if (idx >= buckets_.size())
            idx = buckets_.size() - 1;
        ++buckets_[idx];
        ++count_;
        sum_ += static_cast<double>(v);
        if (v > max_)
            max_ = v;
    }

    std::uint64_t count() const { return count_; }
    double sum() const { return sum_; }
    double mean() const { return count_ ? sum_ / count_ : 0.0; }
    std::uint64_t max() const { return max_; }
    const std::vector<std::uint64_t> &buckets() const { return buckets_; }
    unsigned numBuckets() const
    {
        return static_cast<unsigned>(buckets_.size());
    }
    std::uint64_t bucketWidth() const { return width_; }

    void
    reset()
    {
        std::fill(buckets_.begin(), buckets_.end(), 0);
        count_ = 0;
        sum_ = 0;
        max_ = 0;
    }

  private:
    std::vector<std::uint64_t> buckets_;
    std::uint64_t width_;
    std::uint64_t count_ = 0;
    double sum_ = 0;
    std::uint64_t max_ = 0;
};

/** Unit/description metadata attached to a stat at registration. */
struct StatMeta
{
    std::string unit;
    std::string desc;
};

/**
 * Time series of selected counters, filled by a mon::TimeSeriesSink
 * when the run finishes: samples[i][j] is the value of names[j] at
 * simulated tick ticks[i].
 */
struct StatsTimeSeries
{
    Tick interval = 0;
    std::vector<std::string> names;
    std::vector<Tick> ticks;
    std::vector<std::vector<double>> samples;

    bool enabled() const { return interval != 0; }
    std::size_t numSamples() const { return ticks.size(); }
};

/**
 * Registry of named statistics. Owns all stats; references returned by
 * counter()/histogram() stay valid for the registry's lifetime. Copyable
 * so a finished run's stats can be snapshotted into RunMetrics.
 */
class StatsRegistry
{
  public:
    Counter &
    counter(const std::string &name)
    {
        return counters_[name];
    }

    /** Create/find @p name, attaching unit/description metadata. */
    Counter &
    counter(const std::string &name, const std::string &unit,
            const std::string &desc)
    {
        setMeta(name, unit, desc);
        return counter(name);
    }

    /**
     * Stable-pointer form of counter(): hot paths cache the handle at
     * component construction instead of re-hashing the name on every
     * increment. std::map nodes never move, so the pointer stays valid
     * for the registry's lifetime regardless of later registrations.
     */
    Counter *
    handle(const std::string &name)
    {
        return &counter(name);
    }

    Counter *
    handle(const std::string &name, const std::string &unit,
           const std::string &desc)
    {
        return &counter(name, unit, desc);
    }

    /** Find @p name, or create it with the default geometry (16 x 8). */
    Histogram &
    histogram(const std::string &name)
    {
        return histograms_[name];
    }

    /**
     * Find-or-create with explicit geometry. Re-requesting an existing
     * histogram with different parameters is a hard error: the caller
     * would observe bucket semantics it did not ask for.
     */
    Histogram &
    histogram(const std::string &name, unsigned num_buckets,
              std::uint64_t bucket_width, const std::string &unit = "",
              const std::string &desc = "")
    {
        if (!unit.empty() || !desc.empty())
            setMeta(name, unit, desc);
        auto it = histograms_.find(name);
        if (it == histograms_.end()) {
            it = histograms_
                     .emplace(name, Histogram(num_buckets, bucket_width))
                     .first;
        } else {
            panic_if(it->second.numBuckets() != num_buckets ||
                         it->second.bucketWidth() != bucket_width,
                     "histogram '%s' re-requested with mismatched "
                     "parameters (%u x %llu, registered %u x %llu)",
                     name.c_str(), num_buckets,
                     (unsigned long long)bucket_width,
                     it->second.numBuckets(),
                     (unsigned long long)it->second.bucketWidth());
        }
        return it->second;
    }

    /** Stable-pointer form of histogram(); same contract as handle(). */
    Histogram *
    histogramHandle(const std::string &name, unsigned num_buckets,
                    std::uint64_t bucket_width, const std::string &unit = "",
                    const std::string &desc = "")
    {
        return &histogram(name, num_buckets, bucket_width, unit, desc);
    }

    /** Value of a counter; 0 if it was never created. */
    double
    get(const std::string &name) const
    {
        auto it = counters_.find(name);
        return it == counters_.end() ? 0.0 : it->second.value();
    }

    /** Sum of all counters whose name matches "prefix*suffix" pattern. */
    double sumMatching(const std::string &pattern) const;

    /** Names of all counters matching "prefix*suffix" (sorted). */
    std::vector<std::string>
    counterNamesMatching(const std::string &pattern) const;

    /** Names of all histograms matching "prefix*suffix" (sorted). */
    std::vector<std::string>
    histogramNamesMatching(const std::string &pattern) const;

    /** Metadata for @p name; nullptr if none was registered. */
    const StatMeta *
    meta(const std::string &name) const
    {
        auto it = meta_.find(name);
        return it == meta_.end() ? nullptr : &it->second;
    }

    const std::map<std::string, Counter> &counters() const
    {
        return counters_;
    }

    const std::map<std::string, Histogram> &histograms() const
    {
        return histograms_;
    }

    StatsTimeSeries &timeSeries() { return timeseries_; }
    const StatsTimeSeries &timeSeries() const { return timeseries_; }

    void dump(std::ostream &os) const;

    /**
     * Dump every counter, histogram, and the time series (if sampled) as
     * one JSON object, with units/descriptions where registered.
     * @p header pairs are emitted first as top-level string fields
     * (e.g. {"git_rev", "abc1234"}); @p numericHeader pairs follow as
     * top-level number fields (e.g. {"host_seconds", 1.25}).
     */
    void dumpJson(std::ostream &os,
                  const std::vector<std::pair<std::string, std::string>>
                      &header = {},
                  const std::vector<std::pair<std::string, double>>
                      &numericHeader = {}) const;

    void
    reset()
    {
        for (auto &kv : counters_)
            kv.second.reset();
        for (auto &kv : histograms_)
            kv.second.reset();
        timeseries_.ticks.clear();
        timeseries_.samples.clear();
    }

  private:
    void
    setMeta(const std::string &name, const std::string &unit,
            const std::string &desc)
    {
        StatMeta &m = meta_[name];
        if (m.unit.empty())
            m.unit = unit;
        if (m.desc.empty())
            m.desc = desc;
    }

    std::map<std::string, Counter> counters_;
    std::map<std::string, Histogram> histograms_;
    std::map<std::string, StatMeta> meta_;
    StatsTimeSeries timeseries_;
};

namespace json
{

/** Write @p s as a JSON string literal (quoted, escaped). */
void writeString(std::ostream &os, const std::string &s);

/** Write @p v as a JSON number (integral values without a fraction). */
void writeNumber(std::ostream &os, double v);

} // namespace json

} // namespace tako

#endif // TAKO_SIM_STATS_HH
