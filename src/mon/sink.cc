#include "mon/sink.hh"

#include <chrono>
#include <cstdio>

namespace tako::mon
{

namespace
{

/** Host wall clock in seconds; feeds host.*-exempt heartbeat fields
 *  only, never a sampled series. */
double
hostNow()
{
    // takolint: ok(D2, heartbeat throughput is host.* observability)
    const auto now = std::chrono::steady_clock::now();
    return std::chrono::duration<double>(now.time_since_epoch())
        .count();
}

} // namespace

void
printProgressBeat(const ProgressBeat &b)
{
    char tail[64] = "";
    if (b.fractionDone >= 0) {
        const double eta =
            b.fractionDone > 0
                ? b.hostSeconds * (1 - b.fractionDone) / b.fractionDone
                : -1;
        if (eta >= 0)
            std::snprintf(tail, sizeof(tail), " %5.1f%% eta=%.1fs",
                          b.fractionDone * 100, eta);
        else
            std::snprintf(tail, sizeof(tail), " %5.1f%%",
                          b.fractionDone * 100);
    }
    std::fprintf(stderr,
                 "takomon: progress tick=%llu events=%llu "
                 "ev/s=%.3gM%s\n",
                 (unsigned long long)b.tick,
                 (unsigned long long)b.events, b.eventsPerSec / 1e6,
                 tail);
}

TimeSeriesSink::TimeSeriesSink(EventQueue &eq, StatsRegistry &stats,
                               Options opt)
    : eq_(eq), stats_(stats), opt_(std::move(opt))
{
    panic_if(opt_.sampleEvery == 0 && opt_.progressEvery == 0,
             "takomon sink with no cadence (sampleEvery and "
             "progressEvery both zero)");
    fatal_if(!opt_.monPath.empty() && opt_.sampleEvery == 0,
             "a takomon output file needs a sampling interval");

    const Tick now = eq_.now();
    if (opt_.sampleEvery > 0) {
        buildSeries(opt_.patterns);
        StatsTimeSeries &ts = stats_.timeSeries();
        ts.interval = opt_.sampleEvery;
        ts.names.clear();
        for (const SeriesDesc &d : series_)
            ts.names.push_back(d.name);
        nextSample_ = now + opt_.sampleEvery;
    }
    if (!opt_.monPath.empty()) {
        MonWriter::Options wopt;
        wopt.chunkSamples = opt_.chunkSamples;
        fatal_if(!writer_.open(opt_.monPath, opt_.sampleEvery, series_,
                               wopt),
                 "%s", writer_.error().c_str());
    }
    if (opt_.progressEvery > 0) {
        nextBeat_ = now + opt_.progressEvery;
        firstBeatHostTime_ = hostNow();
    }
    // Watermark 0: the first event (or runUntil) fires the hook, which
    // returns the real next boundary.
    eq_.setAdvanceHook([this](Tick to) { return onAdvance(to); }, 0);
}

TimeSeriesSink::~TimeSeriesSink()
{
    if (!finished_ && !finish())
        warn("%s", error().c_str());
}

Tick
TimeSeriesSink::onAdvance(Tick to)
{
    // Replay every boundary the clock is crossing. The hook fires before
    // any event at tick >= the boundary runs, so each row covers exactly
    // the events strictly before its boundary.
    while (nextSample_ > 0 && nextSample_ <= to) {
        takeSample(nextSample_);
        nextSample_ += opt_.sampleEvery;
    }
    while (nextBeat_ > 0 && nextBeat_ <= to) {
        emitBeat(nextBeat_);
        nextBeat_ += opt_.progressEvery;
    }
    Tick wm = nextSample_ > 0 ? nextSample_ : ~Tick{0};
    if (nextBeat_ > 0 && nextBeat_ < wm)
        wm = nextBeat_;
    return wm;
}

void
TimeSeriesSink::takeSample(Tick at)
{
    std::vector<double> row(sources_.size());
    for (std::size_t i = 0; i < sources_.size(); ++i)
        row[i] = read(sources_[i]);
    if (!opt_.monPath.empty())
        writer_.addSample(at, row);
    StatsTimeSeries &ts = stats_.timeSeries();
    ts.ticks.push_back(at);
    ts.samples.push_back(std::move(row));
    ++samplesTaken_;
}

bool
TimeSeriesSink::finish()
{
    if (finished_)
        return error().empty();
    finished_ = true;
    eq_.clearAdvanceHook();
    if (opt_.monPath.empty())
        return error().empty();
    return writer_.close();
}

void
TimeSeriesSink::buildSeries(const std::vector<std::string> &patterns)
{
    // Fix the series set and order (registry map order = sorted by
    // name) at construction; host.* is excluded by design — those
    // gauges are host-timing-dependent and would break the format's
    // bit-identity contract.
    auto addCounter = [this](const std::string &name) {
        if (name.rfind("host.", 0) == 0)
            return;
        series_.push_back({name, SeriesKind::Counter});
        Source src;
        src.counter = &stats_.counters().at(name);
        src.kind = SeriesKind::Counter;
        sources_.push_back(src);
    };
    auto addHistogram = [this](const std::string &name) {
        if (name.rfind("host.", 0) == 0)
            return;
        const Histogram *h = &stats_.histograms().at(name);
        for (SeriesKind k : {SeriesKind::HistCount, SeriesKind::HistSum,
                             SeriesKind::HistMax}) {
            series_.push_back({name + seriesKindSuffix(k), k});
            Source src;
            src.hist = h;
            src.kind = k;
            sources_.push_back(src);
        }
    };

    if (patterns.empty()) {
        for (const auto &kv : stats_.counters())
            addCounter(kv.first);
        for (const auto &kv : stats_.histograms())
            addHistogram(kv.first);
    } else {
        for (const std::string &p : patterns) {
            for (const std::string &n : stats_.counterNamesMatching(p))
                addCounter(n);
            for (const std::string &n :
                 stats_.histogramNamesMatching(p))
                addHistogram(n);
        }
    }
}

double
TimeSeriesSink::read(const Source &s) const
{
    switch (s.kind) {
      case SeriesKind::Counter:
        return s.counter->value();
      case SeriesKind::HistCount:
        return static_cast<double>(s.hist->count());
      case SeriesKind::HistSum:
        return s.hist->sum();
      case SeriesKind::HistMax:
        return static_cast<double>(s.hist->max());
    }
    return 0;
}

void
TimeSeriesSink::emitBeat(Tick at)
{
    ProgressBeat b;
    b.tick = at;
    b.events = eq_.eventsFired();
    b.hostSeconds = hostNow() - firstBeatHostTime_;
    b.eventsPerSec = b.hostSeconds > 0
                         ? static_cast<double>(b.events) / b.hostSeconds
                         : 0;
    if (fractionDone_)
        b.fractionDone = fractionDone_();
    if (opt_.onBeat)
        opt_.onBeat(b);
    else
        printProgressBeat(b);
}

} // namespace tako::mon
