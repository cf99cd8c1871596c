/**
 * @file
 * takoperf — the measured half of the takoperf benchmark. run.py drives
 * it; each invocation is one process and does one thing:
 *
 *   takoperf gen-kv --seed=N --out=FILE
 *       Write the kv-replay input trace (before any timing starts).
 *
 *   takoperf run --workload=W --seed=N [--kv-trace=FILE]
 *                [--observe=none|mon|all] [--mon-out=FILE] [--probes]
 *       Simulate one workload from empty caches and print one JSON
 *       object: host times, peak RSS, a digest of every simulated stat,
 *       the workload's own correctness flag, the layer counters, and
 *       (with --probes) the per-layer probe timings.
 *
 * Everything goes through the simulator's public entry points: the
 * workload registry, System/SystemConfig/StatsRegistry, the takotrace
 * generator and reader, and each layer's public classes.
 */

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "mem/cache_array.hh"
#include "noc/mesh.hh"
#include "sim/event_queue.hh"
#include "sim/logging.hh"
#include "sim/random.hh"
#include "sim/task.hh"
#include "system/system.hh"
#include "trace/gen.hh"
#include "trace/reader.hh"
#include "trace/writer.hh"
#include "workloads/registry.hh"

using namespace tako;

namespace
{

using Clock = std::chrono::steady_clock;

// Workload sizes. README.md records why each was chosen.
constexpr unsigned kCores = 16;
constexpr std::uint64_t kPhiVertices = 1 << 16;
constexpr std::uint64_t kNvmTxBytes = 256 * 1024;
constexpr std::uint64_t kKvRecords = 400'000;
constexpr std::uint32_t kKvTenants = kCores; ///< one replay stream per core
constexpr Tick kMonEvery = 10'000;           ///< takomon cadence (cycles)
/** Demand accesses kept for the stream probes (32 MiB of line ids). */
constexpr std::size_t kStreamCap = std::size_t(1) << 22;

struct Bench
{
    const char *name;
    const char *registryName;
    const char *variant;
    bool sharded;
    bool phantomMorph; ///< the workload registers one phantom-range morph
};

constexpr Bench kBenches[] = {
    {"phi-push", "phi", "tako", false, true},
    {"kv-replay", "trace", "", false, false},
    {"nvm-tx", "nvm", "tako", false, true},
    {"phi-sharded", "phi", "tako", true, true},
};

struct Options
{
    std::string mode;
    std::string workload;
    std::uint64_t seed = 1;
    std::string kvTrace;
    std::string out;
    std::string observe = "none";
    std::string monOut;
    bool probes = false;
};

[[noreturn]] void
die(const std::string &msg)
{
    std::fprintf(stderr, "takoperf: %s\n", msg.c_str());
    std::exit(2);
}

Options
parse(int argc, char **argv)
{
    if (argc < 2)
        die("usage: takoperf gen-kv|run --flag=value ...");
    Options o;
    o.mode = argv[1];
    for (int i = 2; i < argc; ++i) {
        const std::string a = argv[i];
        const auto eq = a.find('=');
        const std::string key = a.substr(0, eq);
        const std::string val = eq == std::string::npos ? "" : a.substr(eq + 1);
        if (key == "--workload")
            o.workload = val;
        else if (key == "--seed")
            o.seed = std::stoull(val);
        else if (key == "--kv-trace")
            o.kvTrace = val;
        else if (key == "--out")
            o.out = val;
        else if (key == "--observe")
            o.observe = val;
        else if (key == "--mon-out")
            o.monOut = val;
        else if (key == "--probes")
            o.probes = true;
        else
            die("unknown flag '" + a + "'");
    }
    if (o.observe != "none" && o.observe != "mon" && o.observe != "all")
        die("--observe must be none, mon or all");
    return o;
}

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** Median over @p reps timings of @p body, each divided by @p ops. */
template <typename F>
double
medianNs(int reps, double ops, F &&body)
{
    std::vector<double> ns;
    for (int r = 0; r < reps; ++r) {
        const auto t0 = Clock::now();
        body();
        ns.push_back(secondsSince(t0) * 1e9 / ops);
    }
    return median(std::move(ns));
}

// ---- digest --------------------------------------------------------------

struct Fnv
{
    std::uint64_t h = 0xcbf29ce484222325ull;

    void
    add(const std::string &s)
    {
        for (unsigned char c : s) {
            h ^= c;
            h *= 0x100000001b3ull;
        }
        h ^= 0xff; // field separator
        h *= 0x100000001b3ull;
    }

    void
    add(double v)
    {
        char buf[32];
        std::snprintf(buf, sizeof buf, "%.17g", v);
        add(std::string(buf));
    }
};

/** Host timings, topology-shaped shard.* stats and observer output
 *  (prof.*) differ between runs that simulate the same thing. */
bool
simulated(const std::string &name)
{
    return name.rfind("host.", 0) != 0 && name.rfind("shard.", 0) != 0 &&
           name.rfind("prof.", 0) != 0;
}

std::string
digest(const RunMetrics &m)
{
    Fnv f;
    f.add(static_cast<double>(m.cycles));
    for (const auto &[k, v] : m.extra) {
        if (simulated(k)) {
            f.add(k);
            f.add(v);
        }
    }
    for (const auto &[k, c] : m.stats->counters()) {
        if (simulated(k)) {
            f.add(k);
            f.add(c.value());
        }
    }
    for (const auto &[k, h] : m.stats->histograms()) {
        if (!simulated(k))
            continue;
        f.add(k);
        f.add(static_cast<double>(h.count()));
        f.add(h.sum());
        f.add(static_cast<double>(h.max()));
        for (std::uint64_t b : h.buckets())
            f.add(static_cast<double>(b));
    }
    char buf[20];
    std::snprintf(buf, sizeof buf, "%016" PRIx64, f.h);
    return buf;
}

// ---- per-layer probes ----------------------------------------------------

/** EventQueue schedule+fire, mixing same-tick, near (calendar wheel)
 *  and far (overflow heap) delays. */
double
probeKernel()
{
    constexpr int kBatch = 4096;
    EventQueue eq;
    std::uint64_t fired = 0;
    const double ns = medianNs(64, kBatch, [&] {
        for (int i = 0; i < kBatch; ++i) {
            const int kind = i & 3;
            const Tick d = kind == 0   ? 0
                           : kind == 3 ? Tick(1000 + (i * 17) % 4096)
                                       : Tick(1 + i % 15);
            eq.schedule(d, [&fired]() { ++fired; });
        }
        eq.run();
    });
    panic_if(fired != 64u * kBatch, "kernel probe lost events");
    return ns;
}

Task<>
oneDelay(EventQueue &eq)
{
    co_await Delay{eq, 1};
}

Task<>
delays(EventQueue &eq, int n)
{
    for (int i = 0; i < n; ++i)
        co_await Delay{eq, 1};
}

/** Task<> spawn through the frame arena (one resume each). */
double
probeCoroSpawn()
{
    constexpr int kBatch = 1024;
    EventQueue eq;
    return medianNs(64, kBatch, [&] {
        for (int i = 0; i < kBatch; ++i)
            spawn(oneDelay(eq));
        eq.run();
    });
}

/** Suspend/resume of one live Task<> through the event queue. */
double
probeCoroResume()
{
    constexpr int kRounds = 16384;
    EventQueue eq;
    return medianNs(32, kRounds, [&] {
        spawn(delays(eq, kRounds));
        eq.run();
    });
}

/**
 * CacheArray lookup, then victim+fill on a miss, over the workload's
 * demand stream (line | tile) at per-tile L1 geometry; L1 misses go on
 * to per-tile L2 geometry, as in the hierarchy.
 */
double
probeCache(const std::vector<std::uint64_t> &stream, const MemParams &p)
{
    if (stream.empty())
        return 0;
    std::vector<double> ns;
    for (int r = 0; r < 3; ++r) {
        std::vector<CacheArray> l1, l2;
        for (unsigned t = 0; t < kCores; ++t) {
            l1.emplace_back(p.l1Size, p.l1Ways, ReplPolicy::Lru);
            l2.emplace_back(p.l2Size, p.l2Ways, p.l2Repl);
        }
        auto access = [](CacheArray &c, Addr line) {
            if (CacheWay *w = c.lookup(line)) {
                c.touch(*w);
                return true;
            }
            if (CacheWay *v = c.findVictim(line, false))
                c.fill(*v, line, false, 0, false);
            return false;
        };
        std::uint64_t lookups = 0;
        const auto t0 = Clock::now();
        for (std::uint64_t e : stream) {
            const unsigned tile = static_cast<unsigned>(e & (lineBytes - 1));
            const Addr line = e & ~Addr(lineBytes - 1);
            ++lookups;
            if (!access(l1[tile], line)) {
                ++lookups;
                access(l2[tile], line);
            }
        }
        ns.push_back(secondsSince(t0) * 1e9 / static_cast<double>(lookups));
    }
    return median(std::move(ns));
}

/**
 * MorphRegistry::resolve over the workload's demand addresses, on a
 * registry holding what the workload registers: one phantom-range morph
 * (phi, nvm) or none (kv). The range spans every phantom address the
 * stream touches, as the workload's own range must.
 */
double
probeResolve(const std::vector<std::uint64_t> &stream, bool phantomMorph)
{
    if (stream.empty())
        return 0;
    System sys(SystemConfig::forCores(kCores));
    Morph morph(MorphTraits{});
    if (phantomMorph) {
        Addr top = MorphRegistry::phantomBase + (1 << 20);
        for (std::uint64_t e : stream)
            top = std::max(top, (e & ~Addr(lineBytes - 1)) + lineBytes);
        const std::uint64_t span = top - MorphRegistry::phantomBase;
        sys.addThread(0, [&sys, &morph, span](Guest &) -> Task<> {
            co_await sys.registry().registerPhantom(morph, MorphLevel::Shared,
                                                    span, 0);
        });
        sys.run();
    }
    const MorphRegistry &reg = sys.registry();
    panic_if(reg.numRegistered() != (phantomMorph ? 1u : 0u),
             "resolve probe: registration failed");
    std::uint64_t hits = 0;
    const double ns =
        medianNs(5, static_cast<double>(stream.size()), [&] {
            for (std::uint64_t e : stream)
                hits += reg.resolve(e & ~Addr(lineBytes - 1)) != nullptr;
        });
    std::fprintf(stderr, "takoperf: %.2f%% of demand accesses resolve to "
                 "a morph\n",
                 20.0 * static_cast<double>(hits) /
                     static_cast<double>(stream.size()));
    return ns;
}

/** Mesh::traverse between random tile pairs of the 4x4 mesh. */
double
probeMesh()
{
    constexpr int kBatch = 1 << 16;
    StatsRegistry stats;
    EnergyModel energy(stats);
    Mesh mesh(MeshParams{}, stats, energy);
    Rng rng(3);
    Tick now = 0;
    Tick sink = 0;
    const double ns = medianNs(32, kBatch, [&] {
        for (int i = 0; i < kBatch; ++i) {
            const int src = static_cast<int>(rng.below(kCores));
            const int dst = static_cast<int>(rng.below(kCores));
            sink += mesh.traverse(now, src, dst, (i & 1) ? 72 : 8);
            now += 2;
        }
    });
    panic_if(sink == 0, "mesh probe: no traversal latency");
    return ns;
}

/** takotrace Reader open + full decode of the workload's trace. */
double
probeTraceDecode(const std::string &path)
{
    if (path.empty())
        return 0;
    std::vector<double> ns;
    for (int r = 0; r < 5; ++r) {
        const auto t0 = Clock::now();
        trace::TraceReader reader;
        if (!reader.open(path))
            die(reader.error());
        trace::TraceRecord rec;
        std::uint64_t n = 0;
        while (reader.next(rec))
            ++n;
        if (!reader.error().empty() || n == 0)
            die("trace decode probe: " + reader.error());
        ns.push_back(secondsSince(t0) * 1e9 / static_cast<double>(n));
    }
    return median(std::move(ns));
}

/** Seconds to construct the 16-tile System the workloads run on. */
double
probeSystemBuild()
{
    std::vector<double> s;
    for (int r = 0; r < 15; ++r) {
        const auto t0 = Clock::now();
        System sys(SystemConfig::forCores(kCores));
        s.push_back(secondsSince(t0));
    }
    return median(std::move(s));
}

/** Seconds to export a finished run's stats as JSON. */
double
probeExport(const StatsRegistry &stats)
{
    std::vector<double> s;
    for (int r = 0; r < 15; ++r) {
        const auto t0 = Clock::now();
        std::ostringstream os;
        stats.dumpJson(os);
        s.push_back(secondsSince(t0));
    }
    return median(std::move(s));
}

// ---- modes ---------------------------------------------------------------

int
genKv(const Options &o)
{
    if (o.out.empty())
        die("gen-kv needs --out=FILE");
    trace::GenParams gp;
    gp.kind = "kv";
    gp.records = kKvRecords;
    gp.tenants = kKvTenants;
    gp.seed = o.seed;
    trace::TraceWriter writer;
    trace::TraceWriter::Options wopt;
    wopt.timestamps = gp.timestamps;
    if (!writer.open(o.out, wopt))
        die(writer.error());
    std::string err;
    if (!trace::generateTrace(gp, writer, err))
        die(err);
    if (!writer.close())
        die(writer.error());
    return 0;
}

/** Layer counters the per-layer metrics are derived from. */
constexpr const char *kCounters[] = {
    "host.sim_events", "host.shard.barrier_wait_seconds", "shard.rounds",
    "shard.cross_msgs", "shard.load_imbalance", "l1.hits", "l1.misses",
    "l2.misses", "l3.misses", "dram.reads", "dram.writes",
    "coherence.downgrades", "noc.messages", "noc.flitHops",
    "engine.cb.miss", "engine.cb.eviction", "engine.cb.writeback",
    "engine.instrs", "core.instrs", "rmo.ops", "trace.records",
};

int
runOnce(const Options &o)
{
    const Bench *b = nullptr;
    for (const Bench &c : kBenches) {
        if (o.workload == c.name)
            b = &c;
    }
    if (!b)
        die("unknown workload '" + o.workload + "'");
    const bool isTrace = std::strcmp(b->registryName, "trace") == 0;
    if (isTrace && o.kvTrace.empty())
        die(std::string(b->name) + " needs --kv-trace=FILE");
    const bool observeAll = o.observe == "all";
    if (observeAll && b->sharded)
        die(std::string(b->name) +
            ": takoprof and the access tracer need a monolithic run");

    const auto t0 = Clock::now();
    SystemConfig sys = SystemConfig::forCores(kCores);
    sys.seed = o.seed;
    if (b->sharded)
        sys.shards = std::min(4u, std::max(1u, std::thread::hardware_concurrency()));
    std::vector<std::uint64_t> stream;
    if (o.observe != "none") {
        sys.sampleInterval = kMonEvery;
        sys.monPath = o.monOut;
    }
    if (observeAll) {
        sys.profile = true;
        stream.reserve(kStreamCap);
        sys.accessTracer = [s = &stream](Tick, const AccessReq &req) {
            if (s->size() < kStreamCap) {
                s->push_back((req.addr & ~Addr(lineBytes - 1)) |
                             static_cast<Addr>(req.tile));
            }
        };
    }

    WorkloadRequest req;
    req.variant = b->variant;
    req.seed = o.seed;
    req.cores = kCores;
    req.vertices = kPhiVertices;
    req.txBytes = kNvmTxBytes;
    req.tracePath = isTrace ? o.kvTrace : "";
    std::string err;
    RunMetrics m = findWorkload(b->registryName)->run(req, sys, err);
    if (!err.empty())
        die(err);
    std::ostringstream exported;
    m.stats->dumpJson(exported);
    const double wall = secondsSince(t0);

    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    const auto correctIt = m.extra.find("correct");
    const bool correct =
        correctIt == m.extra.end() ? true : correctIt->second == 1.0;

    std::printf("{\"workload\": \"%s\", \"seed\": %" PRIu64
                ", \"observe\": \"%s\", \"wall_s\": %.9g, \"run_s\": %.9g"
                ", \"peak_rss_mb\": %.6g, \"digest\": \"%s\""
                ", \"correct\": %s, \"export_bytes\": %zu, \"counters\": {",
                b->name, o.seed, o.observe.c_str(), wall,
                m.stats->get("host.seconds"),
                static_cast<double>(ru.ru_maxrss) / 1024.0,
                digest(m).c_str(), correct ? "true" : "false",
                exported.str().size());
    const char *sep = "";
    for (const char *c : kCounters) {
        std::printf("%s\"%s\": %.17g", sep, c, m.stats->get(c));
        sep = ", ";
    }
    std::printf("}");
    if (o.probes) {
        const std::pair<const char *, double> probes[] = {
            {"sim.kernel.ns_per_event", probeKernel()},
            {"sim.coro.ns_per_spawn", probeCoroSpawn()},
            {"sim.coro.ns_per_resume", probeCoroResume()},
            {"mem.cache.ns_per_lookup", probeCache(stream, sys.mem)},
            {"noc.ns_per_traverse", probeMesh()},
            {"tako.resolve.ns", probeResolve(stream, b->phantomMorph)},
            {"trace.decode.ns_per_record",
             probeTraceDecode(isTrace ? o.kvTrace : "")},
            {"system.build_s", probeSystemBuild()},
            {"system.export_s", probeExport(*m.stats)},
        };
        std::printf(", \"stream\": %zu, \"probes\": {", stream.size());
        sep = "";
        for (const auto &[k, v] : probes) {
            std::printf("%s\"%s\": %.9g", sep, k, v);
            sep = ", ";
        }
        std::printf("}");
    }
    std::printf("}\n");
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    setVerbose(false);
    const Options o = parse(argc, argv);
    if (o.mode == "gen-kv")
        return genKv(o);
    if (o.mode == "run")
        return runOnce(o);
    die("unknown mode '" + o.mode + "' (gen-kv | run)");
}
