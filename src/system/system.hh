/**
 * @file
 * System builder: constructs the full tiled CMP of Table 3 (cores, NoC,
 * caches, memory controllers, engines, morph registry) from one config,
 * runs guest threads to completion, and reports results.
 */

#ifndef TAKO_SYSTEM_SYSTEM_HH
#define TAKO_SYSTEM_SYSTEM_HH

#include <chrono>
#include <fstream>
#include <functional>
#include <memory>
#include <vector>

#include "core/core.hh"
#include "energy/energy.hh"
#include "mem/memory_system.hh"
#include "mon/sink.hh"
#include "noc/mesh.hh"
#include "prof/profiler.hh"
#include "sim/event_queue.hh"
#include "sim/random.hh"
#include "sim/stats.hh"
#include "sim/tracesink.hh"
#include "tako/engine.hh"
#include "tako/registry.hh"

namespace tako
{

struct SystemConfig
{
    MemParams mem;
    EngineParams engine;
    CoreParams core;
    MeshParams mesh;
    EnergyParams energy;
    std::uint64_t seed = 1;

    /** takoprof: build a Profiler and hook it into the memory system,
     *  engines, and NoC. Purely observational — enabling it changes no
     *  simulated timing or stat (the determinism test holds it to that). */
    bool profile = false;

    /** takotrace recording: invoked at the issue of every core demand
     *  access (see MemorySystem::setAccessTracer). Observational only:
     *  installing it changes no simulated timing or stat. */
    std::function<void(Tick, const AccessReq &)> accessTracer;

    /** Chrome trace-event output path (empty disables): spans and
     *  instant events of the categories in @c spanMask, loadable in
     *  Perfetto. Opened at construction, so a bad path fails before the
     *  run; closed by the run epilogue. Observational only. */
    std::string spanPath;
    std::uint32_t spanMask = trace::allFlagsMask();

    /** Periodic counter sampling: snapshot every @c sampleInterval
     *  cycles into StatsRegistry::timeSeries() (0 disables). Patterns
     *  select which counters (wildcards allowed; empty = all). */
    Tick sampleInterval = 0;
    std::vector<std::string> samplePatterns;

    /** takomon-v1 binary telemetry output path (empty disables).
     *  Requires sampleInterval > 0; the file holds the same rows as the
     *  in-memory time series and is bit-identical across host thread
     *  counts (CI gates on it). */
    std::string monPath;

    /** Progress heartbeat cadence in cycles (0 disables). Beats fire at
     *  deterministic sim ticks but carry host-side throughput; they go
     *  to @c onBeat (or one stderr line each), never into stats. */
    Tick progressEvery = 0;
    std::function<void(const mon::ProgressBeat &)> onBeat;

    /**
     * Must be 1: a simulation runs on one event queue. Host parallelism
     * comes from ensembles (takosim --replicate runs whole replicas on
     * concurrent lanes). System fails loudly on any other value; the
     * field is still written by takoperf's phi-sharded workload.
     */
    unsigned shards = 1;

    /** Table 3 configuration scaled to @p cores (8 -> 4x2, 16 -> 4x4,
     *  36 -> 6x6; memory bandwidth scales with cores, Sec. 9). */
    static SystemConfig forCores(unsigned cores);
};

class System
{
  public:
    explicit System(const SystemConfig &config);

    System(const System &) = delete;
    System &operator=(const System &) = delete;

    const SystemConfig &config() const { return config_; }
    EventQueue &eq() { return eq_; }
    StatsRegistry &stats() { return stats_; }
    EnergyModel &energy() { return *energy_; }
    Mesh &noc() { return *noc_; }
    MemorySystem &mem() { return *mem_; }
    MorphRegistry &registry() { return *registry_; }
    EngineCluster &engines() { return *engines_; }
    Core &core(int i) { return *cores_[i]; }
    unsigned numCores() const { return static_cast<unsigned>(cores_.size()); }
    Rng &rng() { return rng_; }

    /** Queue a guest thread on @p core (runs when run() is called). */
    void addThread(int core, std::function<Task<>(Guest &)> fn);

    /**
     * Run to completion (the event queue drains). Panics with
     * diagnostics if guests are still blocked when no events remain
     * (deadlock).
     * @return simulated cycles elapsed.
     */
    Tick run();

    /**
     * Run for at most @p limit cycles (crash-injection experiments):
     * execution simply stops mid-flight, leaving caches and stores in
     * their at-crash state for inspection. The system cannot be resumed.
     */
    Tick runFor(Tick limit);

    double totalEnergy() const { return energy_->total(); }

    /** Null unless config.profile; finalized when run()/runFor() returns. */
    prof::Profiler *profiler() { return prof_.get(); }
    std::shared_ptr<prof::Profiler> profilerShared() const { return prof_; }

    /** The takomon sink (null unless sampling or progress beats are
     *  configured). Callers may install a done-fraction provider for
     *  heartbeat ETAs (see mon::TimeSeriesSink::setFractionDone). */
    mon::TimeSeriesSink *monitor() { return monitor_.get(); }

  private:
    /** Stage the queued guest threads as per-tile bootstrap events, so
     *  each guest runs on its core's tile stream. */
    void bootGuests();

    /** Post-run deadlock/leak checks after a full drain. */
    void postRunChecks() const;

    /** Harvest NoC/set-heat counters into the profiler and finalize it. */
    void finalizeProfiler();

    /** Set the host.* wall-clock, throughput and functional-memory
     *  gauges after a run. */
    void stampHostStats(std::chrono::steady_clock::time_point host_start);

    /**
     * The one run epilogue of run() and runFor(), in order: close the
     * takomon sink and the span writer (write errors are fatal), stamp
     * host.*, check for deadlocks and leaks (@p drained runs only),
     * finalize the profiler.
     */
    void finishRun(std::chrono::steady_clock::time_point host_start,
                   bool drained);

    SystemConfig config_;
    EventQueue eq_;
    StatsRegistry stats_;
    Rng rng_;
    // Ahead of the components that hold the writer, so it outlives them.
    std::unique_ptr<std::ofstream> spanFile_;
    std::unique_ptr<trace::ChromeTraceWriter> spans_;
    std::unique_ptr<EnergyModel> energy_;
    std::unique_ptr<Mesh> noc_;
    std::unique_ptr<MemorySystem> mem_;
    std::unique_ptr<MorphRegistry> registry_;
    std::unique_ptr<EngineCluster> engines_;
    std::shared_ptr<prof::Profiler> prof_;
    std::vector<std::unique_ptr<Core>> cores_;
    std::unique_ptr<mon::TimeSeriesSink> monitor_;
    std::vector<std::pair<int, std::function<Task<>(Guest &)>>> pending_;
    double hostSeconds_ = 0.0;
};

} // namespace tako

#endif // TAKO_SYSTEM_SYSTEM_HH
