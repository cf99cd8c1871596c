#include "system/system.hh"

namespace tako
{

SystemConfig
SystemConfig::forCores(unsigned cores)
{
    SystemConfig cfg;
    cfg.mem.tiles = cores;
    // Pick the most-square mesh whose area is `cores`.
    unsigned best_x = 1;
    for (unsigned x = 1; x * x <= cores; ++x) {
        if (cores % x == 0)
            best_x = x;
    }
    cfg.mesh.dimX = cores / best_x;
    cfg.mesh.dimY = best_x;
    // Memory bandwidth scales proportionally with cores (Sec. 9):
    // 4 controllers at 16 cores -> 1 controller per 4 tiles.
    cfg.mem.memCtrls = std::max(1u, cores / 4);
    return cfg;
}

System::System(const SystemConfig &config) : config_(config), rng_(config.seed)
{
    fatal_if(config_.mem.tiles == 0, "a system needs at least one tile");
    fatal_if(config_.mem.tiles > MemorySystem::maxTiles,
             "%u tiles: the L3 directory tracks at most %u",
             config_.mem.tiles, MemorySystem::maxTiles);
    fatal_if(config_.mesh.dimX * config_.mesh.dimY != config_.mem.tiles,
             "mesh %ux%u does not cover %u tiles", config_.mesh.dimX,
             config_.mesh.dimY, config_.mem.tiles);

    fatal_if(config_.shards > 1,
             "SystemConfig::shards is %u: a simulation runs on one event "
             "queue; run replicas concurrently instead (takosim "
             "--replicate with --shards as the lane count)",
             config_.shards);
    // Key every event by its sending tile's stream before any component
    // schedules: the same-tick order the goldens encode.
    eq_.enableStreamKeys(config_.mem.tiles);

    energy_ = std::make_unique<EnergyModel>(stats_, config_.energy);
    noc_ = std::make_unique<Mesh>(config_.mesh, stats_, *energy_);
    mem_ = std::make_unique<MemorySystem>(config_.mem, eq_, stats_,
                                          *energy_, *noc_);
    registry_ = std::make_unique<MorphRegistry>(*mem_, eq_);
    engines_ = std::make_unique<EngineCluster>(config_.mem.tiles,
                                               config_.engine, *mem_, eq_,
                                               stats_, *energy_);
    mem_->setCallbackSink(engines_.get());

    // Observers (the takomon sink is the last, below): each is handed
    // to the components it watches here, and none feeds back into the
    // simulated timing or stats.
    if (config_.accessTracer)
        mem_->setAccessTracer(config_.accessTracer);
    if (!config_.spanPath.empty()) {
        spanFile_ = std::make_unique<std::ofstream>(config_.spanPath);
        fatal_if(!*spanFile_, "cannot open span trace output '%s'",
                 config_.spanPath.c_str());
        spans_ = std::make_unique<trace::ChromeTraceWriter>(
            *spanFile_, config_.spanMask);
        mem_->setSpanWriter(spans_.get());
        engines_->setSpanWriter(spans_.get());
        registry_->setSpanWriter(spans_.get());
    }
    if (config_.profile) {
        prof::ProfilerConfig pc;
        pc.tiles = config_.mem.tiles;
        pc.l1Lines = config_.mem.l1Size / lineBytes;
        pc.engL1Lines = config_.mem.engL1Size / lineBytes;
        pc.l2Lines = config_.mem.l2Size / lineBytes;
        // The L3 is one shared cache banked across tiles: reuse
        // distances classify against the aggregate capacity.
        pc.l3Lines =
            std::uint64_t(config_.mem.tiles) *
            (config_.mem.l3BankSize / lineBytes);
        pc.meshX = config_.mesh.dimX;
        pc.meshY = config_.mesh.dimY;
        prof_ = std::make_shared<prof::Profiler>(pc);
        mem_->setProfiler(prof_.get());
        engines_->setProfiler(prof_.get());
        noc_->enableLinkProfiling();
    }

    cores_.reserve(config_.mem.tiles);
    for (unsigned c = 0; c < config_.mem.tiles; ++c) {
        cores_.push_back(std::make_unique<Core>(
            static_cast<int>(c), config_.core, *mem_, *registry_, eq_,
            stats_, *energy_, config_.seed * 7919 + c));
    }

    engines_->setInterruptHandler([this](int core, Addr line) {
        cores_[core]->postInterrupt(line);
    });

    // Last: every component above has registered its counters, so an
    // empty pattern list ("sample everything") sees all of them. The
    // post-run host.* namespace is not registered yet and so can never
    // enter the sampled series.
    if (config_.sampleInterval > 0 || config_.progressEvery > 0) {
        mon::TimeSeriesSink::Options mo;
        mo.sampleEvery = config_.sampleInterval;
        mo.patterns = config_.samplePatterns;
        mo.monPath = config_.monPath;
        mo.progressEvery = config_.progressEvery;
        mo.onBeat = config_.onBeat;
        monitor_ = std::make_unique<mon::TimeSeriesSink>(
            eq_, stats_, std::move(mo));
    } else {
        fatal_if(!config_.monPath.empty(),
                 "a takomon output file needs a sampling interval");
    }
}

void
System::addThread(int core, std::function<Task<>(Guest &)> fn)
{
    pending_.emplace_back(core, std::move(fn));
}

void
System::bootGuests()
{
    // One keyed post per queued guest, in addThread order, onto the
    // owning core's tile. The posts draw system-stream (0) keys before
    // any event has run, and each guest then runs on its core's stream.
    for (auto &[core, fn] : pending_) {
        eq_.post(
            core, 0,
            [this, c = core, f = std::move(fn)]() mutable {
                cores_[c]->run(std::move(f));
            },
            EventPriority::High);
    }
    pending_.clear();
}

void
System::postRunChecks() const
{
    unsigned blocked = 0;
    for (const auto &core : cores_)
        blocked += core->running();
    panic_if(blocked != 0,
             "event queue drained with %u guest thread(s) blocked "
             "(deadlock); %u memory transactions in flight",
             blocked, mem_->inflight());
    panic_if(mem_->inflight() != 0,
             "event queue drained with %u memory transactions in flight",
             mem_->inflight());
}

Tick
System::runFor(Tick limit)
{
    const Tick start = eq_.now();
    const auto host_start = std::chrono::steady_clock::now();
    bootGuests();
    eq_.runUntil(start + limit);
    // runUntil leaves the last event's context published; a System built
    // next on this thread would take it for a running event.
    EventQueue::clearExecCtx();
    finishRun(host_start, false);
    return eq_.now() - start;
}

void
System::finishRun(std::chrono::steady_clock::time_point host_start,
                  bool drained)
{
    fatal_if(monitor_ && !monitor_->finish(), "%s",
             monitor_->error().c_str());
    if (spans_) {
        spans_->close();
        fatal_if(!*spanFile_, "write error on span trace output '%s'",
                 config_.spanPath.c_str());
    }
    stampHostStats(host_start);
    if (drained)
        postRunChecks();
    finalizeProfiler();
}

void
System::stampHostStats(
    std::chrono::steady_clock::time_point host_start)
{
    // Host-side throughput gauges. These are the only stats allowed to
    // differ between two otherwise-identical runs; consumers diffing for
    // determinism must skip the host.* namespace. Registered after the
    // run so the sampler's time series (fixed at construction) never
    // sees them.
    hostSeconds_ +=
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      host_start)
            .count();
    const double events = static_cast<double>(eq_.eventsFired());
    stats_
        .counter("host.seconds", "s",
                 "host wall-clock time spent inside run()/runFor()")
        .set(hostSeconds_);
    stats_
        .counter("host.sim_events", "events",
                 "events executed by the kernel event queue")
        .set(events);
    stats_
        .counter("host.events_per_sec", "events/s",
                 "kernel event throughput (sim_events / seconds)")
        .set(hostSeconds_ > 0 ? events / hostSeconds_ : 0.0);
    stats_
        .counter("host.mem.functional_bytes", "bytes",
                 "host memory of the real and phantom functional stores "
                 "(pages plus radix nodes)")
        .set(static_cast<double>(mem_->realStore().footprintBytes() +
                                 mem_->phantomStore().footprintBytes()));
}

void
System::finalizeProfiler()
{
    if (!prof_ || prof_->finalized())
        return;
    prof_->setNocLinks(noc_->linkBusyCycles(), noc_->linkMessages());
    prof_->setNocTotals(
        static_cast<std::uint64_t>(stats_.get("noc.messages")),
        static_cast<std::uint64_t>(stats_.get("noc.localMessages")));
    prof_->setSetHeat("l1", mem_->aggregateSetHeat(1));
    prof_->setSetHeat("l2", mem_->aggregateSetHeat(2));
    prof_->setSetHeat("l3", mem_->aggregateSetHeat(3));
    prof_->finalize(eq_.now(), stats_);
}

Tick
System::run()
{
    const Tick start = eq_.now();
    const auto host_start = std::chrono::steady_clock::now();
    bootGuests();
    eq_.run();
    finishRun(host_start, true);
    return eq_.now() - start;
}

} // namespace tako
