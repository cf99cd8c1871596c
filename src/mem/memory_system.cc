#include "mem/memory_system.hh"

#include <algorithm>
#include <cstdarg>
#include <cstdio>

#include "prof/profiler.hh"
#include "sim/tracesink.hh"

namespace tako
{

namespace
{

/** Tile @p t's bit in a directory sharer mask (CacheWay::sharers). */
constexpr std::uint64_t
tileBit(unsigned t)
{
    return std::uint64_t{1} << t;
}

} // namespace

MemorySystem::MemorySystem(const MemParams &params, EventQueue &eq,
                           StatsRegistry &stats, EnergyModel &energy,
                           Mesh &noc)
    : params_(params),
      eq_(eq),
      stats_(stats),
      energy_(energy),
      noc_(noc),
      l1Hits_(stats.handle("l1.hits", "accesses",
                           "demand hits in a core/engine L1d")),
      l1Misses_(stats.handle("l1.misses", "accesses",
                             "demand misses in a core/engine L1d")),
      l2Hits_(stats.handle("l2.hits", "accesses",
                           "hits in a private L2")),
      l2Misses_(stats.handle("l2.misses", "accesses",
                             "misses in a private L2")),
      l3Hits_(stats.handle("l3.hits", "accesses",
                           "hits in the shared L3")),
      l3Misses_(stats.handle("l3.misses", "accesses",
                             "misses in the shared L3")),
      dramReads_(stats.handle("dram.reads", "accesses",
                              "64B reads at the memory controllers")),
      dramWrites_(stats.handle("dram.writes", "accesses",
                               "64B writebacks at the controllers")),
      invalidations_(stats.handle("coherence.invalidations", "events",
                                  "directory-inflicted invalidations")),
      downgrades_(stats.handle("coherence.downgrades", "events",
                               "exclusive-owner downgrades to Shared")),
      l2Evictions_(stats.handle("l2.evictions", "lines",
                                "capacity/conflict evictions from L2")),
      l3Evictions_(stats.handle("l3.evictions", "lines",
                                "capacity/conflict evictions from L3")),
      rmoOps_(stats.handle("rmo.ops")),
      prefetchesIssued_(stats.handle("prefetch.issued")),
      hBdCache_(stats.histogramHandle(
          "mem.breakdown.cache", 64, 8, "cycles",
          "per-access cycles in cache tag/data arrays (L1/L2/L3)")),
      hBdNoc_(stats.histogramHandle(
          "mem.breakdown.noc", 64, 8, "cycles",
          "per-access cycles on the mesh, incl. coherence round trips")),
      hBdLock_(stats.histogramHandle(
          "mem.breakdown.lock_wait", 64, 8, "cycles",
          "per-access cycles waiting on line locks, MSHRs, victim ways")),
      hBdDram_(stats.histogramHandle(
          "mem.breakdown.dram", 64, 8, "cycles",
          "per-access cycles in memory-controller queue + access")),
      hBdCbWait_(stats.histogramHandle(
          "mem.breakdown.callback_wait", 64, 8, "cycles",
          "per-access cycles blocked on a tako onMiss callback")),
      hBdTotal_(stats.histogramHandle(
          "mem.breakdown.total", 64, 8, "cycles",
          "end-to-end access latency (sum of breakdown components)"))
{
    panic_if(params_.tiles != noc_.numTiles(),
             "tile count (%u) != mesh size (%u)", params_.tiles,
             noc_.numTiles());
    tiles_.reserve(params_.tiles);
    for (unsigned t = 0; t < params_.tiles; ++t)
        tiles_.push_back(std::make_unique<TileState>(params_, eq_));

    ctrls_.reserve(params_.memCtrls);
    for (unsigned c = 0; c < params_.memCtrls; ++c)
        ctrls_.emplace_back(params_.memLat, params_.memBytesPerCycle);

    // Spread controllers across the diagonal of the mesh.
    ctrlTiles_.resize(params_.memCtrls);
    for (unsigned c = 0; c < params_.memCtrls; ++c) {
        ctrlTiles_[c] =
            params_.memCtrls > 1
                ? static_cast<int>(c * (params_.tiles - 1) /
                                   (params_.memCtrls - 1))
                : 0;
    }

    phaseLanes_.resize(params_.memCtrls);

    setPhase("default");
}

void
MemorySystem::setPhase(const std::string &phase)
{
    if (!detail::execCtx.queue) {
        // Pre-run (constructor, test setup): no events are in flight, so
        // the replicas can change in place.
        for (PhaseLane &pl : phaseLanes_) {
            pl.phase = phase;
            pl.reads = nullptr;
            pl.writes = nullptr;
        }
        return;
    }
    // Mid-run: the label is only ever consumed at the controllers'
    // tiles, so broadcast one message per controller — each updates its
    // own controller's replica one hop later. Handles re-resolve lazily
    // (the counter is only registered for phases that actually touch
    // DRAM).
    for (unsigned c = 0; c < params_.memCtrls; ++c) {
        eq_.post(ctrlTile(c), noc_.hopDelay(), [this, c, phase]() {
            PhaseLane &pl = phaseLanes_[c];
            pl.phase = phase;
            pl.reads = nullptr;
            pl.writes = nullptr;
        });
    }
}

void
MemorySystem::setProfiler(prof::Profiler *p)
{
    prof_ = p;
    if (!p)
        return;
    for (auto &t : tiles_) {
        t->l1.enableSetHeat();
        t->engL1.enableSetHeat();
        t->l2.enableSetHeat();
        t->l3.enableSetHeat();
    }
}

std::vector<std::uint64_t>
MemorySystem::aggregateSetHeat(int level) const
{
    std::vector<std::uint64_t> out;
    auto accum = [&out](const CacheArray &arr) {
        const std::vector<std::uint64_t> &h = arr.setHeat();
        if (h.empty())
            return;
        if (out.size() < h.size())
            out.resize(h.size(), 0);
        for (std::size_t i = 0; i < h.size(); ++i)
            out[i] += h[i];
    };
    for (const auto &t : tiles_) {
        switch (level) {
          case 1:
            accum(t->l1);
            accum(t->engL1);
            break;
          case 2:
            accum(t->l2);
            break;
          case 3:
            accum(t->l3);
            break;
          default:
            panic("aggregateSetHeat: bad level %d", level);
        }
    }
    return out;
}

std::uint64_t
MemorySystem::dramReads() const
{
    return static_cast<std::uint64_t>(dramReads_->value());
}

std::uint64_t
MemorySystem::dramWrites() const
{
    return static_cast<std::uint64_t>(dramWrites_->value());
}

unsigned
MemorySystem::inflight() const
{
    return inflight_;
}

// ---------------------------------------------------------------------
// Main access path
// ---------------------------------------------------------------------

Mesh::Walk
MemorySystem::hop(int src, int dst, unsigned bytes, LatBreakdown *bd)
{
    return noc_.walk(eq_, src, dst, bytes, bd ? &bd->noc : nullptr);
}

Task<std::uint64_t>
MemorySystem::access(AccessReq req)
{
    // Demand accesses only: prefetches, engine traffic, and täkō
    // callbacks are simulator-generated, not part of the guest's own
    // reference stream, so a recorded trace replays 1:1.
    if (accessTracer_ && !req.prefetch && !req.fromEngine &&
        req.callbackLevel < 0)
        accessTracer_(eq_.now(), req);

    const Addr line = lineAlign(req.addr);
    const bool need_m = req.cmd != MemCmd::Load;
    const MorphBinding *mb = resolve(req.tile, req.addr);

    // Sec. 4.3 restriction: callbacks may not access data with a Morph
    // registered at the same or a higher level of the hierarchy.
    if (req.callbackLevel >= 0 && mb) {
        const bool forbidden =
            req.callbackLevel == 1 ||
            (req.callbackLevel == 0 && mb->level == MorphLevel::Private);
        panic_if(forbidden,
                 "callback at level %d accesses morphed address %#llx "
                 "(registered %s)",
                 req.callbackLevel, (unsigned long long)req.addr,
                 mb->level == MorphLevel::Private ? "PRIVATE" : "SHARED");
    }
    panic_if(isPhantom(req.addr) && !mb,
             "access to unregistered phantom address %#llx",
             (unsigned long long)req.addr);
    if (mb && mb->phantom && mb->level == MorphLevel::Private) {
        panic_if(req.tile != mb->tile,
                 "PRIVATE phantom address %#llx accessed from tile %d "
                 "(registered on tile %d)",
                 (unsigned long long)req.addr, req.tile, mb->tile);
    }

    ++inflight_;
    const Tick t_start = eq_.now();
    TileState &t = *tiles_[req.tile];
    CacheArray &l1 = req.fromEngine ? t.engL1 : t.l1;
    // Engine accesses carry trrîp's low-priority tag (Sec. 5.2):
    // engine-filled lines never promote past long re-reference priority,
    // so they age out before core-reused data. Use-once accesses
    // additionally demote to eviction-first after the fill.
    const bool engine_repl = req.fromEngine;

    const Tick l1_lat = req.fromEngine ? params_.engL1Lat : params_.l1Lat;
    co_await Delay{eq_, l1_lat};
    if (req.fromEngine)
        energy_.engineL1Access();
    else
        energy_.l1Access();

    auto l1_hit_ok = [&]() -> bool {
        CacheWay *w1 = l1.lookup(line);
        if (!w1)
            return false;
        if (!need_m)
            return true;
        CacheWay *w2 = t.l2.lookup(line);
        panic_if(!w2, "L1 line %#llx missing from L2 (inclusion)",
                 (unsigned long long)line);
        return w2->coh == Coh::E || w2->coh == Coh::M;
    };

    // takoprof: classify the demand L1 lookup once, at first probe, on
    // tag presence (a permission upgrade is not a content miss). Merged
    // hits after the tile lock re-probe but are not re-classified.
    if (prof_ && !req.prefetch) {
        l1.noteAccess(line);
        prof_->l1Access(req.tile, req.fromEngine, line,
                        l1.lookup(line) != nullptr);
    }

    if (!req.prefetch && l1_hit_ok()) {
        ++*l1Hits_;
        l1.touch(*l1.lookup(line), engine_repl);
        const std::uint64_t v = doFunctional(req);
        // Hit-path breakdowns are fully determined, so build them on the
        // spot only when someone is looking: keeping a LatBreakdown local
        // alive across the co_awaits above spills it into the coroutine
        // frame and costs ~4% on this fast path.
        if (observing()) {
            LatBreakdown bd;
            bd.cache = l1_lat;
            finishAccess(req, t_start, bd);
        }
        --inflight_;
        co_return v;
    }
    ++*l1Misses_;

    // Serialize same-line transactions within the tile; this also merges
    // concurrent misses to the same line (MSHR-style).
    Tick t0 = eq_.now();
    co_await t.tileLocks.acquire(line);
    const Tick tile_lock_wait = eq_.now() - t0;

    if (!req.prefetch && l1_hit_ok()) {
        // A merged request filled the line while we waited.
        l1.touch(*l1.lookup(line), engine_repl);
        t.tileLocks.release(line);
        const std::uint64_t v = doFunctional(req);
        if (observing()) {
            LatBreakdown bd;
            bd.cache = l1_lat;
            bd.lockWait = tile_lock_wait;
            finishAccess(req, t_start, bd);
        }
        --inflight_;
        co_return v;
    }

    // From here on the access is a real L2 lookup (and possibly a miss
    // walk); that is slow enough that unconditional attribution is noise.
    LatBreakdown bd;
    bd.cache = l1_lat;
    bd.lockWait = tile_lock_wait;

    co_await Delay{eq_, params_.l2TagLat};
    bd.cache += params_.l2TagLat;
    energy_.l2Access();

    CacheWay *w2 = t.l2.lookup(line);

    if (prof_) {
        t.l2.noteAccess(line);
        if (!req.prefetch)
            prof_->l2Access(req.tile, line, w2 != nullptr);
    }

    // Train the stream prefetcher on demand core accesses (loads,
    // stores, and atomics all advance streams — e.g., HATS consumes its
    // edge stream with atomic exchanges) that miss the L2 or take the
    // first demand hit on a prefetched line.
    bool was_prefetched = false;
    if (!req.fromEngine && !req.prefetch) {
        if (!w2) {
            maybePrefetch(req.tile, line);
        } else if (w2->prefetched) {
            w2->prefetched = false;
            was_prefetched = true;
            ++t.pfUsefulWindow;
            maybePrefetch(req.tile, line);
        }
    }
    const bool l2_ok =
        w2 && (!need_m || w2->coh == Coh::E || w2->coh == Coh::M);

    if (spans_) [[unlikely]] {
        tileInstant(trace::Flag::Cache, l2_ok ? "l2_hit" : "l2_miss",
                    req.tile, "{\"addr\":\"%#llx\",\"op\":\"%s\"}",
                    (unsigned long long)line,
                    req.cmd == MemCmd::Load ? "ld" : "st/at");
    }
    if (l2_ok) {
        ++*l2Hits_;
        co_await Delay{eq_, params_.l2DataLat};
        bd.cache += params_.l2DataLat;
        t.l2.touch(*w2, engine_repl);
        if (req.useOnce)
            t.l2.demote(*w2);
        // Streaming (prefetched) data is used once: keep it near
        // eviction rather than letting it displace the working set.
        if (was_prefetched)
            w2->rrpv = CacheArray::rrpvLong;
    } else {
        ++*l2Misses_;
        Semaphore &mshrs = req.fromEngine ? t.engineMshrs : t.coreMshrs;
        t0 = eq_.now();
        co_await mshrs.acquire();
        bd.lockWait += eq_.now() - t0;
        if (!w2 && mb && mb->level == MorphLevel::Private && mb->phantom) {
            // Private phantom miss: allocate at L2, zero the line, and
            // let onMiss generate the data (Table 1 semantics).
            co_await insertL2(req.tile, line, Coh::M, mb, engine_repl,
                              req.useOnce, &bd);
            phantomStore_.zeroLine(line);
            if (mb->hasMiss && sink_) {
                Completion<bool> done(eq_);
                sink_->triggerMiss(req.tile, line, *mb,
                                   [&done]() { done.complete(true); });
                t0 = eq_.now();
                co_await done;
                bd.callbackWait += eq_.now() - t0;
            }
        } else {
            co_await fetchIntoL2(req.tile, line, need_m, engine_repl,
                                 mb, req.noFetch, req.useOnce, bd);
        }
        mshrs.release();
    }

    if (req.prefetch) {
        if (CacheWay *w = t.l2.lookup(line))
            w->prefetched = true;
    } else {
        insertL1(req.tile, req.fromEngine, line, req.useOnce);
    }

    t.tileLocks.release(line);
    const std::uint64_t v = req.prefetch ? 0 : doFunctional(req);
    if (observing())
        finishAccess(req, t_start, bd);
    --inflight_;
    co_return v;
}

void
MemorySystem::finishAccess(const AccessReq &req, Tick start,
                           const LatBreakdown &bd)
{
    if (params_.latBreakdown && !req.prefetch) {
        hBdCache_->sample(bd.cache);
        hBdNoc_->sample(bd.noc);
        hBdLock_->sample(bd.lockWait);
        hBdDram_->sample(bd.dram);
        hBdCbWait_->sample(bd.callbackWait);
        hBdTotal_->sample(eq_.now() - start);
    }
    if (trace::ChromeTraceWriter *w =
            tileTrack(trace::Flag::Mem, req.tile)) {
        const char *name = "load";
        if (req.prefetch)
            name = "prefetch";
        else if (req.cmd == MemCmd::Store)
            name = "store";
        else if (req.cmd != MemCmd::Load)
            name = "atomic";
        w->completeEvent(
            "mem", name, 0, req.tile, start, eq_.now() - start,
            strprintf("{\"addr\":\"%#llx\",\"engine\":%s,"
                      "\"cache\":%llu,\"noc\":%llu,\"lock_wait\":%llu,"
                      "\"dram\":%llu,\"callback_wait\":%llu}",
                      (unsigned long long)req.addr,
                      req.fromEngine ? "true" : "false",
                      (unsigned long long)bd.cache,
                      (unsigned long long)bd.noc,
                      (unsigned long long)bd.lockWait,
                      (unsigned long long)bd.dram,
                      (unsigned long long)bd.callbackWait));
    }
}

void
MemorySystem::tileInstant(trace::Flag f, const char *name, int tile,
                          const char *args_fmt, ...)
{
    trace::ChromeTraceWriter *w = tileTrack(f, tile);
    if (!w)
        return;
    char args[256];
    va_list ap;
    va_start(ap, args_fmt);
    std::vsnprintf(args, sizeof(args), args_fmt, ap);
    va_end(ap);
    w->instantEvent(trace::flagName(f), name, 0, tile, eq_.now(), args);
}

Task<>
MemorySystem::coherenceVisit(int bank, int tile, Addr line, bool downgrade,
                             bool *dirty_out)
{
    co_await hop(bank, tile, 8);
    bool dirty = false;
    if (downgrade) {
        co_await Delay{eq_, params_.l2TagLat + params_.l2DataLat};
        TileState &o = *tiles_[tile];
        if (CacheWay *ow = o.l2.lookup(line)) {
            if (ow->dirty) {
                dirty = true;
                ow->dirty = false;
            }
            ow->coh = Coh::S;
        }
        co_await hop(tile, bank, 72);
    } else {
        co_await Delay{eq_, params_.l2TagLat};
        dirty = invalidateTileCopies(tile, line, true);
        co_await hop(tile, bank, 8);
    }
    // Back at the bank: the flag lives in the bank-side caller's frame,
    // so every visit's merge executes at the bank's tile.
    *dirty_out |= dirty;
}

Task<>
MemorySystem::fetchIntoL2(int tile, Addr line, bool want_m, bool engine,
                          const MorphBinding *mb, bool no_fetch,
                          bool use_once, LatBreakdown &bd)
{
    const int bank = bankOf(line);
    const bool shared_morph = mb && mb->level == MorphLevel::Shared;

    panic_if(mb && mb->level == MorphLevel::Private && mb->phantom,
             "private phantom line %#llx reached the L3 path",
             (unsigned long long)line);

    co_await hop(tile, bank, 8, &bd);
    // Bank-side state is bound after the hop: every access below runs
    // at the bank's tile.
    TileState &b = *tiles_[bank];
    Tick t0 = eq_.now();
    co_await b.bankLocks.acquire(line);
    bd.lockWait += eq_.now() - t0;
    co_await Delay{eq_, params_.l3TagLat};
    bd.cache += params_.l3TagLat;
    energy_.l3Access();

    CacheWay *w3 = b.l3.lookup(line);
    if (prof_) {
        b.l3.noteAccess(line);
        prof_->l3Access(line, w3 != nullptr);
    }
    if (!w3) {
        ++*l3Misses_;
        w3 = co_await allocL3Way(bank, line, mb, engine, &bd);
        if (use_once)
            b.l3.demote(*w3);

        if (shared_morph && mb->phantom) {
            phantomStore_.zeroLine(line);
            if (mb->hasMiss && sink_) {
                Completion<bool> done(eq_);
                sink_->triggerMiss(bank, line, *mb,
                                   [&done]() { done.complete(true); });
                t0 = eq_.now();
                co_await done;
                bd.callbackWait += eq_.now() - t0;
            }
        } else if (shared_morph && mb->hasMiss && sink_) {
            // Real shared morph: onMiss overlaps the memory fetch
            // (Sec. 4.3: "onMiss begins executing in parallel with
            // reading addr"); the overlapped wait is attributed to
            // the callback component.
            Join join(eq_);
            join.add(2);
            spawn(dramFetch(bank, line), join.completion());
            sink_->triggerMiss(bank, line, *mb,
                               join.completion());
            t0 = eq_.now();
            co_await join.wait();
            bd.callbackWait += eq_.now() - t0;
        } else if (no_fetch && want_m && !mb) {
            // Streaming store: write-combining allocation, no memory
            // read. The line becomes dirty and writes back as usual.
            w3->dirty = true;
        } else {
            co_await dramFetch(bank, line, &bd);
        }
    } else {
        ++*l3Hits_;
        if (want_m) {
            // Invalidate all other copies — each invalidation is a real
            // visit to the sharer's tile, executing the cache mutation
            // at the sharer's own tile; the directory waits here (with
            // the bank lock held) for every acknowledgment.
            std::uint64_t others =
                w3->sharers & ~tileBit(static_cast<unsigned>(tile));
            if (w3->owner >= 0 && w3->owner != tile)
                others |= tileBit(static_cast<unsigned>(w3->owner));
            if (others) {
                Join join(eq_);
                bool vdirty = false;
                for (unsigned s = 0; s < params_.tiles; ++s) {
                    if (!(others & tileBit(s)))
                        continue;
                    ++*invalidations_;
                    if (spans_) [[unlikely]] {
                        tileInstant(trace::Flag::Coherence, "invalidate",
                                    bank, "{\"addr\":\"%#llx\",\"tile\":%u}",
                                    (unsigned long long)line, s);
                    }
                    join.add(1);
                    spawn(coherenceVisit(bank, static_cast<int>(s), line,
                                         false, &vdirty),
                          join.completion());
                }
                t0 = eq_.now();
                co_await join.wait();
                bd.noc += eq_.now() - t0;
                if (vdirty)
                    w3->dirty = true;
            }
        } else if (w3->owner >= 0 && w3->owner != tile) {
            // Downgrade the exclusive owner to Shared (one visit).
            ++*downgrades_;
            bool vdirty = false;
            t0 = eq_.now();
            co_await coherenceVisit(bank, w3->owner, line, true, &vdirty);
            bd.noc += eq_.now() - t0;
            if (vdirty)
                w3->dirty = true;
            w3->owner = -1;
        }
        co_await Delay{eq_, params_.l3DataLat};
        bd.cache += params_.l3DataLat;
        b.l3.touch(*w3, engine);
    }

    // Directory update commits here, with the bank lock held; the lock
    // stays held across the response hop and the L2 install below, so
    // grant and install are atomic with respect to every other
    // transaction on this line (an invalidation can never slip between
    // the directory saying "tile has it" and the tile's L2 agreeing).
    Coh grant;
    if (want_m) {
        w3->sharers = tileBit(static_cast<unsigned>(tile));
        w3->owner = static_cast<std::int8_t>(tile);
        grant = Coh::M;
    } else {
        const bool sole =
            (w3->sharers & ~tileBit(static_cast<unsigned>(tile))) == 0 &&
            (w3->owner < 0 || w3->owner == tile);
        w3->sharers |= tileBit(static_cast<unsigned>(tile));
        w3->owner = sole ? static_cast<std::int8_t>(tile)
                         : static_cast<std::int8_t>(-1);
        grant = sole ? Coh::E : Coh::S;
    }

    co_await hop(bank, tile, 72, &bd);
    // Back at the requesting tile: bind its state here, not before the
    // hops.
    TileState &t = *tiles_[tile];

    if (CacheWay *w2 = t.l2.lookup(line)) {
        // Upgrade in place.
        w2->coh = grant;
        t.l2.touch(*w2, engine);
        if (use_once)
            t.l2.demote(*w2);
    } else {
        co_await insertL2(tile, line, grant, mb, engine, use_once, &bd);
    }

    // Unlock message back to the bank's tile, one hop out like every
    // other tile-to-tile control message.
    eq_.post(bank, noc_.hopDelay(), [this, bank, line]() {
        tiles_[bank]->bankLocks.release(line);
    });
}

Task<>
MemorySystem::dramFetch(int bank_tile, Addr line, LatBreakdown *bd)
{
    const unsigned c = ctrlOf(line);
    co_await hop(bank_tile, ctrlTile(c), 8, bd);
    const Tick lat = ctrls_[c].access(eq_.now());
    if (trace::ChromeTraceWriter *w =
            trace::recording(spans_, trace::Flag::Dram)) {
        w->ensureTrack(2, "dram", static_cast<int>(c),
                       strprintf("ctrl%u", c));
        w->completeEvent("dram", "read", 2, static_cast<int>(c),
                         eq_.now(), lat,
                         strprintf("{\"addr\":\"%#llx\"}",
                                   (unsigned long long)line));
    }
    ++*dramReads_;
    PhaseLane &pl = phaseLanes_[c];
    if (!pl.reads) [[unlikely]]
        // takolint: ok(S1, re-resolved once per phase change, then cached)
        pl.reads = stats_.handle("dram.reads." + pl.phase);
    ++*pl.reads;
    energy_.dramAccess();
    co_await Delay{eq_, lat};
    if (bd)
        bd->dram += lat;
    co_await hop(ctrlTile(c), bank_tile, 72, bd);
}

Task<>
MemorySystem::dramWritebackTask(int bank_tile, Addr line)
{
    const unsigned c = ctrlOf(line);
    co_await hop(bank_tile, ctrlTile(c), 72);
    const Tick lat = ctrls_[c].access(eq_.now());
    if (trace::ChromeTraceWriter *w =
            trace::recording(spans_, trace::Flag::Dram)) {
        w->ensureTrack(2, "dram", static_cast<int>(c),
                       strprintf("ctrl%u", c));
        w->completeEvent("dram", "write", 2, static_cast<int>(c),
                         eq_.now(), lat,
                         strprintf("{\"addr\":\"%#llx\"}",
                                   (unsigned long long)line));
    }
    ++*dramWrites_;
    PhaseLane &pl = phaseLanes_[c];
    if (!pl.writes) [[unlikely]]
        // takolint: ok(S1, re-resolved once per phase change, then cached)
        pl.writes = stats_.handle("dram.writes." + pl.phase);
    ++*pl.writes;
    energy_.dramAccess();
    co_await Delay{eq_, lat};
}

void
MemorySystem::dramWriteback(int bank_tile, Addr line)
{
    spawn(dramWritebackTask(bank_tile, line));
}

Task<>
MemorySystem::writebackToL3Task(int tile, Addr line)
{
    // Timing/traffic only: the directory dirty bit was merged at
    // eviction-commit time (functional data is always current).
    co_await hop(tile, bankOf(line), 72);
    energy_.l3Access();
}

// ---------------------------------------------------------------------
// Fills and evictions
// ---------------------------------------------------------------------

Task<CacheWay *>
MemorySystem::insertL2(int tile, Addr line, Coh state,
                       const MorphBinding *mb, bool engine_fill,
                       bool use_once, LatBreakdown *bd)
{
    TileState &t = *tiles_[tile];
    const bool morph_here = mb && mb->level == MorphLevel::Private;
    // Prefer victims that are not locked and not cached in an L1 above
    // (inclusive hierarchies avoid back-invalidating hot upper-level
    // lines); relax the L1-presence constraint if nothing qualifies.
    // When every way is held by an in-flight transaction, wait for one
    // to drain (hardware would stall the fill in an MSHR).
    CacheWay *victim = nullptr;
    for (;;) {
        victim =
            t.l2.findVictim(line, mb != nullptr, [&](const CacheWay &w) {
                return !t.tileLocks.held(w.lineAddr) &&
                       !t.l1.lookup(w.lineAddr) &&
                       !t.engL1.lookup(w.lineAddr);
            });
        if (!victim) {
            victim = t.l2.findVictim(
                line, mb != nullptr, [&](const CacheWay &w) {
                    return !t.tileLocks.held(w.lineAddr);
                });
        }
        if (victim)
            break;
        co_await Delay{eq_, 4};
        if (bd)
            bd->lockWait += 4;
    }
    if (victim->valid)
        evictL2Way(tile, *victim);
    t.l2.fill(*victim, line, morph_here, morph_here ? mb->id : 0,
              engine_fill);
    if (use_once)
        t.l2.demote(*victim);
    victim->coh = state;
    co_return victim;
}

Task<CacheWay *>
MemorySystem::allocL3Way(int bank_tile, Addr line, const MorphBinding *mb,
                         bool engine_fill, LatBreakdown *bd)
{
    TileState &b = *tiles_[bank_tile];
    CacheWay *victim = nullptr;
    for (;;) {
        victim = b.l3.findVictim(
            line, mb != nullptr, [&](const CacheWay &w) {
                return !b.bankLocks.held(w.lineAddr);
            });
        if (victim)
            break;
        co_await Delay{eq_, 4};
        if (bd)
            bd->lockWait += 4;
    }
    if (victim->valid) {
        // The victim's slow eviction tail (back-invalidation visits,
        // callbacks, writeback) detaches so this fill can proceed; the
        // detached task holds the victim line's bank lock from this very
        // event, so a refetch of the victim cannot start — let alone
        // observe a stale phantom line — before the eviction retires.
        spawn(evictL3Detached(bank_tile, snapL3Way(bank_tile, *victim)));
    }
    b.l3.fill(*victim, line, mb != nullptr, mb ? mb->id : 0, engine_fill);
    co_return victim;
}

MemorySystem::L3Evict
MemorySystem::snapL3Way(int bank, CacheWay &w)
{
    ++*l3Evictions_;
    L3Evict ev;
    ev.line = w.lineAddr;
    ev.dirty = w.dirty;
    ev.copies = w.sharers;
    if (w.owner >= 0)
        ev.copies |= tileBit(static_cast<unsigned>(w.owner));
    if (spans_) [[unlikely]] {
        tileInstant(trace::Flag::Cache, "l3_evict", bank,
                    "{\"addr\":\"%#llx\",\"dirty\":%s,\"morph\":%s}",
                    (unsigned long long)ev.line, ev.dirty ? "true" : "false",
                    w.morph ? "true" : "false");
    }
    w.invalidate();
    return ev;
}

Task<>
MemorySystem::evictL3Detached(int bank_tile, L3Evict ev)
{
    TileState &b = *tiles_[bank_tile];
    // Synchronous by construction: the victim scan only picks unlocked
    // lines, so this acquire cannot suspend, and the lock is in place
    // before any other event can run.
    co_await b.bankLocks.acquire(ev.line);
    co_await evictL3Core(bank_tile, ev);
    b.bankLocks.release(ev.line);
}

Task<>
MemorySystem::evictL3Core(int bank_tile, L3Evict ev)
{
    const Addr line = ev.line;
    bool dirty = ev.dirty;

    // Inclusive L3: back-invalidate every private copy, each at its
    // owner's tile, and wait for the acknowledgments.
    if (ev.copies) {
        Join join(eq_);
        bool vdirty = false;
        for (unsigned s = 0; s < params_.tiles; ++s) {
            if (!(ev.copies & tileBit(s)))
                continue;
            join.add(1);
            spawn(coherenceVisit(bank_tile, static_cast<int>(s), line,
                                 false, &vdirty),
                  join.completion());
        }
        co_await join.wait();
        dirty |= vdirty;
    }

    // Capture strictly after the back-invalidations: until a remote M
    // owner has acknowledged, it can still be committing stores, and a
    // capture taken earlier could miss them.
    const MorphBinding *mb = resolve(bank_tile, line);
    const bool shared_morph = mb && mb->level == MorphLevel::Shared;

    if (shared_morph) {
        LineData data = storeFor(line).readLine(line);
        if (mb->phantom) {
            phantomStore_.zeroLine(line);
            launchEvictionCallback(bank_tile, line, *mb, dirty, data);
        } else {
            launchEvictionCallback(bank_tile, line, *mb, dirty, data,
                                   dirty ? AfterEviction::DramWriteback
                                         : AfterEviction::Nothing);
        }
    } else if (!isPhantom(line)) {
        if (dirty)
            dramWriteback(bank_tile, line);
    } else {
        phantomStore_.zeroLine(line);
    }
}

void
MemorySystem::insertL1(int tile, bool engine, Addr line, bool cold)
{
    TileState &t = *tiles_[tile];
    // The fill may have been squashed by a racing invalidation between
    // the directory grant and now; L1 must stay included in L2.
    if (!t.l2.lookup(line))
        return;
    CacheArray &l1 = engine ? t.engL1 : t.l1;
    if (l1.lookup(line))
        return;
    CacheWay *v = l1.findVictim(line, false);
    panic_if(!v, "no L1 victim");
    if (v->valid) {
        if (v->dirty) {
            if (CacheWay *w2 = t.l2.lookup(v->lineAddr))
                w2->dirty = true;
        }
        v->invalidate();
    }
    l1.fill(*v, line, false, 0, engine);
    // Use-once data inserts cold: it is the next victim unless touched.
    if (cold)
        l1.demote(*v);
}

void
MemorySystem::evictL2Way(int tile, CacheWay &w)
{
    TileState &t = *tiles_[tile];
    ++*l2Evictions_;
    const Addr line = w.lineAddr;
    if (spans_) [[unlikely]] {
        tileInstant(trace::Flag::Cache, "l2_evict", tile,
                    "{\"addr\":\"%#llx\",\"dirty\":%s,\"morph\":%s}",
                    (unsigned long long)line, w.dirty ? "true" : "false",
                    w.morph ? "true" : "false");
    }

    // Inclusion: pull back L1 copies, merging dirtiness.
    for (CacheArray *l1 : {&t.l1, &t.engL1}) {
        if (CacheWay *w1 = l1->lookup(line)) {
            if (w1->dirty)
                w.dirty = true;
            w1->invalidate();
        }
    }

    const MorphBinding *mb = resolve(tile, line);
    const bool dirty = w.dirty;
    const bool private_morph = mb && mb->level == MorphLevel::Private;

    if (private_morph) {
        // The line leaves the registered cache level: capture its data
        // and hand it to onEviction/onWriteback.
        LineData data = storeFor(line).readLine(line);
        if (mb->phantom) {
            phantomStore_.zeroLine(line);
            launchEvictionCallback(tile, line, *mb, dirty, data);
        } else {
            // Real line: callback first, then the writeback proceeds.
            updateDirectoryOnPrivateEvict(tile, line, dirty);
            launchEvictionCallback(tile, line, *mb, dirty, data,
                                   dirty ? AfterEviction::WritebackToL3
                                         : AfterEviction::Nothing);
        }
    } else if (!isPhantom(line)) {
        updateDirectoryOnPrivateEvict(tile, line, dirty);
        if (dirty)
            spawn(writebackToL3Task(tile, line));
    } else {
        // Shared phantom line cached privately: its home is the L3, so
        // the private copy just folds back (dirty merge at directory).
        updateDirectoryOnPrivateEvict(tile, line, dirty);
    }

    w.invalidate();
}

void
MemorySystem::updateDirectoryOnPrivateEvict(int tile, Addr line,
                                            bool dirty)
{
    // The directory lives at the line's home bank; the clear travels as
    // a message and commits at the bank's tile. By the time it lands
    // the L3 copy may be gone (concurrent eviction) — tolerate that, as
    // the monolithic model always has.
    eq_.post(bankOf(line), noc_.hopDelay(), [this, tile, line, dirty]() {
        TileState &b = *tiles_[bankOf(line)];
        CacheWay *w3 = b.l3.lookup(line);
        if (!w3)
            return;
        w3->sharers &= ~tileBit(static_cast<unsigned>(tile));
        if (w3->owner == tile)
            w3->owner = -1;
        if (dirty)
            w3->dirty = true;
    });
}

bool
MemorySystem::invalidateTileCopies(int tile, Addr line,
                                   bool trigger_callbacks)
{
    TileState &t = *tiles_[tile];
    bool dirty = false;
    for (CacheArray *l1 : {&t.l1, &t.engL1}) {
        if (CacheWay *w1 = l1->lookup(line)) {
            dirty |= w1->dirty;
            w1->invalidate();
        }
    }
    if (CacheWay *w2 = t.l2.lookup(line)) {
        dirty |= w2->dirty;
        const MorphBinding *mb = resolve(tile, line);
        if (trigger_callbacks && mb &&
            mb->level == MorphLevel::Private) {
            // Losing the line at the registered level triggers the
            // eviction callback even when the eviction is inflicted by
            // the directory (inclusion victim / invalidation).
            LineData data = storeFor(line).readLine(line);
            launchEvictionCallback(tile, line, *mb, w2->dirty, data);
        }
        w2->invalidate();
    }
    return dirty;
}

void
MemorySystem::launchEvictionCallback(int engine_tile, Addr line,
                                     const MorphBinding &mb, bool dirty,
                                     LineData data, AfterEviction after)
{
    const bool has = dirty ? mb.hasWriteback : mb.hasEviction;
    // The +1 posts now, from this very event, so a flusher that evicts
    // this line and then hops to the accounting home (tile 0) draws a
    // later key on the same stream — its arrival can never overtake the
    // increment.
    eq_.post(0, noc_.hopDelay(),
              [this, id = mb.id]() { ++outstanding_[id].count; });
    auto retire = [this, id = mb.id, engine_tile, line, after]() {
        switch (after) {
          case AfterEviction::Nothing:
            break;
          case AfterEviction::DramWriteback:
            dramWriteback(engine_tile, line);
            break;
          case AfterEviction::WritebackToL3:
            spawn(writebackToL3Task(engine_tile, line));
            break;
        }
        evictionCallbackRetired(id);
    };
    if (has && sink_) {
        sink_->triggerEviction(engine_tile, line, mb, dirty,
                               std::move(data), std::move(retire));
    } else {
        eq_.post(engine_tile, 0, std::move(retire));
    }
}

void
MemorySystem::evictionCallbackRetired(std::uint32_t morph_id)
{
    // All accounting commits at tile 0, one hop out — the
    // same latency the matching increment paid, so a -1 can never land
    // before its +1.
    eq_.post(0, noc_.hopDelay(), [this, morph_id]() {
        auto it = outstanding_.find(morph_id);
        panic_if(it == outstanding_.end() || it->second.count == 0,
                 "eviction callback retired with no record (morph %u)",
                 morph_id);
        if (--it->second.count == 0) {
            for (auto h : it->second.waiters)
                eq_.post(0, 0, [h]() { h.resume(); });
            it->second.waiters.clear();
        }
    });
}

// ---------------------------------------------------------------------
// RMO, flush
// ---------------------------------------------------------------------

Task<>
MemorySystem::remoteAtomicAdd(int tile, Addr addr, std::uint64_t delta)
{
    const MorphBinding *mb = resolve(tile, addr);
    ++*rmoOps_;
    if (spans_) [[unlikely]] {
        tileInstant(trace::Flag::Rmo, "rmo_add", tile,
                    "{\"addr\":\"%#llx\",\"delta\":%llu}",
                    (unsigned long long)addr, (unsigned long long)delta);
    }
    if (!mb || mb->level != MorphLevel::Shared) {
        // No shared Morph: execute as a local atomic through the caches.
        AccessReq r;
        r.cmd = MemCmd::AtomicAdd;
        r.addr = addr;
        r.wdata = delta;
        r.tile = tile;
        co_await access(r);
        co_return;
    }

    const Addr line = lineAlign(addr);
    const int bank = bankOf(line);

    co_await hop(tile, bank, 16);
    // Bound after the hop: the whole read-modify-write below runs at
    // the bank's tile.
    TileState &b = *tiles_[bank];
    co_await b.bankLocks.acquire(line);
    co_await Delay{eq_, params_.l3TagLat};
    energy_.l3Access();

    CacheWay *w3 = b.l3.lookup(line);
    if (prof_) {
        b.l3.noteAccess(line);
        prof_->l3Access(line, w3 != nullptr);
    }
    if (!w3) {
        ++*l3Misses_;
        w3 = co_await allocL3Way(bank, line, mb, false);
        if (mb->phantom) {
            // Phantom miss makes no request down the hierarchy: onMiss
            // initializes the line (e.g., PHI's identity element).
            phantomStore_.zeroLine(line);
            if (mb->hasMiss && sink_) {
                Completion<bool> done(eq_);
                sink_->triggerMiss(bank, line, *mb,
                                   [&done]() { done.complete(true); });
                co_await done;
            }
        } else {
            co_await dramFetch(bank, line);
        }
    } else {
        ++*l3Hits_;
        co_await Delay{eq_, params_.l3DataLat};
        b.l3.touch(*w3, false);
    }

    storeFor(addr).fetchAdd64(addr, delta);
    w3->dirty = true;
    b.bankLocks.release(line);
    // Completion ack travels back so the issuing core's store buffer
    // releases at its own tile.
    co_await hop(bank, tile, 8);
}

Task<>
MemorySystem::flushMorphData(const MorphBinding &binding)
{
    // The flush controller walks the hierarchy; remember where the
    // caller lives so the coroutine finishes back at its tile.
    const int home = EventQueue::ctxTile(0);
    const Addr base = binding.base;
    const std::uint64_t len = binding.length;
    auto in_range = [base, len](Addr a) {
        return a >= base && a < base + len;
    };

    if (binding.level == MorphLevel::Private) {
        co_await eq_.hopTo(binding.tile, noc_.hopDelay());
        TileState &t = *tiles_[binding.tile];
        // Tag-array walk cost (Sec. 4.4): the controller scans its sets.
        co_await Delay{eq_, t.l2.numSets() / 4 + 1};
        std::vector<Addr> lines;
        t.l2.forEachValid([&](CacheWay &w) {
            if (in_range(w.lineAddr))
                lines.push_back(w.lineAddr);
        });
        std::sort(lines.begin(), lines.end());
        for (Addr line : lines) {
            co_await t.tileLocks.acquire(line);
            if (CacheWay *w = t.l2.lookup(line))
                evictL2Way(binding.tile, *w);
            t.tileLocks.release(line);
        }
    } else {
        for (unsigned bank = 0; bank < params_.tiles; ++bank) {
            co_await eq_.hopTo(static_cast<int>(bank), noc_.hopDelay());
            TileState &b = *tiles_[bank];
            co_await Delay{eq_, b.l3.numSets() / 4 + 1};
            std::vector<Addr> lines;
            b.l3.forEachValid([&](CacheWay &w) {
                if (in_range(w.lineAddr))
                    lines.push_back(w.lineAddr);
            });
            std::sort(lines.begin(), lines.end());
            for (Addr line : lines) {
                co_await b.bankLocks.acquire(line);
                if (CacheWay *w = b.l3.lookup(line))
                    co_await evictL3Core(
                        static_cast<int>(bank),
                        snapL3Way(static_cast<int>(bank), *w));
                b.bankLocks.release(line);
            }
        }
        // Private copies of shared-morph lines were back-invalidated by
        // the L3 evictions (inclusion); nothing else to do.
    }

    // Block until every outstanding callback of this Morph retires
    // (flushData blocks the software thread, Sec. 4.4). The accounting
    // is homed at tile 0, so the wait happens there; because this hop
    // draws a later key than every +1 the evictions above posted, the
    // check cannot run before their increments land.
    co_await eq_.hopTo(0, noc_.hopDelay());
    struct OutstandingAwaiter
    {
        MemorySystem &ms;
        std::uint32_t id;

        bool
        await_ready() const noexcept
        {
            auto it = ms.outstanding_.find(id);
            return it == ms.outstanding_.end() || it->second.count == 0;
        }

        void
        await_suspend(std::coroutine_handle<> h)
        {
            ms.outstanding_[id].waiters.push_back(h);
        }

        void await_resume() const noexcept {}
    };
    co_await OutstandingAwaiter{*this, binding.id};
    co_await eq_.hopTo(home, noc_.hopDelay());
}

Task<>
MemorySystem::flushRangePlain(Addr base, std::uint64_t length)
{
    const int home = EventQueue::ctxTile(0);
    auto in_range = [&](Addr a) { return a >= base && a < base + length; };
    // Evict from every L3 bank (back-invalidating private copies) ...
    for (unsigned bank = 0; bank < params_.tiles; ++bank) {
        co_await eq_.hopTo(static_cast<int>(bank), noc_.hopDelay());
        TileState &b = *tiles_[bank];
        std::vector<Addr> lines;
        b.l3.forEachValid([&](CacheWay &w) {
            if (in_range(w.lineAddr))
                lines.push_back(w.lineAddr);
        });
        for (Addr line : lines) {
            co_await b.bankLocks.acquire(line);
            if (CacheWay *w = b.l3.lookup(line))
                co_await evictL3Core(static_cast<int>(bank),
                                     snapL3Way(static_cast<int>(bank), *w));
            b.bankLocks.release(line);
        }
    }
    // ... and any private-only (phantom) lines.
    for (unsigned tile = 0; tile < params_.tiles; ++tile) {
        co_await eq_.hopTo(static_cast<int>(tile), noc_.hopDelay());
        TileState &t = *tiles_[tile];
        std::vector<Addr> lines;
        t.l2.forEachValid([&](CacheWay &w) {
            if (in_range(w.lineAddr))
                lines.push_back(w.lineAddr);
        });
        for (Addr line : lines) {
            co_await t.tileLocks.acquire(line);
            if (CacheWay *w = t.l2.lookup(line))
                evictL2Way(static_cast<int>(tile), *w);
            t.tileLocks.release(line);
        }
    }
    co_await eq_.hopTo(home, noc_.hopDelay());
}

// ---------------------------------------------------------------------
// Functional commit, prefetcher, invariants
// ---------------------------------------------------------------------

std::uint64_t
MemorySystem::doFunctional(const AccessReq &req)
{
    BackingStore &st = storeFor(req.addr);
    const bool is_write = req.cmd != MemCmd::Load;
    std::uint64_t result = 0;
    switch (req.cmd) {
      case MemCmd::Load:
        result = st.read64(req.addr);
        break;
      case MemCmd::Store:
        st.write64(req.addr, req.wdata);
        break;
      case MemCmd::AtomicAdd:
        result = st.fetchAdd64(req.addr, req.wdata);
        break;
      case MemCmd::AtomicSwap:
        result = st.swap64(req.addr, req.wdata);
        break;
    }
    if (is_write) {
        const Addr line = lineAlign(req.addr);
        TileState &t = *tiles_[req.tile];
        CacheArray &mine = req.fromEngine ? t.engL1 : t.l1;
        CacheArray &other = req.fromEngine ? t.l1 : t.engL1;
        if (CacheWay *w1 = mine.lookup(line))
            w1->dirty = true;
        if (CacheWay *w2 = t.l2.lookup(line))
            w2->dirty = true;
        // Intra-tile snoop: the sibling L1's copy is invalidated so it
        // cannot serve stale-timed hits (clustered coherence, Sec. 4.3).
        if (CacheWay *wo = other.lookup(line))
            wo->invalidate();
    }
    return result;
}

void
MemorySystem::maybePrefetch(int tile, Addr miss_line)
{
    if (!params_.prefetchEnable)
        return;
    TileState &t = *tiles_[tile];

    constexpr std::uint64_t regionBytes = 4096;
    const std::uint64_t region = miss_line / regionBytes;

    TileState::Stream *st = t.findStream(region);
    if (!st) {
        // A stream crossing into a fresh region continues its run.
        TileState::Stream *prev =
            t.findStream((miss_line - lineBytes) / regionBytes);
        unsigned run = 0;
        Addr next_issue = 0;
        if (prev && prev->lastLine == miss_line - lineBytes) {
            run = prev->run + 1;
            next_issue = prev->nextIssue;
            t.dropStream(prev);
        }
        if (t.streamCount >= TileState::maxStreams) {
            TileState::Stream *lru = &t.streams[0];
            for (unsigned i = 1; i < t.streamCount; ++i) {
                if (t.streams[i].lastUse < lru->lastUse)
                    lru = &t.streams[i];
            }
            t.dropStream(lru);
        }
        st = &t.streams[t.streamCount++];
        *st = TileState::Stream{};
        st->region = region;
        st->run = run;
        st->nextIssue = next_issue;
    } else if (miss_line == st->lastLine + lineBytes) {
        ++st->run;
    } else if (miss_line != st->lastLine) {
        st->run = 0;
        st->nextIssue = 0;
    }
    st->lastLine = miss_line;
    st->lastUse = ++t.streamClock;
    if (st->run < 2)
        return;

    // Adaptive degree: throttle when prefetched lines die unused.
    if (t.pfDegree == 0)
        t.pfDegree = params_.prefetchDegree;
    if (t.pfIssuedWindow >= 256) {
        const double useful = static_cast<double>(t.pfUsefulWindow) /
                              static_cast<double>(t.pfIssuedWindow);
        if (useful < 0.5)
            t.pfDegree = std::max(1u, t.pfDegree / 2);
        else if (useful > 0.85)
            t.pfDegree =
                std::min(params_.prefetchDegree, t.pfDegree + 1);
        t.pfIssuedWindow = 0;
        t.pfUsefulWindow = 0;
    }

    // Issue only beyond the stream's high-water mark, so a demand miss
    // never re-requests lines the stream already prefetched (they may
    // have been evicted, but re-fetching them wholesale thrashes DRAM).
    const MorphBinding *mb = resolve(tile, miss_line);
    const Addr start = std::max(miss_line + lineBytes, st->nextIssue);
    const Addr end =
        miss_line + std::uint64_t(t.pfDegree) * lineBytes;
    for (Addr cand = start; cand <= end; cand += lineBytes) {
        if (resolve(tile, cand) != mb)
            break; // don't cross morph/range boundaries
        st->nextIssue = cand + lineBytes;
        if (std::find(t.inflightPrefetch.begin(), t.inflightPrefetch.end(),
                      cand) != t.inflightPrefetch.end() ||
            t.l2.lookup(cand))
            continue;
        t.inflightPrefetch.push_back(cand);
        ++*prefetchesIssued_;
        ++t.pfIssuedWindow;
        spawn(prefetchLine(tile, cand));
    }
}

Task<>
MemorySystem::prefetchLine(int tile, Addr line)
{
    AccessReq r;
    r.cmd = MemCmd::Load;
    r.addr = line;
    r.tile = tile;
    r.prefetch = true;
    co_await access(r);
    std::vector<Addr> &inflight = tiles_[tile]->inflightPrefetch;
    auto it = std::find(inflight.begin(), inflight.end(), line);
    if (it != inflight.end()) {
        *it = inflight.back();
        inflight.pop_back();
    }
}

void
MemorySystem::checkInvariants() const
{
    for (unsigned tile = 0; tile < params_.tiles; ++tile) {
        const TileState &t = *tiles_[tile];
        for (const CacheArray *l1 : {&t.l1, &t.engL1}) {
            for (unsigned s = 0; s < l1->numSets(); ++s) {
                for (const CacheWay &w : l1->set(s)) {
                    if (!w.valid)
                        continue;
                    panic_if(!t.l2.lookup(w.lineAddr),
                             "inclusion violation: L1 line %#llx not in "
                             "tile %u L2",
                             (unsigned long long)w.lineAddr, tile);
                }
            }
        }
        // trrîp reserve rule: no set may be entirely morph lines.
        for (unsigned s = 0; s < t.l2.numSets(); ++s) {
            bool ok = false;
            for (const CacheWay &w : t.l2.set(s)) {
                if (!w.valid || !w.morph)
                    ok = true;
            }
            panic_if(!ok, "tile %u L2 set %u is all-morph", tile, s);
        }
        for (unsigned s = 0; s < t.l3.numSets(); ++s) {
            bool ok = false;
            for (const CacheWay &w : t.l3.set(s)) {
                if (!w.valid || !w.morph)
                    ok = true;
            }
            panic_if(!ok, "bank %u L3 set %u is all-morph", tile, s);
        }
    }
}

bool
MemorySystem::cachedInL2(int tile, Addr addr) const
{
    return tiles_[tile]->l2.lookup(lineAlign(addr)) != nullptr;
}

bool
MemorySystem::cachedInL3(Addr addr) const
{
    const Addr line = lineAlign(addr);
    return tiles_[bankOf(line)]->l3.lookup(line) != nullptr;
}

bool
MemorySystem::cachedAnywhere(Addr addr) const
{
    if (cachedInL3(addr))
        return true;
    for (unsigned t = 0; t < params_.tiles; ++t) {
        if (cachedInL2(static_cast<int>(t), addr))
            return true;
    }
    return false;
}

Coh
MemorySystem::l2State(int tile, Addr addr) const
{
    const CacheWay *w = tiles_[tile]->l2.lookup(lineAlign(addr));
    return w ? w->coh : Coh::I;
}

} // namespace tako
