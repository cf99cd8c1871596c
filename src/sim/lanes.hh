/**
 * @file
 * Deterministic ensembles: independent simulations across host threads.
 *
 * Each simulation runs on its own event queue on one thread; what runs
 * concurrently is whole replicas (takosim --replicate), never parts of
 * one run.
 */

#ifndef TAKO_SIM_LANES_HH
#define TAKO_SIM_LANES_HH

#include <functional>
#include <vector>

namespace tako
{

/**
 * Execute independent @p jobs across @p lanes worker threads: lane w
 * runs jobs w, w + lanes, ... in index order. The job -> lane map is a
 * pure function of the indices, so any caller that merges results in
 * job order gets identical output at every lane count. Used for
 * seed-offset replica ensembles (takosim --replicate).
 */
void runLanes(unsigned lanes,
              const std::vector<std::function<void()>> &jobs);

} // namespace tako

#endif // TAKO_SIM_LANES_HH
