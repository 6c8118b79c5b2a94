/**
 * @file
 * A spawn-and-join parallel loop for pure, independent work.
 *
 * `parallelFor(n, fn)` runs `fn(i)` once for every i in [0, n) on
 * min(hardware threads, 4) workers, the calling thread counting as
 * one of them. Workers take indices from a shared atomic counter, so
 * which worker runs which index is up to the scheduler:
 * `fn` must only write state owned by its index (a result slot) and
 * must not make a decision with a side effect that other indices can
 * observe — fault-site evaluations, warnings, counters whose order
 * matters. Callers run those afterwards, in index order, from the
 * slots (DESIGN.md, "Front half: parallel work, in-order decisions").
 *
 * Every call spawns its threads and joins them before it returns, so
 * no thread outlives the call. A process that forks between calls
 * (perfbench's pass children, the chaos harness) never forks with a
 * worker alive. With n <= 1 or a single hardware thread, `fn` simply
 * runs inline on the caller.
 *
 * An exception thrown by `fn(i)` does not escape its worker: the loop
 * keeps running the other indices, and after the join the exception
 * from the lowest throwing index is rethrown to the caller.
 */
#ifndef HYDRIDE_SUPPORT_PARALLEL_H
#define HYDRIDE_SUPPORT_PARALLEL_H

#include <cstddef>
#include <functional>

namespace hydride {

/** Run `fn(i)` for every i in [0, n), in parallel; see the file
 *  comment for the contract. */
void parallelFor(size_t n, const std::function<void(size_t)> &fn);

} // namespace hydride

#endif // HYDRIDE_SUPPORT_PARALLEL_H
