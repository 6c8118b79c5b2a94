/**
 * @file
 * Self time per span name and per pipeline layer, from a dump of the
 * trace buffer (`hydride::trace::snapshotSpans()`).
 *
 * A span's self time is its duration minus the part of that interval
 * its direct children cover. Spans on one thread nest strictly, so a
 * child is the next-deeper span that starts inside its parent.
 */
#ifndef PERFBENCH_LAYERS_H
#define PERFBENCH_LAYERS_H

#include <map>
#include <string>
#include <vector>

#include "observability/trace.h"

namespace perfbench {

/** Self milliseconds summed per span name. */
std::map<std::string, double>
selfTimeMs(const std::vector<hydride::trace::SpanRecord> &spans);

/**
 * The repository layer a span name belongs to ("specs", "driver",
 * "synthesis", ...). Spans the benchmark itself opens are named
 * `perfbench.<layer>.<call>`; unknown names map to "other".
 */
std::string layerOf(const std::string &span_name);

} // namespace perfbench

#endif // PERFBENCH_LAYERS_H
