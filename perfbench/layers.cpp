#include "layers.h"

#include <algorithm>
#include <map>
#include <utility>

namespace perfbench {

using hydride::trace::SpanRecord;

std::map<std::string, double>
selfTimeMs(const std::vector<SpanRecord> &spans)
{
    std::vector<const SpanRecord *> order;
    order.reserve(spans.size());
    for (const auto &span : spans)
        order.push_back(&span);
    // Parents start no later than their children; on a tie the
    // shallower span is the parent.
    std::sort(order.begin(), order.end(),
              [](const SpanRecord *a, const SpanRecord *b) {
                  if (a->thread_id != b->thread_id)
                      return a->thread_id < b->thread_id;
                  if (a->start_ns != b->start_ns)
                      return a->start_ns < b->start_ns;
                  return a->depth < b->depth;
              });

    std::vector<double> self_ns(order.size());
    // open[d]: index (into order) of the latest span at depth d on
    // the current thread.
    std::vector<long> open;
    uint64_t thread = 0;
    for (size_t i = 0; i < order.size(); ++i) {
        const SpanRecord &span = *order[i];
        if (i == 0 || span.thread_id != thread) {
            open.clear();
            thread = span.thread_id;
        }
        self_ns[i] = static_cast<double>(span.duration_ns);
        const size_t depth = static_cast<size_t>(std::max(span.depth, 0));
        if (depth > 0 && depth - 1 < open.size() && open[depth - 1] >= 0) {
            const SpanRecord &parent = *order[open[depth - 1]];
            if (span.start_ns >= parent.start_ns &&
                span.start_ns <= parent.start_ns + parent.duration_ns)
                self_ns[open[depth - 1]] -=
                    static_cast<double>(span.duration_ns);
        }
        if (open.size() <= depth)
            open.resize(depth + 1, -1);
        open[depth] = static_cast<long>(i);
        open.resize(depth + 1); // Deeper entries belong to a closed span.
    }

    std::map<std::string, double> out;
    for (size_t i = 0; i < order.size(); ++i)
        out[order[i]->name] += self_ns[i] / 1e6;
    return out;
}

std::string
layerOf(const std::string &span_name)
{
    static const std::vector<std::pair<std::string, std::string>> kPrefixes =
        {
            {"specs.", "specs"},
            {"similarity.", "similarity"},
            {"autollvm.", "autollvm"},
            {"driver.", "driver"},
            {"synthesis.", "synthesis"},
            {"symbolic.", "symbolic"},
            {"codegen.", "codegen"},
        };
    if (span_name.rfind("perfbench.", 0) == 0) {
        const size_t begin = sizeof("perfbench.") - 1;
        const size_t end = span_name.find('.', begin);
        return span_name.substr(begin, end == std::string::npos
                                           ? std::string::npos
                                           : end - begin);
    }
    for (const auto &[prefix, layer] : kPrefixes) {
        if (span_name.rfind(prefix, 0) == 0)
            return layer;
    }
    return "other";
}

} // namespace perfbench
