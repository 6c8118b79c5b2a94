#include "support/parallel.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <system_error>
#include <thread>
#include <vector>

namespace hydride {

namespace {

/** Upper bound on the workers of one call: the front half's loops
 *  stop scaling well before it, and a shared host keeps its cores. */
constexpr unsigned kMaxWorkers = 4;

/** min(n, hardware threads, kMaxWorkers), at least 1 (the caller). */
unsigned
parallelWorkers(size_t n)
{
    const unsigned hardware =
        std::max(1u, std::thread::hardware_concurrency());
    const size_t workers =
        std::min<size_t>(n, std::min(hardware, kMaxWorkers));
    return static_cast<unsigned>(std::max<size_t>(workers, 1));
}

} // namespace

void
parallelFor(size_t n, const std::function<void(size_t)> &fn)
{
    std::atomic<size_t> next{0};
    std::mutex error_mutex;
    size_t error_index = n;
    std::exception_ptr error;

    auto work = [&] {
        for (size_t i = next++; i < n; i = next++) {
            try {
                fn(i);
            } catch (...) {
                std::lock_guard<std::mutex> lock(error_mutex);
                if (i < error_index) {
                    error_index = i;
                    error = std::current_exception();
                }
            }
        }
    };

    {
        // A jthread joins when destroyed, so every helper is joined
        // before this scope ends, on every path out of it.
        std::vector<std::jthread> helpers;
        const unsigned workers = parallelWorkers(n);
        helpers.reserve(workers - 1);
        for (unsigned w = 1; w < workers; ++w) {
            try {
                helpers.emplace_back(work);
            } catch (const std::system_error &) {
                // No thread to be had: the workers already running
                // (the caller at least) take the remaining indices.
                break;
            }
        }
        work();
    }
    if (error)
        std::rethrow_exception(error);
}

} // namespace hydride
