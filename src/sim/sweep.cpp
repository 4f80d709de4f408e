#include "sim/sweep.hpp"

#include <cstdlib>

#include "common/log.hpp"

namespace hpe {

unsigned
resolveJobs(unsigned requested)
{
    if (requested > 0)
        return requested;
    if (const char *env = std::getenv("HPE_JOBS"); env != nullptr && *env != '\0') {
        char *end = nullptr;
        const unsigned long v = std::strtoul(env, &end, 10);
        if (end == env || *end != '\0')
            fatal("HPE_JOBS must be a non-negative integer, got '{}'", env);
        if (v > 0)
            return static_cast<unsigned>(v);
        // HPE_JOBS=0 means "auto", same as unset.
    }
    return ThreadPool::hardwareThreads();
}

} // namespace hpe
