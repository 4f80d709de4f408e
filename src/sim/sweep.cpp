#include "sim/sweep.hpp"

#include <cstdlib>

#include "common/parse_uint.hpp"

namespace hpe {

unsigned
resolveJobs(unsigned requested)
{
    if (requested > 0)
        return requested;
    if (const char *env = std::getenv("HPE_JOBS"); env != nullptr && *env != '\0') {
        if (const unsigned v = parseUintOrDie<unsigned>(env, "HPE_JOBS"); v > 0)
            return v;
        // HPE_JOBS=0 means "auto", same as unset.
    }
    return hardwareThreads();
}

} // namespace hpe
