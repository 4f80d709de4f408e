/**
 * @file
 * Exact heap-allocation counts.  alloc_counter.cpp replaces the global
 * operator new in each benchmark executable; every call bumps a counter
 * of the calling thread, so a serial section's count is exact and
 * independent of other threads.
 */

#pragma once

#include <cstdint>

namespace perfbench {

/** Allocations made by the calling thread since it started. */
std::uint64_t threadAllocations();

} // namespace perfbench
