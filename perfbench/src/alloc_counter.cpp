#include "alloc_counter.hpp"

#include <cstdlib>
#include <new>

namespace {

thread_local std::uint64_t tAllocations = 0;

void *
allocate(std::size_t size)
{
    ++tAllocations;
    if (void *p = std::malloc(size == 0 ? 1 : size))
        return p;
    throw std::bad_alloc();
}

void *
allocateAligned(std::size_t size, std::align_val_t align)
{
    ++tAllocations;
    const std::size_t a = static_cast<std::size_t>(align);
    const std::size_t rounded = (size + a - 1) / a * a;
    if (void *p = std::aligned_alloc(a, rounded == 0 ? a : rounded))
        return p;
    throw std::bad_alloc();
}

} // namespace

namespace perfbench {

std::uint64_t
threadAllocations()
{
    return tAllocations;
}

} // namespace perfbench

void *operator new(std::size_t size) { return allocate(size); }
void *operator new[](std::size_t size) { return allocate(size); }
void *operator new(std::size_t size, std::align_val_t a) { return allocateAligned(size, a); }
void *operator new[](std::size_t size, std::align_val_t a) { return allocateAligned(size, a); }

void *
operator new(std::size_t size, const std::nothrow_t &) noexcept
{
    ++tAllocations;
    return std::malloc(size == 0 ? 1 : size);
}

void *
operator new[](std::size_t size, const std::nothrow_t &) noexcept
{
    ++tAllocations;
    return std::malloc(size == 0 ? 1 : size);
}

void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }
void operator delete(void *p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void *p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void *p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t, std::align_val_t) noexcept { std::free(p); }
