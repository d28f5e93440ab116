#ifndef DCBENCH_ANALYTICS_SIMDATA_H_
#define DCBENCH_ANALYTICS_SIMDATA_H_

/**
 * @file
 * Host containers paired with simulated addresses.
 *
 * Every analytics kernel keeps its working data in ordinary host memory
 * (so the algorithm is real and testable) while narrating loads/stores at
 * *simulated* addresses drawn from the workload's AddressSpace, keeping
 * cache behaviour deterministic and independent of host ASLR.
 */

#include <sys/mman.h>

#include <cstddef>
#include <cstdint>
#include <new>
#include <string>
#include <vector>

#include "mem/address_space.h"
#include "util/assert.h"

namespace dcb::analytics {

/**
 * Allocator of SimVec host arrays. Arrays of several MB (HPCC
 * RandomAccess's 64 MB table, STREAM's 24 MB vectors) get a private
 * 2 MB-aligned mapping advised for transparent huge pages before the
 * vector first touches it: the kernels walk them at random or in long
 * streams, and 4 KB pages would spend a host TLB miss on nearly every
 * access. The mapping is the array's own and is unmapped with it, so
 * the advice never reaches heap memory that later holds small
 * allocations. The advice is a hint; where the host declines it,
 * nothing changes.
 */
template <typename T>
struct HostAllocator
{
    using value_type = T;
    static constexpr std::size_t kHugePage = std::size_t{2} << 20;
    static constexpr std::size_t kHugeMinBytes = 2 * kHugePage;
    static constexpr std::size_t kPage = 4096;

    HostAllocator() = default;
    template <typename U>
    HostAllocator(const HostAllocator<U>&) noexcept
    {
    }

    T* allocate(std::size_t n)
    {
        if (n * sizeof(T) < kHugeMinBytes)
            return std::allocator<T>{}.allocate(n);
        // Over-map by one huge page, then trim to an aligned window.
        const std::size_t len = mapped_bytes(n);
        void* raw = mmap(nullptr, len + kHugePage, PROT_READ | PROT_WRITE,
                         MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
        if (raw == MAP_FAILED)
            throw std::bad_alloc();
        const auto base = reinterpret_cast<std::uintptr_t>(raw);
        const std::uintptr_t start =
            (base + kHugePage - 1) & ~std::uintptr_t{kHugePage - 1};
        if (start != base)
            munmap(raw, start - base);
        munmap(reinterpret_cast<void*>(start + len),
               base + kHugePage - start);
        (void)madvise(reinterpret_cast<void*>(start), len, MADV_HUGEPAGE);
        return reinterpret_cast<T*>(start);
    }

    void deallocate(T* p, std::size_t n) noexcept
    {
        if (n * sizeof(T) < kHugeMinBytes)
            std::allocator<T>{}.deallocate(p, n);
        else
            munmap(p, mapped_bytes(n));
    }

    template <typename U>
    bool operator==(const HostAllocator<U>&) const noexcept
    {
        return true;
    }

  private:
    static std::size_t mapped_bytes(std::size_t n)
    {
        return (n * sizeof(T) + kPage - 1) & ~(kPage - 1);
    }
};

/** A std::vector shadowed by a simulated memory region. */
template <typename T>
class SimVec
{
  public:
    using Storage = std::vector<T, HostAllocator<T>>;

    SimVec(mem::AddressSpace& space, std::size_t n, const std::string& name)
        : data_(n), region_(space.alloc(n > 0 ? n * sizeof(T) : sizeof(T),
                                        name))
    {
    }

    SimVec(mem::AddressSpace& space, std::size_t n, const T& init,
           const std::string& name)
        : data_(n, init),
          region_(space.alloc(n > 0 ? n * sizeof(T) : sizeof(T), name))
    {
    }

    T& operator[](std::size_t i) { return data_[i]; }
    const T& operator[](std::size_t i) const { return data_[i]; }

    /** Simulated address of element i. */
    std::uint64_t addr(std::size_t i) const
    {
        return region_.base + i * sizeof(T);
    }

    std::size_t size() const { return data_.size(); }
    Storage& host() { return data_; }
    const Storage& host() const { return data_; }
    const mem::Region& region() const { return region_; }

  private:
    Storage data_;
    mem::Region region_;
};

}  // namespace dcb::analytics

#endif  // DCBENCH_ANALYTICS_SIMDATA_H_
