#include "mem/phys_mem.hh"

#include <sys/mman.h>
#include <unistd.h>

#include <cerrno>
#include <cstdint>
#include <cstring>

#include "support/logging.hh"

namespace vax
{

PhysicalMemory::PhysicalMemory(uint32_t size_bytes)
    : size_(size_bytes)
{
    if (size_ == 0)
        return;
    void *p = mmap(nullptr, size_, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (p == MAP_FAILED)
        fatal("physical memory: cannot map %u bytes: %s", size_,
              std::strerror(errno));
    data_ = static_cast<uint8_t *>(p);
}

PhysicalMemory::~PhysicalMemory()
{
    if (data_)
        munmap(data_, size_);
}

void
PhysicalMemory::writeByte(PhysAddr pa, uint8_t v)
{
    upc_assert(pa < size_);
    data_[pa] = v;
}

void
PhysicalMemory::write(PhysAddr pa, uint32_t v, unsigned bytes)
{
    upc_assert(bytes >= 1 && bytes <= 4);
    upc_assert(static_cast<uint64_t>(pa) + bytes <= size_);
    for (unsigned i = 0; i < bytes; ++i)
        data_[pa + i] = static_cast<uint8_t>(v >> (8 * i));
}

void
PhysicalMemory::load(PhysAddr pa, const std::vector<uint8_t> &image)
{
    upc_assert(static_cast<uint64_t>(pa) + image.size() <= size_);
    if (image.empty())
        return;
#ifdef MADV_POPULATE_WRITE
    // Fault the destination's host pages in with one call instead of
    // one page fault per page.  Only a hint: where the kernel lacks it
    // the copy takes the faults as usual.
    static const uintptr_t hostPage =
        static_cast<uintptr_t>(sysconf(_SC_PAGESIZE));
    uintptr_t lo = reinterpret_cast<uintptr_t>(data_ + pa) & ~(hostPage - 1);
    uintptr_t hi = reinterpret_cast<uintptr_t>(data_ + pa) + image.size();
    madvise(reinterpret_cast<void *>(lo), hi - lo, MADV_POPULATE_WRITE);
#endif
    std::memcpy(data_ + pa, image.data(), image.size());
}

} // namespace vax
