/**
 * @file
 * Flat physical memory backing store.
 */

#ifndef UPC780_MEM_PHYS_MEM_HH
#define UPC780_MEM_PHYS_MEM_HH

#include <cstdint>
#include <vector>

#include "arch/types.hh"
#include "support/logging.hh"

namespace vax
{

namespace snap { class Serializer; class Deserializer; }

/**
 * The machine's physical memory.
 *
 * With a write-through cache, memory is always current, so the cache
 * model can be tag-only and all data comes from here.
 *
 * The store is an anonymous private mapping: the kernel hands out
 * zero pages on first touch, so building a machine never writes the
 * pages the guest leaves untouched, and they never become resident.
 */
class PhysicalMemory
{
  public:
    explicit PhysicalMemory(uint32_t size_bytes);
    ~PhysicalMemory();
    PhysicalMemory(const PhysicalMemory &) = delete;
    PhysicalMemory &operator=(const PhysicalMemory &) = delete;

    /** Total size in bytes. */
    uint32_t size() const { return size_; }

    /** @{ Little-endian accessors; out-of-range addresses panic.
     *  The reads are inline: every instruction-buffer fill and data
     *  reference lands here, and a caller passing a constant width
     *  gets the byte loop unrolled away. */
    uint8_t
    readByte(PhysAddr pa) const
    {
        upc_assert(pa < size_);
        return data_[pa];
    }

    uint32_t
    read(PhysAddr pa, unsigned bytes) const
    {
        upc_assert(bytes >= 1 && bytes <= 4);
        upc_assert(static_cast<uint64_t>(pa) + bytes <= size_);
        uint32_t v = 0;
        for (unsigned i = 0; i < bytes; ++i)
            v |= static_cast<uint32_t>(data_[pa + i]) << (8 * i);
        return v;
    }

    void writeByte(PhysAddr pa, uint8_t v);
    void write(PhysAddr pa, uint32_t v, unsigned bytes);
    /** @} */

    /** Bulk-load an image (used by the OS loader). */
    void load(PhysAddr pa, const std::vector<uint8_t> &image);

    /** @{ Checkpoint/restore.  Mostly-zero pages compress well, so
     *  the image is stored run-length encoded. */
    void save(snap::Serializer &s) const;
    void restore(snap::Deserializer &d);
    /** @} */

  private:
    uint8_t *data_ = nullptr;
    uint32_t size_;
};

} // namespace vax

#endif // UPC780_MEM_PHYS_MEM_HH
