/**
 * @file
 * Deterministic binary snapshots (checkpoint/restore).
 *
 * A snapshot is a stream of named sections, each protected by its own
 * CRC-32, behind a magic number and a format version that is fatal on
 * mismatch.  Every integer is written little-endian by explicit byte
 * shifts, so a snapshot is bit-identical across hosts and a
 * save -> restore -> save round trip reproduces the original file
 * byte for byte -- the property the checkpoint tests assert.
 *
 * Error handling: any structural problem (bad magic, version skew,
 * unknown or out-of-order section, CRC mismatch, truncation, trailing
 * garbage) raises SnapshotError with a message naming the offending
 * section, the byte offset, and the file:line of the detecting check.
 * Restore never proceeds past a damaged byte: a corrupt snapshot file
 * fails loudly, it does not produce an undefined machine.
 *
 * Layout:
 *
 *   "UPC780CK"            8-byte magic
 *   u32 formatVersion
 *   section*:
 *     u32  nameLen        (0xFFFFFFFF is the trailer sentinel)
 *     byte name[nameLen]
 *     u64  payloadLen
 *     byte payload[payloadLen]
 *     u32  crc32(payload)
 *   trailer:
 *     u32  0xFFFFFFFF
 *     u64  sectionCount
 *
 * Blobs that are mostly zero (physical memory, histogram banks) use a
 * zero-run-length encoding: pairs of (u64 zero-run length, blob of
 * literal bytes), where a literal run ends only at a zero gap of at
 * least 16 bytes or at the end of the blob.  A checkpoint of an 8 MB
 * machine running a paper workload is 1-3 MB.
 */

#ifndef UPC780_SUPPORT_SNAPSHOT_HH
#define UPC780_SUPPORT_SNAPSHOT_HH

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

namespace vax::snap
{

/** Bumped on any incompatible layout change; restore of any other
 *  version is fatal (a half-understood snapshot is worse than none). */
constexpr uint32_t formatVersion = 1;

/** CRC-32 (IEEE 802.3, reflected 0xEDB88320) of a byte range. */
uint32_t crc32(const void *data, size_t len);

/** A structural defect in a snapshot stream.  what() carries the
 *  section name, byte offset and detecting file:line. */
class SnapshotError : public std::runtime_error
{
  public:
    explicit SnapshotError(const std::string &msg)
        : std::runtime_error(msg) {}
};

class Serializer
{
  public:
    Serializer();

    /** Open a named section; sections must not nest. */
    void beginSection(const std::string &name);
    /** Close the open section, patching its length and CRC. */
    void endSection();

    /** @{ Primitive writes (inside an open section). */
    void putU8(uint8_t v);
    void putU16(uint16_t v);
    void putU32(uint32_t v);
    void putU64(uint64_t v);
    void putI64(int64_t v) { putU64(static_cast<uint64_t>(v)); }
    void putBool(bool v) { putU8(v ? 1 : 0); }
    void putDouble(double v);
    void putString(const std::string &s);
    void putBytes(const void *data, size_t len);
    /** Zero-run-length-encoded blob (mostly-zero images). */
    void putBytesRle(const void *data, size_t len);
    void putVecU64(const std::vector<uint64_t> &v);
    /** @} */

    /** Append the trailer and hand the finished image over. */
    std::vector<uint8_t> finish();

    /**
     * finish() and write the image to path atomically: the bytes go
     * to "path.tmp" first and rename into place, so a crash mid-write
     * never leaves a truncated snapshot under the real name.
     * @return False (with warn) on I/O failure.
     */
    bool writeFile(const std::string &path);

  private:
    void raw(const void *data, size_t len);
    /** Append the low n bytes of v, least significant first. */
    void rawLe(uint64_t v, size_t n);

    std::vector<uint8_t> buf_;
    size_t sectionStart_ = 0; ///< payload offset of the open section
    bool inSection_ = false;
    uint64_t sectionCount_ = 0;
    bool finished_ = false;
};

class Deserializer
{
  public:
    /** Parse an in-memory image; verifies magic and version. */
    explicit Deserializer(std::vector<uint8_t> data);

    /** Read a whole snapshot file (SnapshotError on I/O failure). */
    static Deserializer fromFile(const std::string &path);

    /**
     * Open the next section, which must carry exactly this name; the
     * payload CRC is verified before any field is handed out.
     */
    void beginSection(const std::string &name);
    /** Close the section; leftover payload bytes are an error. */
    void endSection();

    /** @{ Primitive reads, bounds-checked against the section. */
    uint8_t getU8();
    uint16_t getU16();
    uint32_t getU32();
    uint64_t getU64();
    int64_t getI64() { return static_cast<int64_t>(getU64()); }
    bool getBool() { return getU8() != 0; }
    double getDouble();
    std::string getString();
    void getBytes(void *out, size_t len);
    /** Counterpart of putBytesRle; len must match the encoded size. */
    void getBytesRle(void *out, size_t len);
    std::vector<uint64_t> getVecU64();
    /** @} */

    /** @{ Configuration-fingerprint checks: read a value and require
     *  it to equal what the restoring machine was built with.  A
     *  mismatch (snapshot from a different config) is a SnapshotError
     *  naming the field and both values. */
    void expectU32(uint32_t expected, const char *field);
    void expectU64(uint64_t expected, const char *field);
    /** @} */

    /** Verify the trailer: section count and end-of-image. */
    void finish();

    /** Name of the open section ("" between sections). */
    const std::string &sectionName() const { return sectionName_; }

  private:
    void need(size_t n, const char *what);
    uint64_t rawU64();
    uint32_t rawU32();

    std::vector<uint8_t> data_;
    size_t pos_ = 0;
    size_t sectionEnd_ = 0;
    bool inSection_ = false;
    uint64_t sectionCount_ = 0;
    std::string sectionName_;
};

} // namespace vax::snap

#endif // UPC780_SUPPORT_SNAPSHOT_HH
