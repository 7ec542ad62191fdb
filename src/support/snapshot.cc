#include "support/snapshot.hh"

#include <algorithm>
#include <array>
#include <bit>
#include <cstdarg>
#include <cstdio>
#include <cstring>

#include "support/iofault.hh"
#include "support/logging.hh"

namespace vax::snap
{

namespace
{

constexpr char magic[8] = {'U', 'P', 'C', '7', '8', '0', 'C', 'K'};
constexpr uint32_t trailerSentinel = 0xFFFFFFFFu;
/** Refuse absurd name/blob lengths before allocating (a corrupt
 *  length field must not become a multi-gigabyte allocation). */
constexpr uint64_t maxNameLen = 4096;

/** Formatted SnapshotError carrying the detecting file:line. */
[[noreturn]] void
failAt(const char *file, int line, const char *fmt, ...)
    __attribute__((format(printf, 3, 4)));

[[noreturn]] void
failAt(const char *file, int line, const char *fmt, ...)
{
    char msg[512];
    va_list ap;
    va_start(ap, fmt);
    std::vsnprintf(msg, sizeof(msg), fmt, ap);
    va_end(ap);
    char full[640];
    std::snprintf(full, sizeof(full), "snapshot: %s [%s:%d]", msg,
                  file, line);
    throw SnapshotError(full);
}

#define SNAP_FAIL(...) failAt(__FILE__, __LINE__, __VA_ARGS__)

/** Size of the last image finished on this thread (capacity hint for
 *  the next Serializer; per thread, so pool workers never share it). */
thread_local size_t lastImageSize = 0;

/** Minimum buffer capacity: every small image fits unmoved. */
constexpr size_t initialCapacity = 64 * 1024;

/** Slice-by-8 tables: crcTables[0] is the bytewise CRC table, and
 *  crcTables[k][b] is the CRC of byte b followed by k zero bytes, so
 *  eight table lookups fold a whole 8-byte word into the CRC.  Built
 *  at compile time: concurrent first saves share no mutable state. */
using CrcTables = std::array<std::array<uint32_t, 256>, 8>;

constexpr CrcTables
makeCrcTables()
{
    CrcTables t{};
    for (uint32_t i = 0; i < 256; ++i) {
        uint32_t c = i;
        for (int k = 0; k < 8; ++k)
            c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
        t[0][i] = c;
    }
    for (size_t k = 1; k < 8; ++k)
        for (uint32_t i = 0; i < 256; ++i)
            t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFF];
    return t;
}

constexpr CrcTables crcTables = makeCrcTables();

uint32_t
loadLe32(const uint8_t *p)
{
    return static_cast<uint32_t>(p[0]) |
           static_cast<uint32_t>(p[1]) << 8 |
           static_cast<uint32_t>(p[2]) << 16 |
           static_cast<uint32_t>(p[3]) << 24;
}

/** Eight bytes as a word whose least significant byte is p[0], so
 *  ctz/8 of a per-byte flag mask is the first flagged byte's index. */
uint64_t
loadLe64(const uint8_t *p)
{
    uint64_t w;
    std::memcpy(&w, p, sizeof(w));
    if constexpr (std::endian::native == std::endian::big)
        w = __builtin_bswap64(w);
    return w;
}

/** End of the zero run starting at i: the first nonzero byte at or
 *  after i, or len. */
size_t
zeroRunEnd(const uint8_t *p, size_t i, size_t len)
{
    for (; i + 8 <= len; i += 8) {
        uint64_t w = loadLe64(p + i);
        if (w != 0)
            return i + std::countr_zero(w) / 8;
    }
    while (i < len && p[i] == 0)
        ++i;
    return i;
}

/**
 * Zero p[i, end), storing only where a byte is not zero already.
 * Restoring into lazily zeroed memory then leaves untouched pages
 * untouched: reading one maps the shared zero page, while a store
 * would give it a private copy.
 */
void
clearDirty(uint8_t *p, size_t i, size_t end)
{
    while ((i = zeroRunEnd(p, i, end)) < end) {
        size_t n = std::min<size_t>(8, end - i);
        std::memset(p + i, 0, n);
        i += n;
    }
}

/**
 * End of the literal run starting at the nonzero byte z: the start of
 * the first zero gap that is at least 16 bytes long or reaches the
 * end of the image (len if there is none).  *gapEnd receives the
 * gap's end, the first nonzero byte after it (or len).
 *
 * A gap of 16 or more zero bytes covers a whole word on any 8-byte
 * grid, so the scan steps a word at a time and only an all-zero word
 * needs a closer look (the gap around it is measured, and skipped if
 * short).  A gap reaching len with no whole zero word in it lies in
 * the final partial word and is found by scanning back from len.
 */
size_t
literalRunEnd(const uint8_t *p, size_t z, size_t len, size_t *gapEnd)
{
    size_t i = z;
    while (i + 8 <= len) {
        if (loadLe64(p + i) != 0) {
            i += 8;
            continue;
        }
        size_t start = i;
        while (start > z && p[start - 1] == 0)
            --start;
        size_t end = zeroRunEnd(p, i + 8, len);
        if (end - start >= 16 || end == len) {
            *gapEnd = end;
            return start;
        }
        i = end;
    }
    size_t start = len;
    while (start > z && p[start - 1] == 0)
        --start;
    *gapEnd = len;
    return start;
}

} // anonymous namespace

uint32_t
crc32(const void *data, size_t len)
{
    const CrcTables &t = crcTables;
    uint32_t c = 0xFFFFFFFFu;
    const uint8_t *p = static_cast<const uint8_t *>(data);
    for (; len >= 8; p += 8, len -= 8) {
        uint32_t lo = c ^ loadLe32(p);
        uint32_t hi = loadLe32(p + 4);
        c = t[7][lo & 0xFF] ^ t[6][(lo >> 8) & 0xFF] ^
            t[5][(lo >> 16) & 0xFF] ^ t[4][lo >> 24] ^
            t[3][hi & 0xFF] ^ t[2][(hi >> 8) & 0xFF] ^
            t[1][(hi >> 16) & 0xFF] ^ t[0][hi >> 24];
    }
    for (; len > 0; ++p, --len)
        c = t[0][(c ^ *p) & 0xFF] ^ (c >> 8);
    return c ^ 0xFFFFFFFFu;
}

// ====================== Serializer ======================

Serializer::Serializer()
{
    // Start with room for the image this thread finished last: the
    // checkpoints of one run are all about the same size, so a save
    // fills one buffer instead of growing through a dozen copies of
    // everything written so far.  Nothing reserves the 8 MB memory
    // image itself, most of which RLE-encodes away.
    buf_.reserve(
        std::max(initialCapacity, lastImageSize + lastImageSize / 8));
    raw(magic, sizeof(magic));
    rawLe(formatVersion, 4);
}

void
Serializer::raw(const void *data, size_t len)
{
    const uint8_t *p = static_cast<const uint8_t *>(data);
    buf_.insert(buf_.end(), p, p + len);
}

void
Serializer::rawLe(uint64_t v, size_t n)
{
    size_t at = buf_.size();
    buf_.resize(at + n);
    uint8_t *p = buf_.data() + at;
    for (size_t i = 0; i < n; ++i)
        p[i] = static_cast<uint8_t>(v >> (8 * i));
}

void
Serializer::beginSection(const std::string &name)
{
    upc_assert(!inSection_ && !finished_);
    rawLe(name.size(), 4);
    raw(name.data(), name.size());
    // Payload length placeholder, patched by endSection().
    rawLe(0, 8);
    sectionStart_ = buf_.size();
    inSection_ = true;
    ++sectionCount_;
}

void
Serializer::endSection()
{
    upc_assert(inSection_);
    uint64_t len = buf_.size() - sectionStart_;
    for (int i = 0; i < 8; ++i)
        buf_[sectionStart_ - 8 + i] =
            static_cast<uint8_t>(len >> (8 * i));
    uint32_t crc = crc32(buf_.data() + sectionStart_, len);
    inSection_ = false;
    rawLe(crc, 4);
}

void
Serializer::putU8(uint8_t v)
{
    upc_assert(inSection_);
    rawLe(v, 1);
}

void
Serializer::putU16(uint16_t v)
{
    upc_assert(inSection_);
    rawLe(v, 2);
}

void
Serializer::putU32(uint32_t v)
{
    upc_assert(inSection_);
    rawLe(v, 4);
}

void
Serializer::putU64(uint64_t v)
{
    upc_assert(inSection_);
    rawLe(v, 8);
}

void
Serializer::putDouble(double v)
{
    uint64_t bits;
    static_assert(sizeof(bits) == sizeof(v));
    std::memcpy(&bits, &v, sizeof(bits));
    putU64(bits);
}

void
Serializer::putString(const std::string &s)
{
    putU64(s.size());
    raw(s.data(), s.size());
}

void
Serializer::putBytes(const void *data, size_t len)
{
    putU64(len);
    raw(data, len);
}

void
Serializer::putBytesRle(const void *data, size_t len)
{
    // Pairs of (zero run, literal run) covering the image in order.
    // A literal run ends only at a worthwhile zero gap (>= 16 bytes)
    // or at the end of the image, so short zero stretches don't
    // fragment the encoding.
    putU64(len);
    const uint8_t *p = static_cast<const uint8_t *>(data);
    size_t i = 0;
    size_t z = zeroRunEnd(p, 0, len);
    while (i < len) {
        size_t gapEnd;
        size_t l = literalRunEnd(p, z, len, &gapEnd);
        putU64(z - i);                  // zero run
        putBytes(p + z, l - z);         // literal run
        i = l;
        z = gapEnd;
    }
}

void
Serializer::putVecU64(const std::vector<uint64_t> &v)
{
    // Encode through the RLE blob path: histogram banks are sparse.
    std::vector<uint8_t> bytes(v.size() * 8);
    for (size_t i = 0; i < v.size(); ++i)
        for (int k = 0; k < 8; ++k)
            bytes[i * 8 + k] = static_cast<uint8_t>(v[i] >> (8 * k));
    putU64(v.size());
    putBytesRle(bytes.data(), bytes.size());
}

std::vector<uint8_t>
Serializer::finish()
{
    upc_assert(!inSection_ && !finished_);
    rawLe(trailerSentinel, 4);
    rawLe(sectionCount_, 8);
    finished_ = true;
    lastImageSize = buf_.size();
    return std::move(buf_);
}

bool
Serializer::writeFile(const std::string &path)
{
    // Durable atomic write (fsync file, rename, fsync dir) through
    // the host-I/O fault layer: a snapshot that "succeeded" must
    // survive power loss, and the chaos drills must be able to make
    // any stage of it fail.  On failure io::lastStatus() tells the
    // caller *how* (the campaign's ENOSPC degraded mode needs that).
    std::vector<uint8_t> image = finish();
    return static_cast<bool>(
        io::atomicWrite(path, image.data(), image.size()));
}

// ====================== Deserializer ======================

Deserializer::Deserializer(std::vector<uint8_t> data)
    : data_(std::move(data))
{
    if (data_.size() < sizeof(magic) + 4)
        SNAP_FAIL("image truncated at %zu bytes (no header)",
                  data_.size());
    if (std::memcmp(data_.data(), magic, sizeof(magic)) != 0)
        SNAP_FAIL("bad magic (not a upc780 snapshot)");
    pos_ = sizeof(magic);
    uint32_t ver = rawU32();
    if (ver != formatVersion)
        SNAP_FAIL("format version %u, this build reads only %u "
                  "(re-run the producing build or discard the file)",
                  ver, formatVersion);
}

Deserializer
Deserializer::fromFile(const std::string &path)
{
    // Size-validated whole-file read through the fault layer: an EIO
    // or short read surfaces as a SnapshotError, which every caller
    // already treats as "this file is damaged" (fail-soft for
    // .result ingestion, restart-from-seed for checkpoints).
    std::vector<uint8_t> bytes;
    io::Status st = io::readFile(path, &bytes);
    if (!st)
        SNAP_FAIL("cannot read '%s' (%s: %s)", path.c_str(), st.stage,
                  std::strerror(st.err));
    return Deserializer(std::move(bytes));
}

void
Deserializer::need(size_t n, const char *what)
{
    size_t limit = inSection_ ? sectionEnd_ : data_.size();
    if (pos_ + n > limit) {
        if (inSection_)
            SNAP_FAIL("section '%s': truncated reading %s at offset "
                      "%zu (%zu of %zu bytes left)",
                      sectionName_.c_str(), what, pos_,
                      limit - pos_, n);
        SNAP_FAIL("truncated reading %s at offset %zu", what, pos_);
    }
}

uint32_t
Deserializer::rawU32()
{
    need(4, "u32");
    uint32_t v = 0;
    for (int i = 0; i < 4; ++i)
        v |= static_cast<uint32_t>(data_[pos_ + i]) << (8 * i);
    pos_ += 4;
    return v;
}

uint64_t
Deserializer::rawU64()
{
    need(8, "u64");
    uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
        v |= static_cast<uint64_t>(data_[pos_ + i]) << (8 * i);
    pos_ += 8;
    return v;
}

void
Deserializer::beginSection(const std::string &name)
{
    upc_assert(!inSection_);
    uint32_t nameLen = rawU32();
    if (nameLen == trailerSentinel)
        SNAP_FAIL("expected section '%s', found the trailer "
                  "(snapshot ends early)", name.c_str());
    if (nameLen > maxNameLen)
        SNAP_FAIL("section name length %u is implausible "
                  "(corrupt header at offset %zu)", nameLen, pos_ - 4);
    need(nameLen, "section name");
    std::string found(reinterpret_cast<const char *>(data_.data()) +
                          pos_,
                      nameLen);
    pos_ += nameLen;
    if (found != name)
        SNAP_FAIL("expected section '%s', found '%s' (layout skew "
                  "or corrupt stream)", name.c_str(), found.c_str());
    uint64_t payloadLen = rawU64();
    if (payloadLen > data_.size() - pos_)
        SNAP_FAIL("section '%s': payload length %llu exceeds the "
                  "remaining %zu bytes (truncated file)",
                  found.c_str(),
                  static_cast<unsigned long long>(payloadLen),
                  data_.size() - pos_);
    if (data_.size() - pos_ - payloadLen < 4)
        SNAP_FAIL("section '%s': missing CRC (truncated file)",
                  found.c_str());
    uint32_t want = 0;
    for (int i = 0; i < 4; ++i)
        want |= static_cast<uint32_t>(
                    data_[pos_ + payloadLen + i])
            << (8 * i);
    uint32_t got = crc32(data_.data() + pos_, payloadLen);
    if (got != want)
        SNAP_FAIL("section '%s': CRC mismatch (stored %08x, "
                  "computed %08x) -- file is corrupt",
                  found.c_str(), want, got);
    sectionName_ = found;
    sectionEnd_ = pos_ + payloadLen;
    inSection_ = true;
    ++sectionCount_;
}

void
Deserializer::endSection()
{
    upc_assert(inSection_);
    if (pos_ != sectionEnd_)
        SNAP_FAIL("section '%s': %zu unread payload bytes (layout "
                  "skew between writer and reader)",
                  sectionName_.c_str(), sectionEnd_ - pos_);
    inSection_ = false;
    sectionName_.clear();
    pos_ += 4; // the verified CRC
}

uint8_t
Deserializer::getU8()
{
    need(1, "u8");
    return data_[pos_++];
}

uint16_t
Deserializer::getU16()
{
    need(2, "u16");
    uint16_t v = static_cast<uint16_t>(
        data_[pos_] | (data_[pos_ + 1] << 8));
    pos_ += 2;
    return v;
}

uint32_t
Deserializer::getU32()
{
    upc_assert(inSection_);
    return rawU32();
}

uint64_t
Deserializer::getU64()
{
    upc_assert(inSection_);
    return rawU64();
}

double
Deserializer::getDouble()
{
    uint64_t bits = getU64();
    double v;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
}

std::string
Deserializer::getString()
{
    uint64_t len = getU64();
    need(len, "string body");
    std::string s(reinterpret_cast<const char *>(data_.data()) + pos_,
                  static_cast<size_t>(len));
    pos_ += len;
    return s;
}

void
Deserializer::getBytes(void *out, size_t len)
{
    uint64_t stored = getU64();
    if (stored != len)
        SNAP_FAIL("section '%s': blob is %llu bytes, expected %zu",
                  sectionName_.c_str(),
                  static_cast<unsigned long long>(stored), len);
    need(len, "blob body");
    std::memcpy(out, data_.data() + pos_, len);
    pos_ += len;
}

void
Deserializer::getBytesRle(void *out, size_t len)
{
    uint64_t total = getU64();
    if (total != len)
        SNAP_FAIL("section '%s': RLE blob decodes to %llu bytes, "
                  "expected %zu", sectionName_.c_str(),
                  static_cast<unsigned long long>(total), len);
    uint8_t *p = static_cast<uint8_t *>(out);
    size_t i = 0;
    while (i < len) {
        uint64_t zeros = getU64();
        if (zeros > len - i)
            SNAP_FAIL("section '%s': RLE zero run of %llu overflows "
                      "the %zu-byte image", sectionName_.c_str(),
                      static_cast<unsigned long long>(zeros), len);
        clearDirty(p, i, i + static_cast<size_t>(zeros));
        i += static_cast<size_t>(zeros);
        uint64_t lit = getU64();
        if (lit > len - i)
            SNAP_FAIL("section '%s': RLE literal run of %llu "
                      "overflows the %zu-byte image",
                      sectionName_.c_str(),
                      static_cast<unsigned long long>(lit), len);
        need(lit, "RLE literal run");
        std::memcpy(p + i, data_.data() + pos_,
                    static_cast<size_t>(lit));
        pos_ += lit;
        i += static_cast<size_t>(lit);
        if (zeros == 0 && lit == 0 && i < len)
            SNAP_FAIL("section '%s': empty RLE pair at offset %zu "
                      "(corrupt stream would loop forever)",
                      sectionName_.c_str(), pos_);
    }
}

std::vector<uint64_t>
Deserializer::getVecU64()
{
    uint64_t count = getU64();
    // The RLE body can be far smaller than count * 8, so bound the
    // allocation independently of the remaining byte count.
    if (count > (1u << 28))
        SNAP_FAIL("section '%s': vector count %llu is implausible "
                  "(corrupt length field)", sectionName_.c_str(),
                  static_cast<unsigned long long>(count));
    std::vector<uint8_t> bytes(static_cast<size_t>(count) * 8);
    getBytesRle(bytes.data(), bytes.size());
    std::vector<uint64_t> v(static_cast<size_t>(count));
    for (size_t i = 0; i < v.size(); ++i) {
        uint64_t x = 0;
        for (int k = 0; k < 8; ++k)
            x |= static_cast<uint64_t>(bytes[i * 8 + k]) << (8 * k);
        v[i] = x;
    }
    return v;
}

void
Deserializer::expectU32(uint32_t expected, const char *field)
{
    uint32_t got = getU32();
    if (got != expected)
        SNAP_FAIL("section '%s': %s is %u in the snapshot but %u in "
                  "this machine (snapshot from a different "
                  "configuration)", sectionName_.c_str(), field, got,
                  expected);
}

void
Deserializer::expectU64(uint64_t expected, const char *field)
{
    uint64_t got = getU64();
    if (got != expected)
        SNAP_FAIL("section '%s': %s is %llu in the snapshot but %llu "
                  "in this machine (snapshot from a different "
                  "configuration)", sectionName_.c_str(), field,
                  static_cast<unsigned long long>(got),
                  static_cast<unsigned long long>(expected));
}

void
Deserializer::finish()
{
    upc_assert(!inSection_);
    uint32_t sentinel = rawU32();
    if (sentinel != trailerSentinel)
        SNAP_FAIL("expected the trailer at offset %zu, found another "
                  "section (reader stopped early?)", pos_ - 4);
    uint64_t count = rawU64();
    if (count != sectionCount_)
        SNAP_FAIL("trailer says %llu sections, read %llu",
                  static_cast<unsigned long long>(count),
                  static_cast<unsigned long long>(sectionCount_));
    if (pos_ != data_.size())
        SNAP_FAIL("%zu trailing bytes after the trailer",
                  data_.size() - pos_);
}

} // namespace vax::snap
