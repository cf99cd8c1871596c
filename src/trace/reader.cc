#include "trace/reader.hh"

#include <cstring>

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

namespace tako::trace
{

namespace
{

std::uint32_t
get32(const std::uint8_t *p)
{
    return static_cast<std::uint32_t>(p[0]) |
           static_cast<std::uint32_t>(p[1]) << 8 |
           static_cast<std::uint32_t>(p[2]) << 16 |
           static_cast<std::uint32_t>(p[3]) << 24;
}

std::uint64_t
get64(const std::uint8_t *p)
{
    return static_cast<std::uint64_t>(get32(p)) |
           static_cast<std::uint64_t>(get32(p + 4)) << 32;
}

} // namespace

TraceReader::~TraceReader()
{
    close();
}

bool
TraceReader::fail(const std::string &msg)
{
    if (error_.empty())
        error_ = "takotrace read: " + msg;
    // End iteration immediately; the mapping stays for error reporting.
    cur_ = chunkEnd_ = nullptr;
    chunkLeft_ = 0;
    chunkIdx_ = chunks_.size();
    return false;
}

bool
TraceReader::open(const std::string &path)
{
    close();
    error_.clear();

    const int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0)
        return fail("cannot open '" + path + "'");
    struct stat st;
    if (::fstat(fd, &st) != 0 || st.st_size < 0) {
        ::close(fd);
        return fail("cannot stat '" + path + "'");
    }
    size_ = static_cast<std::size_t>(st.st_size);
    if (size_ < fileHeaderBytes) {
        ::close(fd);
        return fail("'" + path + "' is shorter than a file header");
    }
    void *map = ::mmap(nullptr, size_, PROT_READ, MAP_PRIVATE, fd, 0);
    if (map != MAP_FAILED) {
        data_ = static_cast<const std::uint8_t *>(map);
        mapped_ = true;
    } else {
        // mmap can fail on exotic filesystems; fall back to a copy.
        heap_.resize(size_);
        std::size_t got = 0;
        while (got < size_) {
            const ssize_t n =
                ::pread(fd, heap_.data() + got, size_ - got,
                        static_cast<off_t>(got));
            if (n <= 0)
                break;
            got += static_cast<std::size_t>(n);
        }
        if (got != size_) {
            ::close(fd);
            heap_.clear();
            return fail("cannot read '" + path + "'");
        }
        data_ = heap_.data();
        mapped_ = false;
    }
    ::close(fd);

    // --- header ---------------------------------------------------------
    if (std::memcmp(data_, traceMagic.data(), traceMagic.size()) != 0) {
        const bool err = fail("'" + path + "': bad magic (not a "
                              "takotrace file)");
        close();
        return err;
    }
    const std::uint32_t version = get32(data_ + 8);
    if (version != traceVersion) {
        const bool err =
            fail("'" + path + "': format version " +
                 std::to_string(version) + " (this build reads v" +
                 std::to_string(traceVersion) + ")");
        close();
        return err;
    }
    const std::uint32_t flags = get32(data_ + 12);
    if (flags & ~flagTimestamps) {
        const bool err = fail("'" + path + "': unknown flag bits 0x" +
                              std::to_string(flags & ~flagTimestamps));
        close();
        return err;
    }
    timestamps_ = flags & flagTimestamps;
    recordCount_ = get64(data_ + 16);
    const std::uint64_t chunkCount = get64(data_ + 24);

    // Every chunk takes at least its header, so the file size bounds
    // the count before anything is sized from it.
    const std::uint64_t maxChunks =
        (size_ - fileHeaderBytes) / chunkHeaderBytes;
    if (chunkCount > maxChunks) {
        const bool err = fail(
            "'" + path + "': truncated or corrupt: header says " +
            std::to_string(chunkCount) + " chunks, but " +
            std::to_string(size_) + " bytes hold at most " +
            std::to_string(maxChunks));
        close();
        return err;
    }

    // --- chunk directory walk (headers only; CRCs checked lazily) -------
    std::size_t off = fileHeaderBytes;
    std::uint64_t records = 0;
    chunks_.reserve(static_cast<std::size_t>(chunkCount));
    for (std::uint64_t i = 0; i < chunkCount; ++i) {
        if (off + chunkHeaderBytes > size_) {
            const bool err = fail(
                "'" + path + "': truncated at chunk " +
                std::to_string(i) + " header (file ends early)");
            close();
            return err;
        }
        const std::uint8_t *h = data_ + off;
        if (get32(h) != chunkMagic) {
            const bool err = fail("'" + path + "': chunk " +
                                  std::to_string(i) + ": bad magic");
            close();
            return err;
        }
        Chunk c;
        c.records = get32(h + 4);
        c.payloadBytes = get32(h + 8);
        c.crc = get32(h + 12);
        const std::uint64_t firstIndex = get64(h + 16);
        c.payloadOff = off + chunkHeaderBytes;
        if (c.records == 0) {
            const bool err = fail("'" + path + "': chunk " +
                                  std::to_string(i) + ": empty chunk");
            close();
            return err;
        }
        if (firstIndex != records) {
            const bool err =
                fail("'" + path + "': chunk " + std::to_string(i) +
                     ": firstIndex " + std::to_string(firstIndex) +
                     " != running count " + std::to_string(records));
            close();
            return err;
        }
        if (c.payloadOff + c.payloadBytes > size_) {
            const bool err = fail(
                "'" + path + "': truncated in chunk " +
                std::to_string(i) + " payload (file ends early)");
            close();
            return err;
        }
        // A record is at least a head byte and a one-byte address delta.
        if (c.records > c.payloadBytes / 2) {
            const bool err =
                fail("'" + path + "': chunk " + std::to_string(i) + ": " +
                     std::to_string(c.records) + " records cannot fit in " +
                     std::to_string(c.payloadBytes) + " payload bytes");
            close();
            return err;
        }
        records += c.records;
        off = c.payloadOff + c.payloadBytes;
        chunks_.push_back(c);
    }
    if (off != size_) {
        const bool err =
            fail("'" + path + "': " + std::to_string(size_ - off) +
                 " trailing bytes after the last chunk");
        close();
        return err;
    }
    if (records != recordCount_) {
        const bool err = fail(
            "'" + path + "': header says " +
            std::to_string(recordCount_) + " records, chunks hold " +
            std::to_string(records) +
            (recordCount_ == 0 ? " (unclosed writer?)" : ""));
        close();
        return err;
    }

    rewind();
    return true;
}

void
TraceReader::close()
{
    if (data_ && mapped_)
        ::munmap(const_cast<std::uint8_t *>(data_), size_);
    data_ = nullptr;
    size_ = 0;
    mapped_ = false;
    heap_.clear();
    heap_.shrink_to_fit();
    chunks_.clear();
    recordCount_ = 0;
    recordsRead_ = 0;
    timestamps_ = false;
    cur_ = chunkEnd_ = nullptr;
    chunkLeft_ = 0;
    chunkIdx_ = 0;
}

void
TraceReader::rewind()
{
    recordsRead_ = 0;
    chunkIdx_ = 0;
    cur_ = chunkEnd_ = nullptr;
    chunkLeft_ = 0;
    if (isOpen() && error_.empty() && !chunks_.empty())
        enterChunk(0);
}

bool
TraceReader::enterChunk(std::size_t idx)
{
    Chunk &c = chunks_[idx];
    if (!c.crcChecked) {
        const std::uint32_t got =
            crc32(data_ + c.payloadOff, c.payloadBytes);
        if (got != c.crc)
            return fail("chunk " + std::to_string(idx) +
                        ": CRC mismatch (stored " +
                        std::to_string(c.crc) + ", computed " +
                        std::to_string(got) + ")");
        c.crcChecked = true;
    }
    chunkIdx_ = idx;
    cur_ = data_ + c.payloadOff;
    chunkEnd_ = cur_ + c.payloadBytes;
    chunkLeft_ = c.records;
    prevAddr_ = 0;
    prevSize_ = 8;
    prevTenant_ = 0;
    prevTs_ = 0;
    return true;
}

bool
TraceReader::next(TraceRecord &out)
{
    while (chunkLeft_ == 0) {
        if (!cur_ || chunkIdx_ + 1 >= chunks_.size()) {
            if (cur_ && chunkIdx_ + 1 >= chunks_.size() &&
                cur_ != chunkEnd_)
                return fail("chunk " + std::to_string(chunkIdx_) +
                            ": trailing payload bytes after the last "
                            "record");
            cur_ = nullptr;
            return false; // clean end (or sticky error already set)
        }
        if (cur_ != chunkEnd_)
            return fail("chunk " + std::to_string(chunkIdx_) +
                        ": trailing payload bytes after the last "
                        "record");
        if (!enterChunk(chunkIdx_ + 1))
            return false;
    }

    const std::uint8_t *p = cur_;
    if (p == chunkEnd_)
        return fail("chunk " + std::to_string(chunkIdx_) +
                    ": payload ends mid-record");
    const std::uint8_t head = *p++;
    if (head & headReserved)
        return fail("chunk " + std::to_string(chunkIdx_) +
                    ": reserved head bits set");
    const unsigned opBits = head & headOpMask;
    if (opBits >= numTraceOps)
        return fail("chunk " + std::to_string(chunkIdx_) +
                    ": invalid op " + std::to_string(opBits));
    if ((head & headHasTs) && !timestamps_)
        return fail("chunk " + std::to_string(chunkIdx_) +
                    ": timestamp on a record of an untimestamped file");

    std::uint64_t v;
    if (!getVarint(p, chunkEnd_, v))
        return fail("chunk " + std::to_string(chunkIdx_) +
                    ": truncated address varint");
    prevAddr_ += static_cast<Addr>(zigzagDecode(v));
    if (head & headHasSize) {
        if (!getVarint(p, chunkEnd_, v) || v == 0 ||
            v > 0xffffffffull)
            return fail("chunk " + std::to_string(chunkIdx_) +
                        ": bad size varint");
        prevSize_ = static_cast<std::uint32_t>(v);
    }
    if (head & headHasTenant) {
        if (!getVarint(p, chunkEnd_, v) || v > 0xffffffffull)
            return fail("chunk " + std::to_string(chunkIdx_) +
                        ": bad tenant varint");
        prevTenant_ = static_cast<std::uint32_t>(v);
    }
    if (head & headHasTs) {
        if (!getVarint(p, chunkEnd_, v))
            return fail("chunk " + std::to_string(chunkIdx_) +
                        ": truncated timestamp varint");
        prevTs_ += v;
    }

    out.addr = prevAddr_;
    out.size = prevSize_;
    out.op = static_cast<TraceOp>(opBits);
    out.tenant = prevTenant_;
    out.ts = timestamps_ ? prevTs_ : 0;
    cur_ = p;
    --chunkLeft_;
    ++recordsRead_;
    return true;
}

} // namespace tako::trace
