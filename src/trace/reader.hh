/**
 * @file
 * mmap-backed takotrace-v1 decoder.
 *
 * open() maps the file read-only and walks the chunk directory once,
 * bounds-checking every header against the file size and the header's
 * record/chunk counts — a truncated or corrupt file is rejected before
 * a single record is decoded. A chunk count the file cannot hold (24
 * bytes a chunk header) or a chunk record count its payload cannot
 * hold (two bytes a record) is rejected too, so recordCount() is at
 * most half the file size and safe to size a buffer from. Payload CRCs are verified lazily, when
 * iteration first enters each chunk, so opening a multi-gigabyte trace
 * stays O(chunks).
 *
 * Iteration is strictly forward (`next()`), with `rewind()` to restart;
 * any structural violation mid-stream sets a sticky error and ends
 * iteration. The mapping lives until close()/destruction — records are
 * decoded straight out of the map with no intermediate copy.
 */

#ifndef TAKO_TRACE_READER_HH
#define TAKO_TRACE_READER_HH

#include <string>
#include <vector>

#include "trace/format.hh"

namespace tako::trace
{

class TraceReader
{
  public:
    TraceReader() = default;
    ~TraceReader();

    TraceReader(const TraceReader &) = delete;
    TraceReader &operator=(const TraceReader &) = delete;

    /**
     * Map @p path and validate header + chunk directory. On failure
     * returns false with error() set; the reader is then closed.
     */
    bool open(const std::string &path);

    /** Unmap. Outstanding record pointers are invalid afterwards. */
    void close();

    /**
     * Decode the next record into @p out. Returns false at end-of-trace
     * or on a decode error — distinguish with error().empty().
     */
    bool next(TraceRecord &out);

    /** Restart iteration from the first record. Keeps the mapping. */
    void rewind();

    bool isOpen() const { return data_ != nullptr; }
    const std::string &error() const { return error_; }
    std::uint64_t recordCount() const { return recordCount_; }
    std::uint64_t recordsRead() const { return recordsRead_; }
    bool hasTimestamps() const { return timestamps_; }
    std::uint64_t chunkCount() const { return chunks_.size(); }

  private:
    struct Chunk
    {
        std::size_t payloadOff = 0; ///< byte offset of the payload
        std::uint32_t payloadBytes = 0;
        std::uint32_t records = 0;
        std::uint32_t crc = 0;
        bool crcChecked = false;
    };

    /** Enter chunk @p idx: CRC-check (once) and reset decode state. */
    bool enterChunk(std::size_t idx);
    bool fail(const std::string &msg);

    const std::uint8_t *data_ = nullptr;
    std::size_t size_ = 0;
    bool mapped_ = false;            ///< data_ is an mmap (vs. heap copy)
    std::vector<std::uint8_t> heap_; ///< fallback when mmap fails

    std::string error_;
    std::uint64_t recordCount_ = 0;
    bool timestamps_ = false;
    std::vector<Chunk> chunks_;

    // Cursor.
    std::size_t chunkIdx_ = 0;       ///< current chunk
    const std::uint8_t *cur_ = nullptr;
    const std::uint8_t *chunkEnd_ = nullptr;
    std::uint32_t chunkLeft_ = 0;    ///< records left in current chunk
    std::uint64_t recordsRead_ = 0;

    // Delta context (reset per chunk).
    Addr prevAddr_ = 0;
    std::uint32_t prevSize_ = 8;
    std::uint32_t prevTenant_ = 0;
    std::uint64_t prevTs_ = 0;
};

} // namespace tako::trace

#endif // TAKO_TRACE_READER_HH
