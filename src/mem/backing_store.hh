/**
 * @file
 * Sparse functional memory.
 *
 * tako-sim splits functional state from timing state (see DESIGN.md):
 * caches simulate tags, coherence, and latency, while data values live in
 * BackingStore instances mutated at event-commit times. There are two
 * stores per system: one for real (memory-backed) addresses and one for
 * phantom ranges, whose lines semantically exist only while cached.
 */

#ifndef TAKO_MEM_BACKING_STORE_HH
#define TAKO_MEM_BACKING_STORE_HH

#include <array>
#include <atomic>
#include <cstring>
#include <memory>
#include <mutex>
#include <vector>

#include "sim/logging.hh"
#include "sim/types.hh"

namespace tako
{

/** Data contents of one 64B cache line, as eight 64-bit words. */
struct LineData
{
    std::array<std::uint64_t, wordsPerLine> words{};

    std::uint64_t &operator[](std::size_t i) { return words[i]; }
    std::uint64_t operator[](std::size_t i) const { return words[i]; }

    bool
    operator==(const LineData &o) const
    {
        return words == o.words;
    }
};

/**
 * Functional memory as a four-level radix page table: 4 KB pages under
 * interior nodes of 1024 atomic slots (8 KB each), indexed by the page
 * number ten bits per level, so the table spans 2^52 bytes.
 *
 * Lookups are lock-free acquire loads, so concurrent readers never
 * contend on the common path. Interior nodes and
 * pages are created under one mutex, double-checked, and published with
 * a release store; they are never freed, so a pointer once loaded
 * cannot dangle. Word accesses go through the page pointer unguarded,
 * which is safe because coherence serializes every same-line access
 * (one M/E owner at a time) and distinct words never alias. Reads of
 * untouched pages return zero and allocate nothing.
 */
class BackingStore
{
  public:
    static constexpr std::uint64_t pageBytes = 4096;

    /** Read the aligned 64-bit word containing @p addr. */
    std::uint64_t
    read64(Addr addr) const
    {
        const Page *page = findPage(pageNumber(addr));
        if (!page)
            return 0;
        return page->words[wordIndex(addr)];
    }

    /** Write the aligned 64-bit word containing @p addr. */
    void
    write64(Addr addr, std::uint64_t value)
    {
        getPage(addr).words[wordIndex(addr)] = value;
    }

    /** Atomic read-modify-write add; returns the previous value. */
    std::uint64_t
    fetchAdd64(Addr addr, std::uint64_t delta)
    {
        std::uint64_t &w = getPage(addr).words[wordIndex(addr)];
        const std::uint64_t old = w;
        w += delta;
        return old;
    }

    /** Atomic swap; returns the previous value. */
    std::uint64_t
    swap64(Addr addr, std::uint64_t value)
    {
        std::uint64_t &w = getPage(addr).words[wordIndex(addr)];
        const std::uint64_t old = w;
        w = value;
        return old;
    }

    /** Copy a full line out. @p addr must be line-aligned. */
    LineData
    readLine(Addr addr) const
    {
        panic_if(lineOffset(addr) != 0, "readLine: unaligned %#llx",
                 (unsigned long long)addr);
        LineData out;
        const Page *page = findPage(pageNumber(addr));
        if (page) {
            std::memcpy(out.words.data(), &page->words[wordIndex(addr)],
                        lineBytes);
        }
        return out;
    }

    /** Copy a full line in. @p addr must be line-aligned. */
    void
    writeLine(Addr addr, const LineData &data)
    {
        panic_if(lineOffset(addr) != 0, "writeLine: unaligned %#llx",
                 (unsigned long long)addr);
        Page &page = getPage(addr);
        std::memcpy(&page.words[wordIndex(addr)], data.words.data(),
                    lineBytes);
    }

    /** Zero a full line. */
    void
    zeroLine(Addr addr)
    {
        writeLine(addr, LineData{});
    }

    /** Number of allocated pages (for tests and footprint checks). */
    std::size_t
    allocatedPages() const
    {
        std::lock_guard<std::mutex> g(growMu_);
        return pages_.size();
    }

  private:
    struct Page
    {
        std::array<std::uint64_t, pageBytes / 8> words{};
    };

    static constexpr unsigned levelBits = 10;
    static constexpr unsigned levels = 4;
    /** Address bits the table covers: page offset plus four levels. */
    static constexpr unsigned addrBits = 52;
    static constexpr std::uint64_t slotMask = (1u << levelBits) - 1;
    static_assert((pageBytes << (levels * levelBits)) ==
                  std::uint64_t{1} << addrBits);

    /** Interior node: slots hold Node * above the last level and
     *  Page * in it. */
    struct Node
    {
        std::array<std::atomic<void *>, std::size_t{1} << levelBits>
            slots{};
    };

    static std::size_t
    wordIndex(Addr addr)
    {
        return (addr % pageBytes) / 8;
    }

    /** Page number of @p addr; panics beyond the table's range. */
    static std::uint64_t
    pageNumber(Addr addr)
    {
        panic_if(addr >> addrBits != 0,
                 "BackingStore: address %#llx is beyond the 2^%u-byte "
                 "functional memory",
                 (unsigned long long)addr, addrBits);
        return addr / pageBytes;
    }

    /** Slot of page number @p pn in a node at depth @p depth (0 is the
     *  root). */
    static std::size_t
    slotOf(std::uint64_t pn, unsigned depth)
    {
        return (pn >> (levelBits * (levels - 1 - depth))) & slotMask;
    }

    /** Page holding @p pn, or null when it was never written. */
    Page *
    findPage(std::uint64_t pn) const
    {
        const Node *n = &root_;
        for (unsigned d = 0; d + 1 < levels; ++d) {
            n = static_cast<const Node *>(
                n->slots[slotOf(pn, d)].load(std::memory_order_acquire));
            if (!n)
                return nullptr;
        }
        return static_cast<Page *>(n->slots[slotOf(pn, levels - 1)].load(
            std::memory_order_acquire));
    }

    Page &
    getPage(Addr addr)
    {
        const std::uint64_t pn = pageNumber(addr);
        if (Page *page = findPage(pn))
            return *page;
        return allocPage(pn);
    }

    /** Slow path: create whatever is missing on @p pn 's path. */
    Page &
    allocPage(std::uint64_t pn)
    {
        std::lock_guard<std::mutex> g(growMu_);
        Node *n = &root_;
        for (unsigned d = 0; d + 1 < levels; ++d) {
            std::atomic<void *> &slot = n->slots[slotOf(pn, d)];
            void *next = slot.load(std::memory_order_acquire);
            if (!next) {
                nodes_.push_back(std::make_unique<Node>());
                next = nodes_.back().get();
                slot.store(next, std::memory_order_release);
            }
            n = static_cast<Node *>(next);
        }
        std::atomic<void *> &slot = n->slots[slotOf(pn, levels - 1)];
        if (void *page = slot.load(std::memory_order_acquire))
            return *static_cast<Page *>(page);
        pages_.push_back(std::make_unique<Page>());
        Page *page = pages_.back().get();
        slot.store(page, std::memory_order_release);
        return *page;
    }

    Node root_;
    mutable std::mutex growMu_; ///< guards nodes_, pages_ and publication
    std::vector<std::unique_ptr<Node>> nodes_;
    std::vector<std::unique_ptr<Page>> pages_;
};

} // namespace tako

#endif // TAKO_MEM_BACKING_STORE_HH
