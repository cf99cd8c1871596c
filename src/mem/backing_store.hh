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
#include <cstring>
#include <memory>
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
 * Functional memory as a four-level radix page table: 512-byte pages
 * (eight lines) under interior nodes of 2048 slots (16 KB each). The
 * 43-bit page number splits 10 + 11 + 11 + 11 bits from the root down,
 * so the table spans 2^52 bytes and a lookup is four loads.
 *
 * Host memory follows the lines a run writes: a page is allocated on
 * its first write, carved from 32 KB slabs of 64 zeroed pages so a
 * page costs no allocator header or owning pointer of its own. Reads
 * of untouched pages return zero and allocate nothing. Nodes and
 * slabs are never freed before the store is.
 *
 * A store belongs to one System, and a System runs on one thread, so
 * the table is not thread-safe.
 */
class BackingStore
{
  public:
    static constexpr std::uint64_t pageBytes = 512;

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
    std::size_t allocatedPages() const { return pages_; }

    /** Host bytes held: allocated pages plus interior nodes, root
     *  included. */
    std::size_t
    footprintBytes() const
    {
        return pages_ * pageBytes + (nodes_.size() + 1) * sizeof(Node);
    }

  private:
    struct Page
    {
        std::array<std::uint64_t, pageBytes / 8> words{};
    };

    /** Pages carved from one slab allocation. */
    static constexpr std::size_t slabPages = 64;
    static constexpr unsigned levelBits = 11;
    static constexpr unsigned levels = 4;
    /** Address bits the table covers: page offset plus four levels,
     *  the root's one bit short. */
    static constexpr unsigned addrBits = 52;
    static constexpr std::uint64_t slotMask = (1u << levelBits) - 1;
    static_assert((pageBytes << (levels * levelBits - 1)) ==
                  std::uint64_t{1} << addrBits);

    /** Interior node: slots hold Node * above the last level and
     *  Page * in it. The root uses only its low 1024 slots. */
    struct Node
    {
        std::array<void *, std::size_t{1} << levelBits> slots{};
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
            n = static_cast<const Node *>(n->slots[slotOf(pn, d)]);
            if (!n)
                return nullptr;
        }
        return static_cast<Page *>(n->slots[slotOf(pn, levels - 1)]);
    }

    /** Page holding @p addr, created on its first write. */
    Page &
    getPage(Addr addr)
    {
        const std::uint64_t pn = pageNumber(addr);
        if (Page *page = findPage(pn))
            return *page;
        return allocPage(pn);
    }

    /** Slow path: create whatever is missing on @p pn 's path. Kept
     *  out of line so the lookup above inlines into every write. */
    [[gnu::noinline]] Page &
    allocPage(std::uint64_t pn)
    {
        Node *n = &root_;
        for (unsigned d = 0; d + 1 < levels; ++d) {
            void *&slot = n->slots[slotOf(pn, d)];
            if (!slot) {
                nodes_.push_back(std::make_unique<Node>());
                slot = nodes_.back().get();
            }
            n = static_cast<Node *>(slot);
        }
        if (pages_ % slabPages == 0)
            slabs_.push_back(std::make_unique<Page[]>(slabPages));
        Page *page = &slabs_.back()[pages_ % slabPages];
        ++pages_;
        n->slots[slotOf(pn, levels - 1)] = page;
        return *page;
    }

    Node root_;
    std::vector<std::unique_ptr<Node>> nodes_;
    std::vector<std::unique_ptr<Page[]>> slabs_;
    std::size_t pages_ = 0; ///< pages carved from slabs_
};

} // namespace tako

#endif // TAKO_MEM_BACKING_STORE_HH
