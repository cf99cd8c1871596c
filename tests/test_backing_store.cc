/**
 * @file
 * Unit tests for BackingStore, the radix page table holding functional
 * memory: word and line access, sparse allocation, the phantom range,
 * the table's address limit, and lock-free lookups racing allocation.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "mem/backing_store.hh"

using namespace tako;

TEST(BackingStore, ReadWriteWordsAndLines)
{
    BackingStore st;
    EXPECT_EQ(st.read64(0x1000), 0u);
    st.write64(0x1000, 42);
    EXPECT_EQ(st.read64(0x1000), 42u);
    EXPECT_EQ(st.fetchAdd64(0x1000, 8), 42u);
    EXPECT_EQ(st.read64(0x1000), 50u);
    EXPECT_EQ(st.swap64(0x1000, 7), 50u);
    EXPECT_EQ(st.read64(0x1000), 7u);

    LineData line;
    for (unsigned i = 0; i < wordsPerLine; ++i)
        line[i] = i * 100;
    st.writeLine(0x2000, line);
    EXPECT_EQ(st.read64(0x2000 + 3 * 8), 300u);
    LineData rd = st.readLine(0x2000);
    EXPECT_EQ(rd, line);
    st.zeroLine(0x2000);
    EXPECT_EQ(st.readLine(0x2000), LineData{});
}

TEST(BackingStore, SparseAllocation)
{
    BackingStore st;
    st.write64(0, 1);
    st.write64(1ull << 40, 2);
    EXPECT_EQ(st.allocatedPages(), 2u);
    EXPECT_EQ(st.read64(1ull << 30), 0u); // untouched page reads zero
    EXPECT_EQ(st.allocatedPages(), 2u);   // reads don't allocate
}

TEST(BackingStore, WordsAndLinesAcrossAPageBoundary)
{
    BackingStore st;
    constexpr Addr boundary = 7 * BackingStore::pageBytes;
    st.write64(boundary - 8, 11);
    st.write64(boundary, 22);
    EXPECT_EQ(st.allocatedPages(), 2u);
    EXPECT_EQ(st.read64(boundary - 8), 11u);
    EXPECT_EQ(st.read64(boundary), 22u);
    // Unaligned addresses resolve to the containing word.
    EXPECT_EQ(st.read64(boundary - 1), 11u);
    EXPECT_EQ(st.read64(boundary + 7), 22u);

    LineData below, above;
    for (unsigned i = 0; i < wordsPerLine; ++i) {
        below[i] = 100 + i;
        above[i] = 200 + i;
    }
    st.writeLine(boundary - lineBytes, below);
    st.writeLine(boundary, above);
    EXPECT_EQ(st.readLine(boundary - lineBytes), below);
    EXPECT_EQ(st.readLine(boundary), above);
    EXPECT_EQ(st.read64(boundary - 8), 107u);
    EXPECT_EQ(st.read64(boundary), 200u);
    EXPECT_EQ(st.allocatedPages(), 2u);
}

TEST(BackingStore, PhantomRangeAddresses)
{
    // Phantom ranges start at 2^46; the table covers up to 2^52.
    BackingStore st;
    const std::vector<Addr> addrs = {
        Addr(1) << 46,
        (Addr(1) << 46) + BackingStore::pageBytes,
        (Addr(1) << 47) + 3 * lineBytes,
        (Addr(1) << 51) | (Addr(1) << 30),
        (Addr(1) << 52) - 8, // last word of the table
    };
    for (std::size_t i = 0; i < addrs.size(); ++i)
        st.write64(addrs[i], 1000 + i);
    for (std::size_t i = 0; i < addrs.size(); ++i)
        EXPECT_EQ(st.read64(addrs[i]), 1000 + i);
    EXPECT_EQ(st.allocatedPages(), addrs.size());
    // The same offsets in real memory are untouched.
    for (const Addr a : addrs)
        EXPECT_EQ(st.read64(a & ((Addr(1) << 46) - 1)), 0u);
    EXPECT_EQ(st.allocatedPages(), addrs.size());
}

TEST(BackingStore, ReadsNeverAllocate)
{
    BackingStore st;
    for (Addr a = 0; a < (Addr(1) << 40); a += Addr(1) << 28) {
        EXPECT_EQ(st.read64(a), 0u);
        EXPECT_EQ(st.readLine(a), LineData{});
    }
    EXPECT_EQ(st.allocatedPages(), 0u);

    // 37 distinct pages, each written twice, then read around.
    for (unsigned p = 0; p < 37; ++p) {
        const Addr base = Addr(p) * 977 * BackingStore::pageBytes;
        st.write64(base, p);
        st.write64(base + BackingStore::pageBytes - 8, p);
        EXPECT_EQ(st.read64(base + BackingStore::pageBytes), 0u);
    }
    EXPECT_EQ(st.allocatedPages(), 37u);
    st.zeroLine(0);
    EXPECT_EQ(st.allocatedPages(), 37u);
}

TEST(BackingStoreDeathTest, AddressBeyondTheTablePanics)
{
    BackingStore st;
    EXPECT_DEATH(st.write64(Addr(1) << 52, 1), "0x10000000000000");
    EXPECT_DEATH(st.read64(~Addr(0) - 7), "0xfffffffffffffff8");
}

TEST(BackingStore, ConcurrentWritersAndReaders)
{
    // Four writers fill disjoint pages that share interior nodes, so
    // node and page publication race each other, while two readers
    // look up a read-only region and the writers' never-written words.
    constexpr unsigned writers = 4;
    constexpr unsigned pagesPerWriter = 96;
    constexpr unsigned wordsWritten = 8;
    constexpr Addr region = Addr(1) << 40;
    constexpr Addr readOnly = Addr(1) << 20;
    constexpr std::uint64_t page = BackingStore::pageBytes;

    auto pageOf = [](unsigned w, unsigned i) {
        // Interleave writers page by page; every 8th page jumps to a
        // fresh interior node.
        const Addr pn = Addr(i) * writers + w;
        return region + (pn % 8 + (pn / 8) * 1024 * 1024) * page;
    };
    auto value = [](unsigned w, unsigned i, unsigned k) {
        return (std::uint64_t(w) << 40) | (std::uint64_t(i) << 8) | k;
    };

    BackingStore st;
    for (unsigned k = 0; k < 64; ++k)
        st.write64(readOnly + k * page, k + 1);

    std::atomic<bool> done{false};
    std::atomic<unsigned> readerErrors{0};
    std::vector<std::thread> threads;
    for (unsigned r = 0; r < 2; ++r) {
        threads.emplace_back([&] {
            do {
                for (unsigned k = 0; k < 64; ++k) {
                    if (st.read64(readOnly + k * page) != k + 1)
                        ++readerErrors;
                }
                for (unsigned w = 0; w < writers; ++w) {
                    for (unsigned i = 0; i < pagesPerWriter; ++i) {
                        if (st.read64(pageOf(w, i) + page - 8) != 0)
                            ++readerErrors;
                    }
                }
            } while (!done.load(std::memory_order_relaxed));
        });
    }
    std::vector<std::thread> writerThreads;
    for (unsigned w = 0; w < writers; ++w) {
        writerThreads.emplace_back([&, w] {
            for (unsigned i = 0; i < pagesPerWriter; ++i)
                for (unsigned k = 0; k < wordsWritten; ++k)
                    st.write64(pageOf(w, i) + 8 * k, value(w, i, k));
        });
    }
    for (std::thread &t : writerThreads)
        t.join();
    done = true;
    for (std::thread &t : threads)
        t.join();

    EXPECT_EQ(readerErrors.load(), 0u);
    EXPECT_EQ(st.allocatedPages(), 64u + writers * pagesPerWriter);
    for (unsigned w = 0; w < writers; ++w)
        for (unsigned i = 0; i < pagesPerWriter; ++i)
            for (unsigned k = 0; k < wordsWritten; ++k)
                ASSERT_EQ(st.read64(pageOf(w, i) + 8 * k), value(w, i, k));
}
