/**
 * @file
 * Unit tests for BackingStore, the radix page table holding functional
 * memory: word and line access, sparse allocation at 512-byte pages,
 * the phantom range, and the table's address limit.
 */

#include <gtest/gtest.h>

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

TEST(BackingStore, PagesFollowWrittenLines)
{
    // One word in each of 100 lines, each line in its own 4 KB region:
    // 100 pages of 512 bytes. The 100 pages span two slabs.
    BackingStore st;
    auto lineOf = [](unsigned i) {
        return Addr(i) * 4096 + (i % 8) * lineBytes;
    };
    for (unsigned i = 0; i < 100; ++i)
        st.write64(lineOf(i) + 8, 1000 + i);
    EXPECT_EQ(st.allocatedPages(), 100u);
    // Root plus one node on each level below it, 2048 pointers each.
    EXPECT_EQ(st.footprintBytes(),
              100 * BackingStore::pageBytes + 4 * 2048 * sizeof(void *));

    // Every other line of those 512-byte pages shares its allocation.
    for (unsigned i = 0; i < 100; ++i) {
        const Addr page = lineOf(i) / BackingStore::pageBytes *
                          BackingStore::pageBytes;
        for (Addr a = page; a < page + BackingStore::pageBytes;
             a += lineBytes)
            if (a != lineOf(i))
                st.write64(a, 1);
    }
    EXPECT_EQ(st.allocatedPages(), 100u);
    for (unsigned i = 0; i < 100; ++i) {
        EXPECT_EQ(st.read64(lineOf(i) + 8), 1000 + i);
        EXPECT_EQ(st.read64(lineOf(i)), 0u);
    }

    // The next 512 bytes of a 4 KB region are a page of their own.
    st.write64(lineOf(0) + BackingStore::pageBytes, 7);
    EXPECT_EQ(st.allocatedPages(), 101u);
}
