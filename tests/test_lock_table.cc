/**
 * @file
 * Unit tests for LineLockTable: FIFO hand-off through the intrusive
 * waiter list, held()/heldCount() bookkeeping, growth of the
 * open-addressed table with colliding lines and queued waiters, and
 * backward-shift erase under a scrambled release order.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <vector>

#include "mem/lock_table.hh"
#include "sim/task.hh"

using namespace tako;

namespace
{

/** Take @p line, log @p id on acquisition, hold it @p hold ticks. */
Task<>
holder(EventQueue &eq, LineLockTable &table, Addr line, int id, Tick hold,
       std::vector<int> &order)
{
    co_await table.acquire(line);
    order.push_back(id);
    co_await Delay{eq, hold};
    table.release(line);
}

/** Take @p line and keep it (the test releases it). */
Task<>
grab(LineLockTable &table, Addr line, int id, std::vector<int> &order)
{
    co_await table.acquire(line);
    order.push_back(id);
}

/** @p n distinct lines whose hashes share their top 12 bits: they land
 *  on one home slot at every capacity up to 4096. */
std::vector<Addr>
collidingLines(std::size_t n)
{
    std::vector<Addr> lines;
    const std::uint64_t target = LineLockTable::hash(0) >> 52;
    for (Addr line = 0; lines.size() < n; line += lineBytes) {
        if ((LineLockTable::hash(line) >> 52) == target)
            lines.push_back(line);
    }
    return lines;
}

} // namespace

TEST(LineLockTable, HandsOffInFifoOrder)
{
    EventQueue eq;
    LineLockTable table(eq);
    std::vector<int> a, b;
    // Interleave waiters on two lines: each line's FIFO is its own.
    for (int i = 0; i < 5; ++i) {
        spawn(holder(eq, table, 0x1000, i, 10, a));
        spawn(holder(eq, table, 0x2000, 10 + i, 3, b));
    }
    EXPECT_EQ(a, std::vector<int>{0});
    EXPECT_EQ(b, std::vector<int>{10});
    EXPECT_EQ(table.heldCount(), 2u);
    eq.run();
    EXPECT_EQ(a, (std::vector<int>{0, 1, 2, 3, 4}));
    EXPECT_EQ(b, (std::vector<int>{10, 11, 12, 13, 14}));
    EXPECT_EQ(table.heldCount(), 0u);
    // Hand-offs resume at zero delay: the lock is never idle.
    EXPECT_EQ(eq.now(), 50u);
}

TEST(LineLockTable, HeldAndHeldCountFollowAcquireAndRelease)
{
    EventQueue eq;
    LineLockTable table(eq);
    std::vector<int> order;
    EXPECT_FALSE(table.held(0x40));
    EXPECT_EQ(table.heldCount(), 0u);

    spawn(grab(table, 0x40, 0, order));
    spawn(grab(table, 0x80, 1, order));
    EXPECT_TRUE(table.held(0x40));
    EXPECT_TRUE(table.held(0x80));
    EXPECT_FALSE(table.held(0xc0));
    EXPECT_EQ(table.heldCount(), 2u);

    // A waiter does not add a held line.
    spawn(grab(table, 0x80, 2, order));
    EXPECT_EQ(table.heldCount(), 2u);
    EXPECT_EQ(order, (std::vector<int>{0, 1}));

    table.release(0x40);
    EXPECT_FALSE(table.held(0x40));
    EXPECT_EQ(table.heldCount(), 1u);

    // Releasing with a waiter hands the line over: still held.
    table.release(0x80);
    EXPECT_TRUE(table.held(0x80));
    EXPECT_EQ(table.heldCount(), 1u);
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));

    table.release(0x80);
    EXPECT_FALSE(table.held(0x80));
    EXPECT_EQ(table.heldCount(), 0u);
}

TEST(LineLockTable, GrowsPastInitialCapacityWithCollidingLines)
{
    EventQueue eq;
    LineLockTable table(eq);
    std::vector<int> order;
    const std::vector<Addr> colliding = collidingLines(8);

    // Queue a waiter on the first line before the table grows: its
    // node lives in the waiter's frame, so rehashing must not lose it.
    spawn(grab(table, colliding[0], 0, order));
    spawn(grab(table, colliding[0], 1, order));

    std::vector<Addr> lines = colliding;
    for (Addr k = 0; k < 200; ++k)
        lines.push_back((Addr{1} << 40) + k * lineBytes);
    for (std::size_t i = 1; i < lines.size(); ++i)
        spawn(grab(table, lines[i], 2, order));

    EXPECT_GT(table.capacity(), LineLockTable::initialCapacity);
    EXPECT_EQ(table.heldCount(), lines.size());
    for (Addr line : lines)
        EXPECT_TRUE(table.held(line)) << std::hex << line;
    EXPECT_FALSE(table.held(colliding.back() + lineBytes));

    EXPECT_EQ(order.size(), lines.size());
    table.release(colliding[0]);
    eq.run();
    ASSERT_EQ(order.size(), lines.size() + 1);
    EXPECT_EQ(order.back(), 1); // the queued waiter got the line
    EXPECT_TRUE(table.held(colliding[0]));
    EXPECT_EQ(table.heldCount(), lines.size());
}

TEST(LineLockTable, ScrambledReleaseKeepsEveryOtherLineHeld)
{
    EventQueue eq;
    LineLockTable table(eq);
    std::vector<int> order;
    // Colliding lines make long probe runs, so erases shift entries.
    std::vector<Addr> lines = collidingLines(24);
    for (Addr k = 0; k < 40; ++k)
        lines.push_back((Addr{1} << 40) + k * lineBytes);
    for (Addr line : lines)
        spawn(grab(table, line, 0, order));
    ASSERT_EQ(table.heldCount(), lines.size());

    std::vector<Addr> scrambled = lines;
    std::mt19937_64 rng(7);
    std::shuffle(scrambled.begin(), scrambled.end(), rng);
    for (std::size_t r = 0; r < scrambled.size(); ++r) {
        table.release(scrambled[r]);
        EXPECT_EQ(table.heldCount(), scrambled.size() - r - 1);
        for (std::size_t i = 0; i < scrambled.size(); ++i) {
            EXPECT_EQ(table.held(scrambled[i]), i > r)
                << "after releasing " << r + 1 << " lines, line "
                << std::hex << scrambled[i];
        }
    }
    // The emptied table is fully reusable.
    spawn(grab(table, lines[3], 0, order));
    EXPECT_TRUE(table.held(lines[3]));
    EXPECT_EQ(table.heldCount(), 1u);
}

TEST(LineLockTableDeathTest, ReleasingUnheldLinePanics)
{
    EventQueue eq;
    LineLockTable table(eq);
    EXPECT_DEATH(table.release(0x40), "releasing unheld lock");
    std::vector<int> order;
    spawn(grab(table, 0x40, 0, order));
    table.release(0x40);
    EXPECT_DEATH(table.release(0x40), "releasing unheld lock");
}
