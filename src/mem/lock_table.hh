/**
 * @file
 * Per-line transaction locks with FIFO coroutine waiters.
 *
 * Cache controllers serialize transactions on the same line address by
 * acquiring the line's lock for the duration of the transaction. This is
 * also how the paper's per-address callback locking is realized: "the
 * address that triggered the callback is locked for the duration of
 * callback execution" (Sec. 4.3). Waiters resume through the event queue
 * in FIFO order, keeping the simulation deterministic.
 *
 * Every L1 miss, L3-bank visit and engine callback takes one of these
 * locks, so the table allocates nothing per acquire: held lines live in
 * an open-addressed (linear-probing) table keyed by line address, and
 * waiters form an intrusive FIFO whose nodes are the acquire awaiters
 * themselves — each one lives in its suspended coroutine frame until
 * release() hands it the lock. Erase shifts the probe run back instead
 * of leaving tombstones. The table has no iteration API, so its probe
 * order can never leak into simulated behaviour (takolint D1).
 */

#ifndef TAKO_MEM_LOCK_TABLE_HH
#define TAKO_MEM_LOCK_TABLE_HH

#include <bit>
#include <coroutine>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "sim/event_queue.hh"
#include "sim/logging.hh"
#include "sim/types.hh"

namespace tako
{

class LineLockTable
{
  public:
    /** Slots before the first growth (a power of two). */
    static constexpr std::size_t initialCapacity = 16;

    explicit LineLockTable(EventQueue &eq)
        : eq_(eq), slots_(initialCapacity)
    {
    }

    LineLockTable(const LineLockTable &) = delete;
    LineLockTable &operator=(const LineLockTable &) = delete;

    bool held(Addr line) const { return find(line) != npos; }

    /** Number of currently held locks (deadlock diagnostics). */
    std::size_t heldCount() const { return count_; }

    /** Slot count; grows so that at most half the slots are in use. */
    std::size_t capacity() const { return slots_.size(); }

    /**
     * Fibonacci hash of a line; the table's home slot is its top
     * log2(capacity) bits. Public so tests can build colliding lines.
     */
    static std::uint64_t
    hash(Addr line)
    {
        return lineNumber(line) * 0x9E3779B97F4A7C15ull;
    }

    /**
     * Awaitable returned by acquire(): ready when the line was free
     * (and is now held); otherwise it queues itself — it is the FIFO
     * node — and resumes once release() hands it the lock. Neither
     * copyable nor movable: the table points at it while it waits.
     */
    class Awaiter
    {
      public:
        Awaiter(const Awaiter &) = delete;
        Awaiter &operator=(const Awaiter &) = delete;

        bool await_ready() noexcept { return table_.tryLock(line_); }

        void
        await_suspend(std::coroutine_handle<> h)
        {
            handle_ = h;
            table_.enqueue(line_, this);
        }

        void await_resume() const noexcept {}

      private:
        friend class LineLockTable;

        Awaiter(LineLockTable &table, Addr line) : table_(table), line_(line)
        {
        }

        LineLockTable &table_;
        Addr line_;
        std::coroutine_handle<> handle_;
        Awaiter *next_ = nullptr;
    };

    /** Awaitable: suspends until the line lock is acquired. */
    Awaiter acquire(Addr line) { return Awaiter{*this, line}; }

    /** Release; hands the lock to the oldest waiter if any. */
    void
    release(Addr line)
    {
        const std::size_t i = find(line);
        panic_if(i == npos, "releasing unheld lock %#llx",
                 (unsigned long long)line);
        Slot &s = slots_[i];
        if (!s.head) {
            erase(i);
            return;
        }
        Awaiter *w = s.head;
        s.head = w->next_;
        if (!s.head)
            s.tail = nullptr;
        const std::coroutine_handle<> h = w->handle_;
        // Lock tables are tile-affine: the waiter resumes at the tile
        // the release executes at.
        eq_.schedule(0, [h]() { h.resume(); });
    }

  private:
    static constexpr std::size_t npos = ~std::size_t{0};

    /** A held line and its waiters; line == invalidAddr marks empty. */
    struct Slot
    {
        Addr line = invalidAddr;
        Awaiter *head = nullptr;
        Awaiter *tail = nullptr;
    };

    std::size_t
    home(Addr line) const
    {
        return static_cast<std::size_t>(hash(line) >> shift_);
    }

    std::size_t
    find(Addr line) const
    {
        for (std::size_t i = home(line);; i = (i + 1) & mask_) {
            if (slots_[i].line == line)
                return i;
            if (slots_[i].line == invalidAddr)
                return npos;
        }
    }

    /** Take @p line if free; false when it is already held. */
    bool
    tryLock(Addr line)
    {
        panic_if(line == invalidAddr, "locking the invalid line address");
        std::size_t i = home(line);
        for (; slots_[i].line != invalidAddr; i = (i + 1) & mask_) {
            if (slots_[i].line == line)
                return false;
        }
        slots_[i].line = line;
        if (++count_ * 2 > mask_ + 1)
            grow();
        return true;
    }

    void
    enqueue(Addr line, Awaiter *w)
    {
        Slot &s = slots_[find(line)];
        if (s.tail)
            s.tail->next_ = w;
        else
            s.head = w;
        s.tail = w;
    }

    /** Backward-shift erase: pull later members of the probe run into
     *  the hole whenever their home slot does not lie after it. */
    void
    erase(std::size_t hole)
    {
        for (std::size_t j = (hole + 1) & mask_;
             slots_[j].line != invalidAddr; j = (j + 1) & mask_) {
            const std::size_t k = home(slots_[j].line);
            if (((j - k) & mask_) >= ((j - hole) & mask_)) {
                slots_[hole] = slots_[j];
                hole = j;
            }
        }
        slots_[hole] = Slot{};
        --count_;
    }

    void
    grow()
    {
        const std::vector<Slot> old =
            std::exchange(slots_, std::vector<Slot>(slots_.size() * 2));
        mask_ = slots_.size() - 1;
        --shift_;
        for (const Slot &s : old) {
            if (s.line == invalidAddr)
                continue;
            std::size_t i = home(s.line);
            while (slots_[i].line != invalidAddr)
                i = (i + 1) & mask_;
            slots_[i] = s;
        }
    }

    EventQueue &eq_;
    std::vector<Slot> slots_;
    std::size_t mask_ = initialCapacity - 1;
    std::size_t count_ = 0;
    unsigned shift_ = 64 - std::countr_zero(initialCapacity);
};

} // namespace tako

#endif // TAKO_MEM_LOCK_TABLE_HH
