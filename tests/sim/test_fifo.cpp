/** @file Unit tests for the bounded flit FIFO. */

#include <gtest/gtest.h>

#include <deque>

#include "sim/fifo.hpp"
#include "sim/rng.hpp"

namespace tpnet {
namespace {

TEST(Fifo, StartsEmpty)
{
    Fifo<int> f(4);
    EXPECT_TRUE(f.empty());
    EXPECT_FALSE(f.full());
    EXPECT_EQ(f.size(), 0u);
    EXPECT_EQ(f.capacity(), 4u);
    EXPECT_EQ(f.freeSlots(), 4u);
}

TEST(Fifo, PushPopOrder)
{
    Fifo<int> f(3);
    f.push(1);
    f.push(2);
    f.push(3);
    EXPECT_TRUE(f.full());
    EXPECT_EQ(f.pop(), 1);
    EXPECT_EQ(f.pop(), 2);
    EXPECT_EQ(f.pop(), 3);
    EXPECT_TRUE(f.empty());
}

TEST(Fifo, WrapsAroundRing)
{
    Fifo<int> f(2);
    for (int i = 0; i < 100; ++i) {
        f.push(i);
        EXPECT_EQ(f.front(), i);
        EXPECT_EQ(f.pop(), i);
    }
    EXPECT_TRUE(f.empty());
}

TEST(Fifo, InterleavedWrap)
{
    Fifo<int> f(3);
    f.push(0);
    f.push(1);
    EXPECT_EQ(f.pop(), 0);
    f.push(2);
    f.push(3);
    EXPECT_TRUE(f.full());
    EXPECT_EQ(f.pop(), 1);
    EXPECT_EQ(f.pop(), 2);
    EXPECT_EQ(f.pop(), 3);
}

TEST(Fifo, FrontIsMutable)
{
    Fifo<int> f(2);
    f.push(7);
    f.front() = 9;
    EXPECT_EQ(f.pop(), 9);
}

TEST(Fifo, AtIndexesBehindHead)
{
    Fifo<int> f(4);
    f.push(10);
    f.push(11);
    f.push(12);
    EXPECT_EQ(f.at(0), 10);
    EXPECT_EQ(f.at(1), 11);
    EXPECT_EQ(f.at(2), 12);
    f.pop();
    EXPECT_EQ(f.at(0), 11);
}

TEST(Fifo, ClearEmpties)
{
    Fifo<int> f(4);
    f.push(1);
    f.push(2);
    f.clear();
    EXPECT_TRUE(f.empty());
    f.push(5);
    EXPECT_EQ(f.front(), 5);
}

TEST(Fifo, ResetChangesCapacity)
{
    Fifo<int> f(2);
    f.push(1);
    f.reset(8);
    EXPECT_TRUE(f.empty());
    EXPECT_EQ(f.capacity(), 8u);
    for (int i = 0; i < 8; ++i)
        f.push(i);
    EXPECT_TRUE(f.full());
}

TEST(FifoDeath, PushIntoFullPanics)
{
    Fifo<int> f(1);
    f.push(1);
    EXPECT_DEATH(f.push(2), "full FIFO");
}

TEST(FifoDeath, PopEmptyPanics)
{
    Fifo<int> f(1);
    EXPECT_DEATH(f.pop(), "empty FIFO");
}

TEST(FifoDeath, AtOutOfRangePanics)
{
    Fifo<int> f(2);
    f.push(1);
    EXPECT_DEATH(f.at(1), "out of range");
}

/**
 * Random push/pop/at/clear streams against a std::deque reference, for
 * every capacity from 1 to twice defaultBufDepth: capacities up to
 * defaultBufDepth run on the inline ring, larger ones on the heap
 * buffer; the stream wraps each ring many times over.
 */
TEST(Fifo, MatchesDequeAcrossTheInlineHeapBoundary)
{
    for (std::size_t cap = 1;
         cap <= static_cast<std::size_t>(2 * defaultBufDepth); ++cap) {
        Fifo<int> f(cap);
        std::deque<int> ref;
        Rng rng(1000 + cap);
        int next = 0;
        for (int step = 0; step < 4000; ++step) {
            const std::uint64_t op = rng.below(16);
            if (op < 7 && ref.size() < cap) {
                f.push(next);
                ref.push_back(next++);
            } else if (op < 14 && !ref.empty()) {
                ASSERT_EQ(f.front(), ref.front()) << "cap " << cap;
                ASSERT_EQ(f.pop(), ref.front()) << "cap " << cap;
                ref.pop_front();
            } else if (op == 14) {
                f.clear();
                ref.clear();
            }
            ASSERT_EQ(f.size(), ref.size()) << "cap " << cap;
            ASSERT_EQ(f.empty(), ref.empty());
            ASSERT_EQ(f.full(), ref.size() == cap);
            ASSERT_EQ(f.freeSlots(), cap - ref.size());
            for (std::size_t i = 0; i < ref.size(); ++i)
                ASSERT_EQ(f.at(i), ref[i]) << "cap " << cap << " i " << i;
        }
        // A copy is independent of its source, inline or heap.
        const Fifo<int> copy = f;
        if (!f.full())
            f.push(-1);
        ASSERT_EQ(copy.size(), ref.size());
        for (std::size_t i = 0; i < ref.size(); ++i)
            EXPECT_EQ(copy.at(i), ref[i]);
    }
}

TEST(Fifo, ResetMovesBetweenInlineAndHeap)
{
    Fifo<int> f(8);
    for (int i = 0; i < 8; ++i)
        f.push(i);
    f.reset(2);
    EXPECT_EQ(f.capacity(), 2u);
    EXPECT_TRUE(f.empty());
    f.push(7);
    f.push(8);
    EXPECT_TRUE(f.full());
    f.reset(6);
    EXPECT_EQ(f.capacity(), 6u);
    for (int i = 0; i < 6; ++i)
        f.push(i);
    for (int i = 0; i < 6; ++i)
        EXPECT_EQ(f.pop(), i);
}

} // namespace
} // namespace tpnet
