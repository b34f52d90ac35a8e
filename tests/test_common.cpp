/**
 * @file
 * Unit tests for the common utilities: bit manipulation, elastic queues,
 * latency pipes, stats, and the deterministic RNG.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <utility>

#include "common/bitmanip.h"
#include "common/elastic.h"
#include "common/ring.h"
#include "common/rng.h"
#include "common/small_vec.h"
#include "common/slot_pool.h"
#include "common/stats.h"

using namespace vortex;

TEST(Bitmanip, IsPow2)
{
    EXPECT_FALSE(isPow2(0));
    EXPECT_TRUE(isPow2(1));
    EXPECT_TRUE(isPow2(2));
    EXPECT_FALSE(isPow2(3));
    EXPECT_TRUE(isPow2(1ull << 40));
    EXPECT_FALSE(isPow2((1ull << 40) + 1));
}

TEST(Bitmanip, Log2)
{
    EXPECT_EQ(log2Ceil(1), 0u);
    EXPECT_EQ(log2Ceil(2), 1u);
    EXPECT_EQ(log2Ceil(3), 2u);
    EXPECT_EQ(log2Ceil(1024), 10u);
    EXPECT_EQ(log2Floor(1), 0u);
    EXPECT_EQ(log2Floor(3), 1u);
    EXPECT_EQ(log2Floor(1024), 10u);
    EXPECT_EQ(log2Floor(1025), 10u);
}

TEST(Bitmanip, BitsAndSext)
{
    EXPECT_EQ(bits(0xDEADBEEF, 0, 4), 0xFu);
    EXPECT_EQ(bits(0xDEADBEEF, 28, 4), 0xDu);
    EXPECT_EQ(bits(0xFFFFFFFF, 0, 32), 0xFFFFFFFFu);
    EXPECT_EQ(sext(0xFFF, 12), -1);
    EXPECT_EQ(sext(0x7FF, 12), 2047);
    EXPECT_EQ(sext(0x800, 12), -2048);
    EXPECT_EQ(sext(0x80000000u, 32), INT32_MIN);
}

TEST(Bitmanip, MaskAndAlign)
{
    EXPECT_EQ(maskLow(0), 0u);
    EXPECT_EQ(maskLow(5), 0x1Fu);
    EXPECT_EQ(maskLow(32), 0xFFFFFFFFu);
    EXPECT_EQ(alignUp(0, 64), 0u);
    EXPECT_EQ(alignUp(1, 64), 64u);
    EXPECT_EQ(alignUp(64, 64), 64u);
    EXPECT_TRUE(isAligned(128, 64));
    EXPECT_FALSE(isAligned(130, 64));
}

TEST(Bitmanip, PopcountCtz)
{
    EXPECT_EQ(popcount(0), 0u);
    EXPECT_EQ(popcount(0xF0F0), 8u);
    EXPECT_EQ(ctz(1), 0u);
    EXPECT_EQ(ctz(0x80), 7u);
    EXPECT_EQ(ctz(1ull << 63), 63u);
}

TEST(ElasticQueue, FifoOrderAndCapacity)
{
    ElasticQueue<int> q(2, "t");
    EXPECT_TRUE(q.empty());
    EXPECT_FALSE(q.full());
    q.push(1);
    q.push(2);
    EXPECT_TRUE(q.full());
    EXPECT_EQ(q.size(), 2u);
    EXPECT_EQ(q.pop(), 1);
    EXPECT_FALSE(q.full());
    q.push(3);
    EXPECT_EQ(q.pop(), 2);
    EXPECT_EQ(q.pop(), 3);
    EXPECT_TRUE(q.empty());
}

TEST(ElasticQueue, OverflowUnderflowPanic)
{
    ElasticQueue<int> q(1, "t");
    q.push(1);
    EXPECT_THROW(q.push(2), PanicError);
    q.pop();
    EXPECT_THROW(q.pop(), PanicError);
    EXPECT_THROW(q.front(), PanicError);
}

TEST(ElasticQueue, PushSlotFillsInPlace)
{
    ElasticQueue<int> q(2, "t");
    q.pushSlot() = 5;
    EXPECT_EQ(q.size(), 1u);
    EXPECT_FALSE(q.full());
    q.push(6); // in-place and copy pushes share one FIFO
    EXPECT_EQ(q.size(), 2u);
    EXPECT_TRUE(q.full());
    EXPECT_THROW(q.pushSlot(), PanicError);
    EXPECT_EQ(q.pop(), 5);
    EXPECT_EQ(q.pop(), 6);
    // Two slots, both popped: the ring wraps to the slot 5 left, and
    // hands it back untouched.
    int& slot = q.pushSlot();
    EXPECT_EQ(slot, 5);
    slot = 7;
    EXPECT_EQ(q.size(), 1u);
    EXPECT_EQ(q.front(), 7);
}

TEST(ElasticQueue, ZeroCapacityRejected)
{
    EXPECT_THROW(ElasticQueue<int>(0, "t"), PanicError);
}

TEST(LatencyPipe, FixedLatency)
{
    LatencyPipe<int> pipe(3);
    pipe.enqueueSlot(10) = 7;
    EXPECT_EQ(pipe.readyFront(11), nullptr);
    EXPECT_EQ(pipe.readyFront(12), nullptr);
    ASSERT_NE(pipe.readyFront(13), nullptr);
    EXPECT_EQ(*pipe.readyFront(13), 7);
    pipe.pop();
    EXPECT_TRUE(pipe.empty());
}

TEST(LatencyPipe, PipelinedOnePerCycle)
{
    LatencyPipe<int> pipe(2);
    pipe.enqueueSlot(0) = 1;
    pipe.enqueueSlot(1) = 2;
    pipe.enqueueSlot(2) = 3;
    pipe.enqueueSlot(2) = 4; // several entries may enter in one cycle
    EXPECT_EQ(*pipe.readyFront(2), 1);
    pipe.pop();
    EXPECT_EQ(pipe.readyFront(2), nullptr);
    EXPECT_EQ(*pipe.readyFront(3), 2);
    pipe.pop();
    EXPECT_EQ(*pipe.readyFront(4), 3);
    pipe.pop();
    EXPECT_EQ(*pipe.readyFront(4), 4);
    pipe.pop();
    EXPECT_TRUE(pipe.empty());
}

TEST(Ring, FifoAcrossWrapAndGrowth)
{
    Ring<int> r(2);
    int next = 0, expect = 0;
    // Interleave pushes and pops so the head wraps before the ring has
    // to grow; order survives both.
    for (int round = 0; round < 5; ++round) {
        for (int i = 0; i <= round; ++i)
            r.push_back(next++);
        EXPECT_EQ(r.front(), expect);
        r.pop_front();
        ++expect;
    }
    EXPECT_EQ(r.size(), static_cast<size_t>(next - expect));
    for (size_t i = 0; i < r.size(); ++i)
        EXPECT_EQ(r[i], expect + static_cast<int>(i));
    while (!r.empty()) {
        EXPECT_EQ(r.front(), expect++);
        r.pop_front();
    }
    EXPECT_THROW(r.pop_front(), PanicError);
    r.push_back(7);
    r.clear();
    EXPECT_TRUE(r.empty());
}

TEST(Stats, CountersAndMerge)
{
    StatGroup a("a"), b("b");
    a.counter("x") += 5;
    b.counter("x") += 2;
    b.counter("y") = 1;
    a.add(b);
    EXPECT_EQ(a.get("x"), 7u);
    EXPECT_EQ(a.get("y"), 1u);
    EXPECT_EQ(a.get("missing"), 0u);
}

TEST(Stats, IterationAndPrintingFollowInsertionOrder)
{
    StatGroup g("g");
    g.counter("zeta") = 1;
    g.counter("alpha") = 2;
    g.counter("mid") = 3;
    g.counter("zeta") += 10; // re-touching must not move the counter

    ASSERT_EQ(g.all().size(), 3u);
    EXPECT_EQ(g.all()[0].first, "zeta");
    EXPECT_EQ(g.all()[1].first, "alpha");
    EXPECT_EQ(g.all()[2].first, "mid");
    EXPECT_EQ(g.all()[0].second, 11u);

    std::ostringstream os;
    g.print(os);
    EXPECT_EQ(os.str(), "g.zeta = 11\ng.alpha = 2\ng.mid = 3\n");

    // add() appends counters new to the target in the source's order.
    StatGroup h("h");
    h.counter("beta") = 7;
    h.add(g);
    ASSERT_EQ(h.all().size(), 4u);
    EXPECT_EQ(h.all()[0].first, "beta");
    EXPECT_EQ(h.all()[1].first, "zeta");
}

TEST(Rng, DeterministicAndBounded)
{
    Xorshift a(123), b(123);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
    Xorshift c(5);
    for (int i = 0; i < 1000; ++i) {
        EXPECT_LT(c.nextBounded(17), 17u);
        float f = c.nextFloat();
        EXPECT_GE(f, 0.0f);
        EXPECT_LT(f, 1.0f);
    }
}

//
// SmallVec: the inline-capacity uop/port payload container.
//

TEST(SmallVec, InlineThenSpill)
{
    SmallVec<uint32_t, 4> v;
    EXPECT_TRUE(v.empty());
    EXPECT_EQ(v.capacity(), 4u);
    for (uint32_t i = 0; i < 4; ++i)
        v.push_back(i);
    EXPECT_EQ(v.capacity(), 4u); // still inline
    for (uint32_t i = 4; i < 100; ++i)
        v.push_back(i); // spills to the heap and keeps growing
    ASSERT_EQ(v.size(), 100u);
    for (uint32_t i = 0; i < 100; ++i)
        EXPECT_EQ(v[i], i);
}

TEST(SmallVec, AssignReusesCapacityAcrossClear)
{
    SmallVec<uint32_t, 2> v;
    v.assign(64, 7u); // spilled
    size_t cap = v.capacity();
    EXPECT_GE(cap, 64u);
    v.clear();
    EXPECT_EQ(v.capacity(), cap); // clear() keeps the heap block
    v.assign(cap, 9u);            // refill without growing
    EXPECT_EQ(v.capacity(), cap);
    EXPECT_EQ(v[cap - 1], 9u);
}

TEST(SmallVec, SelfInsertionAtCapacityIsSafe)
{
    // std::vector-legal: push_back of an element of the vector itself,
    // exactly when the push forces a reallocation.
    SmallVec<uint32_t, 2> v;
    v.push_back(11);
    v.push_back(22); // size == capacity == 2
    v.push_back(v[0]);
    ASSERT_EQ(v.size(), 3u);
    EXPECT_EQ(v[2], 11u);
    // And again across a heap-to-heap grow.
    while (v.size() < v.capacity())
        v.push_back(1);
    v.push_back(v.back());
    EXPECT_EQ(v.back(), 1u);
}

TEST(SmallVec, MoveStealsHeapAndMovesInline)
{
    SmallVec<uint32_t, 2> heap;
    heap.assign(32, 5u);
    const uint32_t* data = heap.begin();
    SmallVec<uint32_t, 2> stolen = std::move(heap);
    EXPECT_EQ(stolen.begin(), data); // heap block transferred, not copied
    EXPECT_EQ(stolen.size(), 32u);
    EXPECT_TRUE(heap.empty());
    EXPECT_EQ(heap.capacity(), 2u); // back to inline

    SmallVec<uint32_t, 2> inl;
    inl.push_back(3);
    SmallVec<uint32_t, 2> moved = std::move(inl);
    ASSERT_EQ(moved.size(), 1u);
    EXPECT_EQ(moved[0], 3u);
    EXPECT_TRUE(inl.empty());

    // Copy is independent.
    SmallVec<uint32_t, 2> copy = stolen;
    copy[0] = 99;
    EXPECT_EQ(stolen[0], 5u);
    EXPECT_TRUE(copy == copy);
    EXPECT_FALSE(copy == stolen);
}

//
// SlotPool: generation-tagged in-flight request tracking.
//

TEST(SlotPool, AllocTakeRoundTripAndReuse)
{
    SlotPool<int> pool(1ull << 62, "t");
    uint64_t a = pool.alloc(10);
    uint64_t b = pool.alloc(20);
    EXPECT_NE(a, b);
    EXPECT_EQ(pool.size(), 2u);
    EXPECT_EQ(pool.at(a), 10);
    EXPECT_EQ(pool.take(a), 10);
    EXPECT_EQ(pool.take(b), 20);
    EXPECT_TRUE(pool.empty());
    // The recycled slot comes back under a different (generation-bumped)
    // id, so the old ids stay invalid.
    uint64_t c = pool.alloc(30);
    EXPECT_NE(c, a);
    EXPECT_NE(c, b);
    EXPECT_EQ(pool.take(c), 30);
}

TEST(SlotPool, StaleDuplicateAndForeignIdsPanic)
{
    SlotPool<int> pool(0, "t");
    uint64_t id = pool.alloc(1);
    EXPECT_EQ(pool.take(id), 1);
    EXPECT_THROW(pool.take(id), PanicError); // duplicate completion
    uint64_t id2 = pool.alloc(2);
    EXPECT_THROW(pool.take(id), PanicError);  // stale generation
    EXPECT_THROW(pool.take(id2 | (1ull << 62)), PanicError); // foreign base
    EXPECT_THROW(pool.take(id2 + 1), PanicError); // out-of-range index
    EXPECT_EQ(pool.take(id2), 2);
    EXPECT_THROW(SlotPool<int>(1, "bad"), PanicError); // base too low
}

TEST(SlotPool, ArenaSlotsStayInPlaceAndTheirIdsAreSingleUse)
{
    SlotPool<int> arena(1ull << 62, "t");
    const SlotPool<int>::Handle h = arena.acquire();
    arena[h] = 5;
    const uint64_t fetch = arena.idOf(h);
    // Redeeming a response id keeps the slot live and its payload put...
    EXPECT_EQ(arena.redeem(fetch), h);
    EXPECT_EQ(arena[h], 5);
    EXPECT_EQ(arena.size(), 1u);
    // ...but the id is spent: a duplicate response panics, and so does a
    // foreign one.
    EXPECT_THROW(arena.redeem(fetch), PanicError);
    const uint64_t tex = arena.idOf(h);
    EXPECT_NE(tex, fetch);
    EXPECT_THROW(arena.redeem(tex & ~(1ull << 62)), PanicError);
    EXPECT_EQ(arena.redeem(tex), h);
    // Release frees the slot in place: its ids turn stale, and the next
    // occupant finds the payload its predecessor left.
    const uint64_t last = arena.idOf(h);
    arena.release(h);
    EXPECT_TRUE(arena.empty());
    EXPECT_THROW(arena.redeem(last), PanicError);
    const SlotPool<int>::Handle again = arena.acquire();
    EXPECT_EQ(again, h);
    EXPECT_EQ(arena[again], 5);
    EXPECT_THROW(arena.redeem(last), PanicError);
}

TEST(SlotPool, ClearInvalidatesLiveIds)
{
    SlotPool<int> pool(0, "t");
    uint64_t a = pool.alloc(1);
    (void)pool.alloc(2);
    pool.clear();
    EXPECT_TRUE(pool.empty());
    EXPECT_THROW(pool.take(a), PanicError);
    uint64_t c = pool.alloc(3); // slots are reusable after clear
    EXPECT_EQ(pool.take(c), 3);
}
