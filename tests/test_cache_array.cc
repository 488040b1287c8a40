/**
 * @file
 * Unit tests for the set-associative cache array.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <vector>

#include "mem/cache_array.hh"
#include "sim/logging.hh"
#include "sim/random.hh"

namespace tb {
namespace {

using mem::CacheArray;
using mem::CacheGeometry;
using mem::LineState;

CacheGeometry
tiny()
{
    // 4 sets x 2 ways x 64B lines.
    return CacheGeometry{512, 2, 64};
}

TEST(CacheArray, GeometryDerivesSets)
{
    CacheArray c(tiny());
    EXPECT_EQ(c.geometry().numSets(), 4u);
}

TEST(CacheArray, MissOnEmpty)
{
    CacheArray c(tiny());
    EXPECT_EQ(c.find(0x1000), nullptr);
    EXPECT_EQ(c.validCount(), 0u);
}

TEST(CacheArray, InsertThenHit)
{
    CacheArray c(tiny());
    auto victim = c.insert(0x1000, LineState::Shared);
    EXPECT_FALSE(victim.valid);
    CacheArray::Line* l = c.find(0x1000);
    ASSERT_NE(l, nullptr);
    EXPECT_EQ(l->state(), LineState::Shared);
    EXPECT_EQ(c.validCount(), 1u);
}

TEST(CacheArray, LruEvictionWithinSet)
{
    CacheArray c(tiny());
    // Lines mapping to set 0: line addr multiples of 4*64=256.
    c.insert(0x0000, LineState::Shared);
    c.insert(0x0100, LineState::Modified);
    // Touch the first so the second becomes LRU.
    c.touch(*c.find(0x0000));
    auto victim = c.insert(0x0200, LineState::Exclusive);
    ASSERT_TRUE(victim.valid);
    EXPECT_EQ(victim.addr, 0x0100u);
    EXPECT_EQ(victim.state, LineState::Modified);
    EXPECT_NE(c.find(0x0000), nullptr);
    EXPECT_EQ(c.find(0x0100), nullptr);
    EXPECT_NE(c.find(0x0200), nullptr);
}

TEST(CacheArray, DifferentSetsDoNotConflict)
{
    CacheArray c(tiny());
    for (Addr a = 0; a < 8 * 64; a += 64)
        c.insert(a, LineState::Shared); // 2 per set across 4 sets
    EXPECT_EQ(c.validCount(), 8u);
}

TEST(CacheArray, InvalidateRemovesLine)
{
    CacheArray c(tiny());
    c.insert(0x40, LineState::Exclusive);
    EXPECT_TRUE(c.invalidate(0x40));
    EXPECT_EQ(c.find(0x40), nullptr);
    EXPECT_FALSE(c.invalidate(0x40));
}

TEST(CacheArray, InvalidWayReusedBeforeEviction)
{
    CacheArray c(tiny());
    c.insert(0x0000, LineState::Shared);
    c.insert(0x0100, LineState::Shared);
    c.invalidate(0x0000);
    auto victim = c.insert(0x0200, LineState::Shared);
    EXPECT_FALSE(victim.valid);
    EXPECT_NE(c.find(0x0100), nullptr);
}

TEST(CacheArray, ModifiedIndexMatchesScan)
{
    // 32 sets x 3 ways: 96 lines, so the index spans a full and a
    // partial word. A pool of 4x the capacity forces LRU evictions.
    CacheArray c(CacheGeometry{32 * 3 * 64, 3, 64});
    std::vector<Addr> pool;
    for (Addr a = 0; a < 384 * 64; a += 64)
        pool.push_back(a);
    const LineState valid[] = {LineState::Shared, LineState::Exclusive,
                               LineState::Modified};
    Random rng(27);
    unsigned evictions = 0, maxDirty = 0;
    for (unsigned step = 0; step < 5000; ++step) {
        const Addr a = pool[rng.uniformInt(pool.size())];
        const LineState st = valid[rng.uniformInt(3)];
        if (CacheArray::Line* l = c.find(a)) {
            if (rng.uniformInt(4) == 0)
                c.invalidate(a);
            else
                c.setState(*l, st);
        } else if (c.insert(a, st).valid) {
            ++evictions;
        }

        // Reference: every Modified line, found by a full scan of the
        // pool, in array (pointer) order.
        std::vector<const CacheArray::Line*> expect;
        for (Addr p : pool) {
            const CacheArray::Line* l = c.find(p);
            if (l && l->state() == LineState::Modified)
                expect.push_back(l);
        }
        std::sort(expect.begin(), expect.end(),
                  std::less<const CacheArray::Line*>());
        std::vector<const CacheArray::Line*> got;
        c.forEachModified(
            [&](const CacheArray::Line& l) { got.push_back(&l); });
        ASSERT_EQ(got, expect) << "step " << step;
        maxDirty = std::max<unsigned>(maxDirty, got.size());
    }
    EXPECT_GT(evictions, 1000u);
    EXPECT_GT(maxDirty, 24u);
}

TEST(CacheArray, DoubleInsertPanics)
{
    CacheArray c(tiny());
    c.insert(0x40, LineState::Shared);
    EXPECT_THROW(c.insert(0x40, LineState::Shared), PanicError);
}

TEST(CacheArray, InsertInvalidStatePanics)
{
    CacheArray c(tiny());
    EXPECT_THROW(c.insert(0x40, LineState::Invalid), PanicError);
}

TEST(CacheArray, RejectsBadGeometry)
{
    EXPECT_THROW(CacheArray(CacheGeometry{512, 0, 64}), FatalError);
    EXPECT_THROW(CacheArray(CacheGeometry{512, 2, 48}), FatalError);
    EXPECT_THROW(CacheArray(CacheGeometry{500, 2, 64}), FatalError);
    // 3 sets: not a power of two (768 = 3*2*128... use lineBytes 128)
    EXPECT_THROW(CacheArray(CacheGeometry{768, 2, 128}), FatalError);
}

TEST(CacheArray, PaperGeometriesConstruct)
{
    CacheArray l1(CacheGeometry{16 * 1024, 2, 64});
    CacheArray l2(CacheGeometry{64 * 1024, 8, 64});
    EXPECT_EQ(l1.geometry().numSets(), 128u);
    EXPECT_EQ(l2.geometry().numSets(), 128u);
}

} // namespace
} // namespace tb
