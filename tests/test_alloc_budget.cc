/**
 * @file
 * Heap-allocation budget of the simulation hot path.
 *
 * A 64-node paper run executes hundreds of thousands of events, so a
 * heap allocation per compute chunk, memory-access continuation, NoC
 * hop or message payload costs a large share of its host time
 * (docs/PERFORMANCE.md, "Allocation-free continuations and
 * messages"). This test counts every global operator new during one
 * default-plan run and bounds the allocations per executed event.
 *
 * Replacing operator new affects the whole program, which is why this
 * is a binary of its own (tb_alloc_budget) rather than part of
 * tb_tests.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "harness/experiment.hh"
#include "harness/machine.hh"
#include "workloads/app_profile.hh"
#include "workloads/synthetic_program.hh"

namespace {

std::atomic<std::uint64_t> allocations{0};

} // namespace

void*
operator new(std::size_t bytes)
{
    allocations.fetch_add(1, std::memory_order_relaxed);
    if (void* p = std::malloc(bytes ? bytes : 1))
        return p;
    throw std::bad_alloc();
}

void*
operator new[](std::size_t bytes)
{
    return ::operator new(bytes);
}

void
operator delete(void* p) noexcept
{
    std::free(p);
}

void
operator delete[](void* p) noexcept
{
    std::free(p);
}

void
operator delete(void* p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void* p, std::size_t) noexcept
{
    std::free(p);
}

namespace tb {
namespace {

/** Heap allocations allowed per executed event. */
constexpr double kAllocsPerEventBudget = 0.4;

TEST(AllocBudget, DefaultPlanRunStaysUnderBudget)
{
    const harness::SystemConfig sys =
        harness::SystemConfig::paperDefault();
    ASSERT_EQ(sys.numNodes(), 64u);
    // The composition runExperiment() uses for default RunOptions,
    // spelled out so the count covers the event loop alone.
    harness::Machine machine(sys, harness::defaultPartitions(sys));
    thrifty::SyncStats sync;
    harness::ConfigBarrierProvider provider(
        machine, harness::ConfigKind::Thrifty, nullptr, sync);
    workloads::SyntheticProgram program(
        machine.eventQueue(), machine.memory(), machine.threadPtrs(),
        workloads::appByName("Volrend"), provider, sys.seed);
    machine.memory().addressMap().seal();
    program.start();

    const std::uint64_t before = allocations.load();
    machine.run();
    const std::uint64_t allocs = allocations.load() - before;
    ASSERT_TRUE(program.finished());

    const std::uint64_t events = machine.eventQueue().eventsExecuted();
    ASSERT_GT(events, 0u);
    const double per_event =
        static_cast<double>(allocs) / static_cast<double>(events);
    EXPECT_LE(per_event, kAllocsPerEventBudget)
        << allocs << " allocations over " << events << " events";
}

} // namespace
} // namespace tb
