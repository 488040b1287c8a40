/**
 * @file
 * Unit tests for the hypercube wormhole interconnect.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "noc/network.hh"
#include "sim/event_queue.hh"
#include "sim/fault_hooks.hh"
#include "sim/hooks.hh"
#include "sim/logging.hh"
#include "sim/pdes.hh"

namespace tb {
namespace {

noc::NetworkConfig
smallConfig(unsigned dim)
{
    noc::NetworkConfig c;
    c.dimension = dim;
    return c;
}

TEST(Network, HopsIsHammingDistance)
{
    EventQueue eq;
    noc::Network net(eq, smallConfig(6));
    EXPECT_EQ(net.hops(0, 0), 0u);
    EXPECT_EQ(net.hops(0, 1), 1u);
    EXPECT_EQ(net.hops(0, 0b111111), 6u);
    EXPECT_EQ(net.hops(0b1010, 0b0101), 4u);
    EXPECT_EQ(net.hops(5, 5), 0u);
}

TEST(Network, ZeroLoadLatencyMatchesModel)
{
    EventQueue eq;
    noc::Network net(eq, smallConfig(6));
    // marshal(16) + h*pin(16) + (flits-1)*4 + unmarshal(16), in ns.
    // 8B -> 1 flit.
    EXPECT_EQ(net.zeroLoadLatency(0, 8), 32 * kNanosecond);
    EXPECT_EQ(net.zeroLoadLatency(3, 8), (32 + 48) * kNanosecond);
    // 72B -> 5 flits -> +16ns of body.
    EXPECT_EQ(net.zeroLoadLatency(2, 72), (32 + 32 + 16) * kNanosecond);
}

TEST(Network, DeliversAtZeroLoadLatency)
{
    EventQueue eq;
    noc::Network net(eq, smallConfig(3));
    Tick delivered = kTickNever;
    net.send(0, 7, 8, [&]() { delivered = eq.now(); });
    eq.run();
    EXPECT_EQ(delivered, net.zeroLoadLatency(3, 8));
}

TEST(Network, LocalLoopbackChargesMarshalingOnly)
{
    EventQueue eq;
    noc::Network net(eq, smallConfig(3));
    Tick delivered = kTickNever;
    net.send(4, 4, 8, [&]() { delivered = eq.now(); });
    eq.run();
    EXPECT_EQ(delivered, 32 * kNanosecond);
}

TEST(Network, PointToPointOrderPreserved)
{
    EventQueue eq;
    noc::Network net(eq, smallConfig(3));
    std::vector<int> order;
    // Big message first, tiny message second: the tiny one must not
    // overtake (coherence correctness depends on this).
    net.send(0, 5, 1024, [&]() { order.push_back(1); });
    net.send(0, 5, 8, [&]() { order.push_back(2); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(Network, ContentionSerializesSameLink)
{
    EventQueue eq;
    noc::Network net(eq, smallConfig(3));
    Tick first = 0, second = 0;
    // Same source and destination: both messages traverse link (0,
    // dim 0) and must serialize there.
    net.send(0, 1, 1024, [&]() { first = eq.now(); });
    net.send(0, 1, 1024, [&]() { second = eq.now(); });
    eq.run();
    EXPECT_GT(second, first);
    // 1024B = 64 flits = 256ns serialization on the shared link.
    EXPECT_GE(second - first, 250 * kNanosecond);
}

TEST(Network, DisjointPathsDoNotInterfere)
{
    EventQueue eq;
    noc::Network net(eq, smallConfig(3));
    Tick a = 0, b = 0;
    net.send(0, 1, 8, [&]() { a = eq.now(); });
    net.send(2, 3, 8, [&]() { b = eq.now(); });
    eq.run();
    EXPECT_EQ(a, b); // identical latency, no shared links
}

TEST(Network, StatsCountMessagesAndBytes)
{
    EventQueue eq;
    noc::Network net(eq, smallConfig(3));
    net.send(0, 1, 100, []() {});
    net.send(1, 2, 50, []() {});
    eq.run();
    EXPECT_DOUBLE_EQ(net.statistics().scalarValue("messages"), 2.0);
    EXPECT_DOUBLE_EQ(net.statistics().scalarValue("bytes"), 150.0);
}

TEST(Network, RejectsOutOfTopologySend)
{
    EventQueue eq;
    noc::Network net(eq, smallConfig(2));
    EXPECT_THROW(net.send(0, 9, 8, []() {}), PanicError);
    EXPECT_THROW(net.send(9, 0, 8, []() {}), PanicError);
}

TEST(Network, RejectsEmptyCallback)
{
    EventQueue eq;
    noc::Network net(eq, smallConfig(2));
    EXPECT_THROW(net.send(0, 1, 8, noc::Network::Deliver{}),
                 PanicError);
}

TEST(Network, RejectsBadDimension)
{
    EventQueue eq;
    noc::NetworkConfig c;
    c.dimension = 0;
    EXPECT_THROW(noc::Network(eq, c), FatalError);
    c.dimension = 17;
    EXPECT_THROW(noc::Network(eq, c), FatalError);
}

TEST(Network, ContentionCanBeDisabled)
{
    EventQueue eq;
    noc::NetworkConfig c = smallConfig(3);
    c.modelContention = false;
    noc::Network net(eq, c);
    Tick first = 0, second = 0;
    net.send(0, 1, 1024, [&]() { first = eq.now(); });
    net.send(0, 1, 1024, [&]() { second = eq.now(); });
    eq.run();
    // Without link reservation both arrive together (order still
    // preserved by the point-to-point clamp).
    EXPECT_EQ(first, second);
}

/**
 * Property: per (src, dst) pair, delivery order equals send order, no
 * matter how link contention and fault-injected link stalls reshape
 * the per-hop timing. The directory protocol's correctness rests on
 * exactly this (a forwarded intervention must not overtake the data
 * grant that precedes it), so it has to survive the ugliest timing the
 * model can produce, not just the zero-load case.
 */
TEST(Network, P2pOrderSurvivesContentionAndFaultStalls)
{
    struct StallHooks : FaultHooks
    {
        Tick
        linkStall(NodeId at, unsigned dim) override
        {
            // Deterministic but irregular: every fifth (router, dim)
            // combination stalls its outgoing link hard enough to let
            // later messages catch up on other paths.
            return ((at * 7 + dim * 13) % 5 == 0)
                       ? Tick{3 * kMicrosecond}
                       : Tick{0};
        }
    };

    EventQueue eq;
    StallHooks faults;
    Hooks hooks;
    hooks.faults = &faults;
    noc::Network net(eq, smallConfig(4), "noc", &hooks);
    const unsigned n = net.config().nodes();

    // Seeded LCG: the schedule is random-looking but reproducible.
    std::uint64_t lcg = 0x9e3779b97f4a7c15ull;
    const auto next = [&]() {
        lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
        return static_cast<unsigned>(lcg >> 33);
    };

    using Pair = std::pair<NodeId, NodeId>;
    std::map<Pair, std::uint64_t> sent;
    std::map<Pair, std::vector<std::uint64_t>> delivered;
    for (int i = 0; i < 400; ++i) {
        const NodeId src = next() % n;
        const NodeId dst = next() % n;
        // Mix single-flit control with multi-flit data so small
        // messages physically can catch up with large predecessors.
        const unsigned bytes = 8 + (next() % 5) * 64;
        const Tick at = (next() % 50) * kMicrosecond;
        // Stamp the sequence at *injection* (inside the event), since
        // send order is defined by simulated time, not by the order
        // this loop happens to build the schedule in.
        eq.schedule(at, [&net, &sent, &delivered, src, dst, bytes]() {
            const std::uint64_t seq = sent[{src, dst}]++;
            net.send(src, dst, bytes, [&delivered, src, dst, seq]() {
                delivered[{src, dst}].push_back(seq);
            });
        });
    }
    eq.run();

    std::size_t total = 0;
    for (const auto& [pair, seqs] : delivered) {
        total += seqs.size();
        for (std::size_t i = 1; i < seqs.size(); ++i) {
            EXPECT_EQ(seqs[i], seqs[i - 1] + 1)
                << "pair (" << pair.first << ", " << pair.second
                << ") delivered out of send order";
        }
    }
    EXPECT_EQ(total, 400u); // nothing dropped, nothing duplicated
}

/**
 * A 16-node network split into 4 clusters of 4 nodes, each cluster on
 * its own keyed queue, drained by a pdes::Engine the way a partitioned
 * machine is (harness/parallel_sim.cc). Messages between clusters
 * cross engine channels hop by hop.
 *
 * Link contention is off and link stalls vary per traversal, so a
 * message can overtake an earlier one on the same path (with
 * contention on, a later message always queues behind the earlier
 * one's link reservation). The overtaker reaches its destination
 * first and must wait in the out-of-order stash.
 */
class PartitionedNoc
{
  public:
    static constexpr unsigned kClusters = 4;

    using Pair = std::pair<NodeId, NodeId>;
    /** (send-order stamp, delivery tick) per message of a pair. */
    using Deliveries =
        std::map<Pair, std::vector<std::pair<std::uint64_t, Tick>>>;

    /** Stalls the k-th traversal of a router when stalls(at, k). */
    struct VaryingStalls : FaultHooks
    {
        bool (*stalls)(NodeId at, unsigned k) = nullptr;
        /** Traversals per router; each entry is only touched by the
         *  router's own cluster. */
        std::vector<unsigned> calls;

        Tick
        linkStall(NodeId at, unsigned dim) override
        {
            (void)dim;
            return stalls(at, calls[at]++) ? Tick{2 * kMicrosecond}
                                           : Tick{0};
        }
    };

    PartitionedNoc(unsigned workers, bool (*stalls)(NodeId, unsigned))
        : engine(pdes::Engine::Config{workers})
    {
        noc::NetworkConfig cfg;
        cfg.dimension = 4;
        cfg.modelContention = false;
        const unsigned n = cfg.nodes();
        faults.stalls = stalls;
        faults.calls.assign(n, 0);
        hooks.faults = &faults;
        for (unsigned c = 0; c < kClusters; ++c) {
            queues.push_back(std::make_unique<EventQueue>());
            queues.back()->setKeyedStream(static_cast<std::uint16_t>(c));
            engine.addManagedPartition("cluster" + std::to_string(c),
                                       *queues.back());
        }
        for (NodeId node = 0; node < n; ++node) {
            binding.nodeQueue.push_back(queues[clusterOf(node)].get());
            binding.nodeCluster.push_back(
                static_cast<std::uint16_t>(clusterOf(node)));
        }
        binding.clusters = kClusters;
        for (unsigned a = 0; a < kClusters; ++a)
            for (unsigned b = 0; b < kClusters; ++b)
                if (std::popcount(a ^ b) == 1)
                    engine.connect(static_cast<pdes::PartitionId>(a),
                                   static_cast<pdes::PartitionId>(b),
                                   cfg.pinToPin);
        binding.crossSchedule = [this](unsigned src, unsigned dst,
                                       Tick when,
                                       detail::EventClosure fn) {
            engine.partition(static_cast<pdes::PartitionId>(src))
                .send(static_cast<pdes::PartitionId>(dst), when,
                      std::move(fn));
        };
        net = std::make_unique<noc::Network>(*queues[0], cfg, "noc",
                                             &hooks);
        net->bindPartitions(&binding);
        sent.resize(kClusters);
        delivered.resize(kClusters);
    }

    static unsigned clusterOf(NodeId node) { return node / 4; }

    /** At tick @p at, send @p bytes from @p src to @p dst. */
    void
    sendAt(Tick at, NodeId src, NodeId dst, unsigned bytes)
    {
        // The stamp is taken at injection, on src's cluster, and the
        // record at delivery, on dst's: per-cluster books keep the
        // workers off each other's data.
        queues[clusterOf(src)]->schedule(at, [this, src, dst, bytes]() {
            const std::uint64_t seq = sent[clusterOf(src)][{src, dst}]++;
            net->send(src, dst, bytes, [this, src, dst, seq]() {
                const unsigned c = clusterOf(dst);
                delivered[c][{src, dst}].emplace_back(seq,
                                                      queues[c]->now());
            });
        });
    }

    /** Drain every cluster; returns all deliveries by pair. */
    Deliveries
    run()
    {
        engine.run();
        Deliveries all;
        for (const Deliveries& d : delivered)
            for (const auto& [pair, got] : d)
                all[pair] = got;
        return all;
    }

    noc::Network& network() { return *net; }

  private:
    pdes::Engine engine;
    std::vector<std::unique_ptr<EventQueue>> queues;
    VaryingStalls faults;
    Hooks hooks;
    noc::PartitionBinding binding;
    std::unique_ptr<noc::Network> net;
    std::vector<std::map<Pair, std::uint64_t>> sent;
    std::vector<Deliveries> delivered;
};

/** A message held in the stash is released right behind its
 *  predecessor, after both crossed channels. */
TEST(Network, PartitionedOvertakerWaitsForItsPredecessor)
{
    for (unsigned workers : {1u, 2u}) {
        // Only the first traversal of router 0 stalls: A (sent first)
        // sits 2 us there, B passes at once.
        PartitionedNoc rig(workers, [](NodeId at, unsigned k) {
            return at == 0 && k == 0;
        });
        // 0 -> 15 crosses clusters 0 -> 1 -> 3.
        rig.sendAt(0, 0, 15, 72);
        rig.sendAt(kNanosecond, 0, 15, 72);
        const auto got = rig.run();
        const auto& d = got.at({0, 15});
        ASSERT_EQ(d.size(), 2u) << workers << " workers";
        EXPECT_EQ(d[0].first, 0u);
        EXPECT_EQ(d[1].first, 1u);
        const Tick unstalled =
            kNanosecond + rig.network().zeroLoadLatency(4, 72);
        EXPECT_EQ(d[0].second, 2 * kMicrosecond + unstalled - kNanosecond);
        // B arrived first but was held until A landed.
        EXPECT_EQ(d[1].second, d[0].second);
        EXPECT_GT(rig.network().statistics().scalarValue(
                      "orderingStallTicks"),
                  0.0);
    }
}

/**
 * The partitioned sibling of P2pOrderSurvivesContentionAndFaultStalls:
 * random traffic with overtaking on every path, per-pair send order
 * kept at delivery, nothing lost, and identical delivery ticks at one
 * and two workers.
 */
TEST(Network, PartitionedP2pOrderSurvivesOvertakingAcrossChannels)
{
    const auto stalls = [](NodeId at, unsigned k) {
        return (k * 7 + at) % 4 == 0;
    };
    PartitionedNoc::Deliveries reference;
    for (unsigned workers : {1u, 2u}) {
        PartitionedNoc rig(workers, stalls);
        const unsigned n = 16;
        std::uint64_t lcg = 0x9e3779b97f4a7c15ull;
        const auto next = [&]() {
            lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
            return static_cast<unsigned>(lcg >> 33);
        };
        for (int i = 0; i < 400; ++i) {
            const NodeId src = next() % n;
            const NodeId dst = next() % n;
            const unsigned bytes = 8 + (next() % 5) * 64;
            const Tick at = (next() % 50) * kMicrosecond;
            rig.sendAt(at, src, dst, bytes);
        }
        const auto got = rig.run();

        std::size_t total = 0;
        for (const auto& [pair, d] : got) {
            total += d.size();
            for (std::size_t i = 1; i < d.size(); ++i) {
                EXPECT_EQ(d[i].first, d[i - 1].first + 1)
                    << "pair (" << pair.first << ", " << pair.second
                    << ") delivered out of send order";
            }
        }
        EXPECT_EQ(total, 400u); // nothing dropped, nothing duplicated
        EXPECT_GT(rig.network().statistics().scalarValue(
                      "orderingStallTicks"),
                  0.0);
        if (workers == 1)
            reference = got;
        else
            EXPECT_EQ(got, reference) << "worker count moved a delivery";
    }
}

} // namespace
} // namespace tb
