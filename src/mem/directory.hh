/**
 * @file
 * Full-bit-vector home directory (one slice per node).
 *
 * Every line has a unique home; all transactions on a line serialize
 * in FIFO order at its home slice. While a transaction is in flight
 * (waiting for owner interventions, invalidation acks, or DRAM), the
 * line is busy and later requests queue behind it. This makes the
 * protocol deadlock-free by construction: controllers always answer
 * interventions and invalidations without blocking (including while
 * their CPU sleeps — the key property Section 3.1 of the paper relies
 * on), so every transaction terminates.
 *
 * Directory states: Uncached, Shared(sharer vector), Exclusive(owner).
 * Exclusive covers both the E (clean) and M (dirty) cache states, as
 * in standard MESI directories.
 */

#ifndef TB_MEM_DIRECTORY_HH_
#define TB_MEM_DIRECTORY_HH_

#include <cstdint>
#include <string>
#include <vector>

#include "mem/backend.hh"
#include "mem/dram.hh"
#include "mem/fabric.hh"
#include "mem/mem_types.hh"
#include "mem/protocol_observer.hh"
#include "sim/hooks.hh"
#include "sim/sim_object.hh"
#include "sim/stats.hh"

namespace tb {
namespace mem {

/** Maximum nodes representable in the sharer bit vector. */
inline constexpr unsigned kMaxNodes = 64;

/** Directory-side line state. */
enum class DirState : std::uint8_t
{
    Uncached,
    Shared,
    Exclusive,
};

/** One node's directory slice. */
class Directory : public SimObject, public MsgSink
{
  public:
    /**
     * @param queue     Simulation event queue.
     * @param node      This slice's node id.
     * @param num_nodes Total nodes in the machine (<= kMaxNodes).
     * @param fabric    Message routing layer.
     * @param backend   Global memory image (for AtomicRmw execution).
     * @param dram      This node's memory timing model.
     * @param hooks     Machine-wide instrumentation seams (nullable).
     */
    Directory(EventQueue& queue, NodeId node, unsigned num_nodes,
              Fabric& fabric, Backend& backend, Dram& dram,
              std::string name, bool three_hop_forwarding = false,
              const Hooks* hooks = nullptr);

    /** Fabric delivery entry point. */
    void receive(const Msg& msg) override;

    /** Directory state of @p line (for tests/debug). */
    DirState lineState(Addr line) const;

    /** Sharer bit vector of @p line (for tests/debug). */
    std::uint64_t lineSharers(Addr line) const;

    /** Owner of @p line; kInvalidNode unless Exclusive. */
    NodeId lineOwner(Addr line) const;

    /** True if a transaction is in flight on @p line. */
    bool lineBusy(Addr line) const;

    const stats::StatGroup& statistics() const { return statsGroup; }

  private:
    static constexpr std::uint32_t kNone = ~std::uint32_t{0};

    struct LineDir
    {
        DirState state = DirState::Uncached;
        std::uint64_t sharers = 0;
        NodeId owner = kInvalidNode;

        bool busy = false;
        /** Requests queued behind the busy line: a FIFO threaded
         *  through waitPool (kNone when empty). */
        std::uint32_t waitHead = kNone;
        std::uint32_t waitTail = kNone;

        // In-flight transaction context.
        Msg cur;
        unsigned pendingAcks = 0;
        bool waitingOwner = false;
        bool waitingMem = false;
        bool ownerKeptCopy = false;
        bool grantUpgrade = false;
    };

    /** One queued request; pool entries are recycled. */
    struct Waiter
    {
        Msg msg;
        std::uint32_t next = kNone;
    };

    /** Open-addressing slot: a line and its index in lineDirs. */
    struct Bucket
    {
        Addr line = 0;
        std::uint32_t index = kNone;
    };

    static std::uint64_t bit(NodeId n) { return std::uint64_t{1} << n; }

    /** Bucket holding @p line, or the empty one where it belongs. */
    std::size_t probe(Addr line) const;

    /** State of @p line, or null if no request ever reached it. */
    const LineDir* findLine(Addr line) const;

    /**
     * State of @p line, created Uncached on first use. Creating one
     * may move every LineDir, so only receive() creates: the handlers
     * it calls look up a line that already exists.
     */
    LineDir& lineDir(Addr line);

    /** Double the bucket array and reinsert every line. */
    void growBuckets();

    /** Append @p msg to @p ld's wait queue. */
    void enqueue(LineDir& ld, const Msg& msg);

    /** Pop the head of @p ld's (non-empty) wait queue. */
    Msg dequeue(LineDir& ld);

    /** Start the next queued transaction if the line is idle. */
    void tryStart(Addr line);

    /** Dispatch the transaction at the head of @p ld's queue. */
    void start(Addr line, LineDir& ld);

    void startGetS(Addr line, LineDir& ld);
    void startWrite(Addr line, LineDir& ld); ///< GetX/Upgrade/AtomicRmw
    void startPutM(Addr line, LineDir& ld);

    /** Issue a DRAM read and mark the transaction waiting on it. */
    void readMem(Addr line, LineDir& ld);

    /** Complete a write-class transaction if nothing is pending. */
    void maybeFinishWrite(Addr line, LineDir& ld);

    /** Close the current transaction and start the next. */
    void finish(Addr line, LineDir& ld);

    void handleOwnerData(const Msg& msg, LineDir& ld);
    void handleOwnerHandled(const Msg& msg, LineDir& ld);
    void handleOwnerStale(const Msg& msg, LineDir& ld);
    void handleInvAck(Addr line, LineDir& ld);

    void send(NodeId dst, Msg msg);

    /** The attached protocol observer, or null. */
    ProtocolObserver*
    checkObs() const
    {
        return hooks_ ? hooks_->check : nullptr;
    }

    NodeId nodeId;
    unsigned numNodes;
    /**
     * Three-hop (DASH-style) forwarding: interventions carry the
     * requester id and the owner replies with data *directly* to the
     * requester, sending only a control message (OwnerHandled) home.
     * Saves one network traversal on every remote intervention at the
     * cost of a hairier protocol. Off by default (hub-and-spoke).
     */
    bool threeHop;
    Fabric& fabric;
    Backend& backend;
    Dram& dram;
    /** Every line this slice has seen, in first-use order. */
    std::vector<LineDir> lineDirs;
    /** Linear-probing index into lineDirs; a power of two in size,
     *  at most half full. */
    std::vector<Bucket> buckets;
    std::vector<Waiter> waitPool;
    std::uint32_t freeWaiter = kNone;
    /** Machine-wide instrumentation seams (may be null). */
    const Hooks* hooks_;
    stats::StatGroup statsGroup;

    /** Cached references into statsGroup (resolved once; node-stable
     *  storage) so hot paths skip the name lookup. Declared after
     *  statsGroup. */
    struct HotStats
    {
        explicit HotStats(stats::StatGroup& g)
            : requests(g.scalar("requests")),
              rmws(g.scalar("rmws")),
              writebacks(g.scalar("writebacks")),
              staleWritebacks(g.scalar("staleWritebacks")),
              threeHopInterventions(g.scalar("threeHopInterventions"))
        {}

        stats::Scalar& requests;
        stats::Scalar& rmws;
        stats::Scalar& writebacks;
        stats::Scalar& staleWritebacks;
        stats::Scalar& threeHopInterventions;
    } hot{statsGroup};
};

} // namespace mem
} // namespace tb

#endif // TB_MEM_DIRECTORY_HH_
