// swlb::coll — scalable collective communication (DESIGN.md §7).
//
// The paper's 160,000-rank campaigns cannot afford centralized O(P)
// collectives: this subsystem provides typed vector collectives layered
// purely on Comm's point-to-point primitives, so every collective
// automatically inherits the runtime's fault injection, receive timeouts,
// optional checksums and obs metering.  Per heavy collective at least two
// algorithms are available — log-depth binomial trees for small payloads,
// bandwidth-optimal ring reduce-scatter/allgather for large — behind a
// size-threshold selection policy (CollConfig), all correct for any rank
// count including non-powers of two.
//
// Determinism contract (required by the resilience layer's bit-identical
// recovery): for a fixed (CollConfig, world size, payload length, root),
// every algorithm reduces in a fixed operand order — binomial trees fold
// sub-ranges with the lower virtual-rank range as the left operand, rings
// fold each chunk linearly around the ring from its owner slot — and the
// selection policy is a pure function of (payload bytes, rank count,
// thresholds).  Repeated runs are therefore bit-identical, and every rank
// of an allreduce holds byte-identical results (the reduced value is
// computed once per chunk and distributed, never re-reduced per rank).
//
// Concurrency: each collective call consumes one sequence number from the
// owning Comm (collectives are globally ordered per communicator, so the
// counter agrees across ranks) and derives its message tags from it, so a
// fast rank entering the next collective can never have its traffic
// matched by a peer still inside the previous one, and stale messages
// from a faulted, abandoned collective are identifiable by their stale
// sequence (Comm::drainMailbox discards exactly those).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "coll/topology.hpp"
#include "runtime/comm.hpp"

namespace swlb::coll {

enum class Op { Sum, Min, Max };

enum class Algo {
  Auto,   ///< size-threshold policy (ring for large payloads, tree below)
  Naive,  ///< centralized / flat — the seed-era shape, kept as baseline
  Tree,   ///< binomial tree / log-depth rounds
  Ring,   ///< ring reduce-scatter + allgather (bandwidth-optimal)
};

/// Per-communicator collective configuration.  The defaults are correct
/// for any rank count.
struct CollConfig {
  /// Ring/tree switch point under Algo::Auto, in *payload bytes*
  /// (element count × element size, before any checksum framing).
  /// Payloads of at least this many bytes select Ring (allreduce /
  /// allgather / reduce_scatter; gather switches Tree->Naive flat at the
  /// same point, trading message count for pipelining); smaller payloads
  /// take the latency-bound Tree.  Valid range: >= 1; 0 would make every
  /// collective a ring.  Default 64 KiB — a generic latency-vs-bandwidth
  /// break-even.  Never affects results, only message schedules.
  std::size_t ringThresholdBytes = 64 * 1024;
  Algo allreduce = Algo::Auto;
  Algo reduce = Algo::Auto;
  Algo broadcast = Algo::Auto;
  Algo gather = Algo::Auto;
  Algo allgather = Algo::Auto;
  Algo reduceScatter = Algo::Auto;
  /// Frame every payload with an FNV-1a checksum (Comm::sendChecksummed):
  /// in-transit corruption surfaces as CorruptionError instead of a wrong
  /// answer.  Costs 8 bytes per message.
  bool checksummed = false;
  /// When set, ring/tree neighbours are ordered so consecutive ring slots
  /// share a supernode (Topology::fromNetworkModel).  Never affects
  /// results — only which physical rank sits at which virtual position.
  const perf::NetworkModel* topology = nullptr;
};

/// Collective operations over one communicator.  Cheap to construct (one
/// permutation); all state lives in the Comm (the shared tag sequence) so
/// any number of instances may be interleaved safely as long as every
/// rank executes the same collectives in the same order.
class Collectives {
 public:
  explicit Collectives(runtime::Comm& comm, const CollConfig& cfg = {});

  int size() const { return size_; }
  int rank() const { return rank_; }
  const Topology& topology() const { return topo_; }

  /// Tree (dissemination) barrier: ceil(log2 P) zero-byte message rounds;
  /// no rank exits before every rank has entered.
  void barrier();

  /// Element-wise in-place reduction of `data` across all ranks; every
  /// rank ends with byte-identical results.
  template <typename T>
  void allreduce(std::span<T> data, Op op);

  /// Reduction into `data` on `root` (other ranks' buffers are scratch;
  /// their final contents are unspecified).
  template <typename T>
  void reduce(int root, std::span<T> data, Op op);

  template <typename T>
  void broadcast(int root, std::span<T> data);

  /// Fixed-size gather: every rank contributes `local`; on `root`, `out`
  /// (size() * local.size() elements) receives the blocks in physical
  /// rank order.  Non-root ranks may pass an empty `out`.
  template <typename T>
  void gather(int root, std::span<const T> local, std::span<T> out);

  /// Variable-size gather.  `counts` (root only; may be empty elsewhere)
  /// holds every rank's element count in rank order; `out` on root must
  /// hold their sum.  Flat algorithm: all receives posted up front, so no
  /// head-of-line blocking on slow sources.
  template <typename T>
  void gatherv(int root, std::span<const T> local,
               std::span<const std::size_t> counts, std::span<T> out);

  /// Allgather: `out` (size() * local.size()) receives every rank's block
  /// in physical rank order, on every rank.
  template <typename T>
  void allgather(std::span<const T> local, std::span<T> out);

  /// Reduce-scatter: `in` is the full vector (identical layout on every
  /// rank, chunked by chunkRange); `out` (chunk size of this rank)
  /// receives this rank's fully reduced chunk.
  template <typename T>
  void reduce_scatter(std::span<const T> in, std::span<T> out, Op op);

  // ---- scalar conveniences -------------------------------------------
  template <typename T>
  T allreduce_value(T v, Op op) {
    allreduce(std::span<T>(&v, 1), op);
    return v;
  }

  /// Balanced chunk partition used by ring algorithms and reduce_scatter:
  /// element range [first, last) of chunk `idx` when `n` elements split
  /// across `parts` (the first n % parts chunks get one extra element).
  static std::pair<std::size_t, std::size_t> chunkRange(std::size_t n,
                                                        int parts, int idx);

  /// The algorithm the size-threshold policy resolves `cfgAlgo` to for a
  /// `payloadBytes`-byte heavy collective (exposed for tests/benches).
  Algo resolve(Algo cfgAlgo, std::size_t payloadBytes) const;

  /// Observability names of one collective kind: a trace phase plus sent
  /// byte/message counters (payload bytes, before any checksum framing).
  /// Aggregates coll.bytes_sent / coll.messages_sent are counted too.
  struct Meter {
    const char* phase;
    const char* bytesSent;
    const char* messagesSent;
  };

 private:

  int vrank() const { return topo_.pos[static_cast<std::size_t>(rank_)]; }
  int rankAt(int v) const { return topo_.order[static_cast<std::size_t>(v)]; }

  void sendBytes(int dst, int tag, const void* data, std::size_t bytes,
                 const Meter& m);
  void recvBytes(int src, int tag, void* data, std::size_t bytes,
                 const Meter& m);

  template <typename T>
  void reduceTree(int root, std::span<T> data, Op op, int tag, const Meter& m);
  template <typename T>
  void reduceNaive(int root, std::span<T> data, Op op, int tag, const Meter& m);
  template <typename T>
  void broadcastTree(int root, std::span<T> data, int tag, const Meter& m);
  template <typename T>
  void broadcastNaive(int root, std::span<T> data, int tag, const Meter& m);
  template <typename T>
  void allreduceRing(std::span<T> data, Op op, int tag, const Meter& m);
  template <typename T>
  void gatherTree(int root, std::span<const T> local, std::span<T> out,
                  int tag, const Meter& m);
  template <typename T>
  void gatherNaive(int root, std::span<const T> local, std::span<T> out,
                   int tag, const Meter& m);
  template <typename T>
  void allgatherRing(std::span<const T> local, std::span<T> out, int tag,
                     const Meter& m);
  template <typename T>
  void reduceScatterRing(std::span<const T> in, std::span<T> out, Op op,
                         int tag, const Meter& m);

  runtime::Comm& comm_;
  CollConfig cfg_;
  Topology topo_;
  int size_;
  int rank_;
};

}  // namespace swlb::coll
