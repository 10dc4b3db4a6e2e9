#include "runtime/comm.hpp"

#include "coll/coll.hpp"
#include "obs/context.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <exception>
#include <map>
#include <thread>
#include <tuple>

namespace swlb::runtime {

using Clock = std::chrono::steady_clock;

namespace {
constexpr Clock::time_point kNoDeadline = Clock::time_point::max();

Clock::time_point deadlineFrom(double timeoutSec) {
  if (timeoutSec <= 0) return kNoDeadline;
  // Huge timeouts (the resilience vote path scales them x4) can overflow
  // duration_cast and wrap the deadline into the past, turning "wait
  // nearly forever" into an instant timeout.  Anything beyond the clock's
  // representable horizon simply means no deadline.
  const auto now = Clock::now();
  const double maxSec =
      std::chrono::duration<double>(kNoDeadline - now).count();
  if (timeoutSec >= maxSec) return kNoDeadline;
  return now + std::chrono::duration_cast<Clock::duration>(
                   std::chrono::duration<double>(timeoutSec));
}

std::uint64_t splitmix64(std::uint64_t z) {
  z += 0x9E3779B97F4A7C15ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}
}  // namespace

double fault_roll(std::uint64_t seed, int src, int dst, int tag, std::uint64_t n) {
  std::uint64_t h = splitmix64(seed);
  h = splitmix64(h ^ (static_cast<std::uint64_t>(static_cast<std::uint32_t>(src)) |
                      (static_cast<std::uint64_t>(static_cast<std::uint32_t>(dst)) << 32)));
  h = splitmix64(h ^ static_cast<std::uint64_t>(static_cast<std::uint32_t>(tag)));
  h = splitmix64(h ^ n);
  // 53 high bits -> uniform double in [0, 1).
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

struct Request::State {
  // Completed-send requests are created with done = true.
  bool done = false;
  // Pending receive parameters (matched lazily in wait/test).
  Comm* comm = nullptr;
  int src = kAnySource;
  int tag = 0;
  void* buf = nullptr;
  std::size_t bytes = 0;
};

struct Message {
  int src;
  int tag;
  std::vector<std::uint8_t> data;
  Clock::time_point availableAt;
};

struct Mailbox {
  std::mutex m;
  std::condition_variable cv;
  std::deque<Message> q;
};

struct World::Impl {
  WorldConfig cfg;
  std::vector<Mailbox> boxes;

  // Fault-injection state.  Flow counters are keyed by (rule, src, dst,
  // tag) so "the nth message" is well defined per sender regardless of
  // cross-rank interleaving.
  std::mutex faultM;
  std::map<std::tuple<std::size_t, int, int, int>, std::uint64_t> flowCounts;
  bool killFired = false;
  std::vector<char> rankKillsFired;
  FaultStats faultStats;

  // World ranks lost to permanent kills during the current run.
  std::mutex deadM;
  std::vector<int> deadRanks;

  explicit Impl(int size, const WorldConfig& c)
      : cfg(c), boxes(size), rankKillsFired(c.faults.rankKills.size(), 0) {}

  /// Apply matching message-fault rules to an outgoing message; returns
  /// true when the message must be dropped.
  bool applyMessageFaults(int src, int dst, int tag, Message& msg) {
    const FaultPlan& fp = cfg.faults;
    std::lock_guard<std::mutex> lock(faultM);
    for (std::size_t i = 0; i < fp.messageFaults.size(); ++i) {
      const FaultPlan::MessageFault& r = fp.messageFaults[i];
      if ((r.src != kAnySource && r.src != src) ||
          (r.dst != kAnySource && r.dst != dst) ||
          (r.tag != kAnyTag && r.tag != tag))
        continue;
      const std::uint64_t n = flowCounts[{i, src, dst, tag}]++;
      if (n < r.nth || n - r.nth >= r.count) continue;
      if (r.probability < 1.0 &&
          fault_roll(fp.seed ^ static_cast<std::uint64_t>(i), src, dst, tag, n) >=
              r.probability)
        continue;
      switch (r.action) {
        case FaultPlan::Action::Drop:
          ++faultStats.dropped;
          obs::count("comm.faults.dropped");
          return true;
        case FaultPlan::Action::Delay:
          msg.availableAt += std::chrono::duration_cast<Clock::duration>(
              std::chrono::duration<double>(r.delay));
          ++faultStats.delayed;
          obs::count("comm.faults.delayed");
          break;
        case FaultPlan::Action::Corrupt:
          if (!msg.data.empty()) {
            msg.data[r.corruptByte % msg.data.size()] ^= r.xorMask;
            ++faultStats.corrupted;
            obs::count("comm.faults.corrupted");
          }
          break;
      }
    }
    return false;
  }

  Clock::time_point deliveryTime(std::size_t bytes) const {
    auto t = Clock::now();
    if (cfg.latency > 0)
      t += std::chrono::duration_cast<Clock::duration>(
          std::chrono::duration<double>(cfg.latency));
    if (cfg.bandwidth > 0)
      t += std::chrono::duration_cast<Clock::duration>(
          std::chrono::duration<double>(static_cast<double>(bytes) / cfg.bandwidth));
    return t;
  }

  void deliver(int dst, Message&& msg) {
    Mailbox& box = boxes[static_cast<std::size_t>(dst)];
    {
      std::lock_guard<std::mutex> lock(box.m);
      box.q.push_back(std::move(msg));
    }
    box.cv.notify_all();
  }

  /// Find the first message matching (src, tag) in FIFO order.
  static std::deque<Message>::iterator findMatch(std::deque<Message>& q, int src,
                                                 int tag) {
    return std::find_if(q.begin(), q.end(), [&](const Message& m) {
      return (src == kAnySource || m.src == src) && m.tag == tag;
    });
  }

  /// Blocking receive with the synthetic network model: waits for a
  /// matching message, then until its modeled delivery time has passed.
  /// Throws TimeoutError when `deadline` passes first (kNoDeadline waits
  /// forever — a dropped message then deadlocks, which is exactly what the
  /// timeout path exists to avoid).
  void recvBlocking(int me, int src, int tag, void* data, std::size_t bytes,
                    Clock::time_point deadline) {
    Mailbox& box = boxes[static_cast<std::size_t>(me)];
    std::unique_lock<std::mutex> lock(box.m);
    for (;;) {
      auto it = findMatch(box.q, src, tag);
      const auto now = Clock::now();
      if (it != box.q.end() && it->availableAt <= now) {
        if (it->data.size() != bytes) {
          throw Error("Comm::recv: message size mismatch (got " +
                      std::to_string(it->data.size()) + ", expected " +
                      std::to_string(bytes) + ")");
        }
        if (bytes > 0) std::memcpy(data, it->data.data(), bytes);
        box.q.erase(it);
        return;
      }
      if (deadline != kNoDeadline && now >= deadline) {
        throw TimeoutError("Comm::recv: rank " + std::to_string(me) +
                           " timed out waiting for message (src=" +
                           std::to_string(src) + ", tag=" + std::to_string(tag) +
                           ")");
      }
      if (it != box.q.end()) {
        // Matched but not yet delivered by the network model: wait out the
        // modeled latency (bounded by the deadline).
        auto until = it->availableAt;
        if (deadline != kNoDeadline && deadline < until) until = deadline;
        lock.unlock();
        if (cfg.busyWait) {
          while (Clock::now() < until) {
            // spin: the MPE polls the interconnect
          }
        } else {
          std::this_thread::sleep_until(until);
        }
        lock.lock();
      } else if (deadline == kNoDeadline) {
        box.cv.wait(lock);
      } else {
        box.cv.wait_until(lock, deadline);
      }
    }
  }

  /// Non-blocking probe + receive; returns false when nothing matched yet.
  bool tryRecv(int me, int src, int tag, void* data, std::size_t bytes) {
    Mailbox& box = boxes[static_cast<std::size_t>(me)];
    std::lock_guard<std::mutex> lock(box.m);
    auto it = findMatch(box.q, src, tag);
    if (it == box.q.end() || it->availableAt > Clock::now()) return false;
    if (it->data.size() != bytes) {
      throw Error("Comm::irecv: message size mismatch");
    }
    if (bytes > 0) std::memcpy(data, it->data.data(), bytes);
    box.q.erase(it);
    return true;
  }
};

// ------------------------------------------------------------------ Request

void Request::wait() {
  if (!state_ || state_->done) return;
  state_->comm->recv(state_->src, state_->tag, state_->buf, state_->bytes);
  state_->done = true;
}

void Request::wait(double timeoutSec) {
  if (!state_ || state_->done) return;
  state_->comm->recv(state_->src, state_->tag, state_->buf, state_->bytes,
                     timeoutSec);
  state_->done = true;
}

bool Request::test() {
  if (!state_ || state_->done) return true;
  World::Impl& impl = *state_->comm->world_->impl_;
  if (impl.tryRecv(state_->comm->worldRank(), state_->src, state_->tag,
                   state_->buf, state_->bytes)) {
    state_->done = true;
  }
  return state_->done;
}

// --------------------------------------------------------------------- Comm

int Comm::size() const {
  return group_.empty() ? world_->size() : static_cast<int>(group_.size());
}

void Comm::send(int dst, int tag, const void* data, std::size_t bytes) {
  SWLB_ASSERT(dst >= 0 && dst < size());
  World::Impl& impl = *world_->impl_;
  Message msg;
  // Matching happens in communicator ranks (consistent across survivors
  // within an epoch); routing and fault rules use immutable world ranks.
  msg.src = rank_;
  msg.tag = tag;
  msg.data.resize(bytes);
  if (bytes > 0) std::memcpy(msg.data.data(), data, bytes);
  msg.availableAt = impl.deliveryTime(bytes);
  ++stats_.messagesSent;
  stats_.bytesSent += bytes;
  obs::count("comm.messages_sent");
  obs::count("comm.bytes_sent", bytes);
  if (impl.cfg.faults.enabled() &&
      impl.applyMessageFaults(worldRank(), worldRankOf(dst), tag, msg))
    return;  // dropped by the fault plan
  impl.deliver(worldRankOf(dst), std::move(msg));
}

void Comm::recv(int src, int tag, void* data, std::size_t bytes) {
  // Bounded retry with exponential backoff (setRecvRetry): one delayed
  // message is absorbed here instead of escalating to the failure vote.
  double window = recvTimeout_;
  for (int attempt = 0;; ++attempt) {
    try {
      recv(src, tag, data, bytes, window);
      return;
    } catch (const TimeoutError&) {
      if (recvTimeout_ <= 0 || attempt >= recvRetries_) throw;
      obs::count("comm.recv_retries");
      window *= recvBackoff_;
    }
  }
}

void Comm::recv(int src, int tag, void* data, std::size_t bytes,
                double timeoutSec) {
  try {
    world_->impl_->recvBlocking(worldRank(), src, tag, data, bytes,
                                deadlineFrom(timeoutSec));
  } catch (const TimeoutError&) {
    obs::count("comm.timeouts");
    throw;
  }
  ++stats_.messagesReceived;
  stats_.bytesReceived += bytes;
  obs::count("comm.messages_received");
  obs::count("comm.bytes_received", bytes);
}

void Comm::sendChecksummed(int dst, int tag, const void* data,
                           std::size_t bytes) {
  if (bytes > SIZE_MAX - sizeof(std::uint64_t))
    throw Error("Comm::sendChecksummed: no room for the checksum frame");
  std::vector<std::uint8_t> frame(bytes + sizeof(std::uint64_t));
  if (bytes > 0) std::memcpy(frame.data(), data, bytes);
  const std::uint64_t h = fnv1a_hash(data, bytes);
  std::memcpy(frame.data() + bytes, &h, sizeof(h));
  send(dst, tag, frame.data(), frame.size());
}

void Comm::recvChecksummed(int src, int tag, void* data, std::size_t bytes) {
  std::vector<std::uint8_t> frame(bytes + sizeof(std::uint64_t));
  recv(src, tag, frame.data(), frame.size());
  std::uint64_t h = 0;
  std::memcpy(&h, frame.data() + bytes, sizeof(h));
  if (fnv1a_hash(frame.data(), bytes) != h) {
    obs::count("comm.corruption_detected");
    throw CorruptionError("Comm::recvChecksummed: checksum mismatch on rank " +
                          std::to_string(rank_) + " (src=" + std::to_string(src) +
                          ", tag=" + std::to_string(tag) +
                          "): payload corrupted in transit");
  }
  if (bytes > 0) std::memcpy(data, frame.data(), bytes);
}

void Comm::faultTick(std::uint64_t step) {
  World::Impl& impl = *world_->impl_;
  const FaultPlan& fp = impl.cfg.faults;
  const int wr = worldRank();  // kill rules name immutable world ranks
  if (fp.killRank == wr && step == fp.killAtStep) {
    std::lock_guard<std::mutex> lock(impl.faultM);
    if (!impl.killFired) {  // one-shot: the respawned rank survives
      impl.killFired = true;
      ++impl.faultStats.kills;
      obs::count("comm.faults.kills");
      throw RankKilledError(wr, step, fp.killPermanent);
    }
  }
  for (std::size_t i = 0; i < fp.rankKills.size(); ++i) {
    const FaultPlan::RankKill& k = fp.rankKills[i];
    if (k.rank != wr || step != k.step) continue;
    std::lock_guard<std::mutex> lock(impl.faultM);
    if (impl.rankKillsFired[i]) continue;
    impl.rankKillsFired[i] = 1;
    ++impl.faultStats.kills;
    obs::count("comm.faults.kills");
    throw RankKilledError(wr, step, k.permanent);
  }
}

std::size_t Comm::drainMailbox() {
  // Discard stale traffic only: user messages (tag >= 0 — an aborted
  // step's halo strips) and collective messages whose sequence lies
  // strictly behind this rank's counter (leftovers of an abandoned
  // collective).  Current/future collective messages must survive — a
  // peer that already passed the recovery vote may be inside the next
  // collective, and eating its traffic would deadlock the world.
  Mailbox& box = world_->impl_->boxes[static_cast<std::size_t>(worldRank())];
  std::lock_guard<std::mutex> lock(box.m);
  const std::uint64_t myMod = collSeq_ % colltag::kWindow;
  const std::size_t before = box.q.size();
  std::erase_if(box.q, [&](const Message& m) {
    if (m.tag >= 0) return true;
    if (m.tag == kHealthTag) return true;  // finished probe's leftovers
    if (!colltag::isCollective(m.tag)) return false;
    const std::uint64_t behind =
        (myMod - colltag::sequenceOf(m.tag) + colltag::kWindow) %
        colltag::kWindow;
    return behind != 0 && behind < colltag::kWindow / 2;
  });
  return before - box.q.size();
}

int Comm::livenessVote(bool alive) {
  coll::Collectives cs(*this);
  return static_cast<int>(
      cs.allreduce_value<std::int64_t>(alive ? 1 : 0, coll::Op::Sum));
}

std::vector<std::uint8_t> Comm::probeLiveness(const HealthConfig& hc) {
  // Health frames are fixed-size per world (epoch | phase | sender world
  // rank | heard-mask over *world* size), so frames can never size-mismatch
  // across shrinks, and the epoch filter discards leftovers of previous
  // probes.  Probes are collectively ordered among survivors (each one is
  // triggered by the same aborted vote), so probeEpoch_ agrees.
  obs::TraceScope probeScope("comm.health.probe");
  World::Impl& impl = *world_->impl_;
  const int n = size();
  const int wn = world_->size();
  const std::size_t maskBytes = static_cast<std::size_t>(wn > 0 ? wn : 0);
  const std::uint64_t epoch = ++probeEpoch_;
  ++health_.probes;
  obs::count("comm.health.probes");

  std::vector<std::uint8_t> heard(maskBytes, 0);
  heard[static_cast<std::size_t>(worldRank())] = 1;
  std::vector<std::uint8_t> confirmed(static_cast<std::size_t>(n), 0);
  confirmed[static_cast<std::size_t>(rank_)] = 1;

  const std::size_t maskOff = sizeof(std::uint64_t) + 1 + sizeof(std::int32_t);
  const std::size_t frameBytes = maskOff + maskBytes;
  auto makeFrame = [&](std::uint8_t phase) {
    std::vector<std::uint8_t> f(frameBytes);
    std::memcpy(f.data(), &epoch, sizeof(epoch));
    f[sizeof(epoch)] = phase;
    const std::int32_t me = worldRank();
    std::memcpy(f.data() + sizeof(epoch) + 1, &me, sizeof(me));
    std::memcpy(f.data() + maskOff, heard.data(), maskBytes);
    return f;
  };
  auto allHeard = [&] {
    for (int r = 0; r < n; ++r)
      if (!heard[static_cast<std::size_t>(worldRankOf(r))]) return false;
    return true;
  };
  // Consume one health frame before `deadline`; false on timeout.  Frames
  // from other epochs are swallowed silently; gossip (mask union) spreads
  // indirect evidence so one relayed frame can vouch for several peers.
  std::vector<std::uint8_t> buf(frameBytes);
  auto consumeFrame = [&](Clock::time_point deadline) {
    try {
      impl.recvBlocking(worldRank(), kAnySource, kHealthTag, buf.data(),
                        frameBytes, deadline);
    } catch (const TimeoutError&) {
      return false;
    }
    ++stats_.messagesReceived;
    stats_.bytesReceived += frameBytes;
    std::uint64_t e = 0;
    std::memcpy(&e, buf.data(), sizeof(e));
    if (e != epoch) return true;
    std::int32_t senderWorld = -1;
    std::memcpy(&senderWorld, buf.data() + sizeof(e) + 1, sizeof(senderWorld));
    for (int w = 0; w < wn; ++w)
      heard[static_cast<std::size_t>(w)] |= buf[maskOff + w];
    if (senderWorld >= 0 && senderWorld < wn) {
      heard[static_cast<std::size_t>(senderWorld)] = 1;
      if (buf[sizeof(e)] == 1) {  // confirmation frame
        for (int r = 0; r < n; ++r)
          if (worldRankOf(r) == senderWorld) {
            confirmed[static_cast<std::size_t>(r)] = 1;
            break;
          }
      }
    }
    return true;
  };

  // Detection ladder: ping unheard peers, widen the window each round.
  // `ladder` is the full detection time a slow peer may legally take —
  // the confirmation round below must out-wait it even when this rank
  // heard everyone in round 0.
  double window = hc.timeout;
  double ladder = 0;
  for (int i = 0; i <= hc.retries; ++i) ladder += hc.timeout * std::pow(hc.backoff, i);
  for (int round = 0; round <= hc.retries; ++round) {
    if (allHeard()) break;
    if (round > 0) {
      ++health_.retries;
      obs::count("comm.health.retries");
    }
    const std::vector<std::uint8_t> ping = makeFrame(0);
    for (int r = 0; r < n; ++r)
      if (r != rank_ && !heard[static_cast<std::size_t>(worldRankOf(r))])
        send(r, kHealthTag, ping.data(), ping.size());
    const Clock::time_point deadline = deadlineFrom(window);
    while (!allHeard() && consumeFrame(deadline)) {
    }
    window *= hc.backoff;
  }
  for (int r = 0; r < n; ++r)
    if (!heard[static_cast<std::size_t>(worldRankOf(r))]) {
      ++health_.suspected;
      obs::count("comm.health.suspected");
    }

  // Confirmation round among believed-alive peers: final masks converge by
  // gossip union, and waiting for every confirmation doubles as a barrier
  // among survivors — nobody races ahead into post-probe traffic while a
  // peer is still probing.  The window covers a peer that entered its
  // ladder late and walked it fully.
  {
    const std::vector<std::uint8_t> confirm = makeFrame(1);
    for (int r = 0; r < n; ++r)
      if (r != rank_ && heard[static_cast<std::size_t>(worldRankOf(r))])
        send(r, kHealthTag, confirm.data(), confirm.size());
    auto unconfirmed = [&] {
      for (int r = 0; r < n; ++r)
        if (heard[static_cast<std::size_t>(worldRankOf(r))] &&
            !confirmed[static_cast<std::size_t>(r)])
          return true;
      return false;
    };
    const Clock::time_point deadline = deadlineFrom(ladder + hc.timeout);
    while (unconfirmed() && consumeFrame(deadline)) {
    }
    for (int r = 0; r < n; ++r) {
      const std::size_t w = static_cast<std::size_t>(worldRankOf(r));
      if (heard[w] && !confirmed[static_cast<std::size_t>(r)]) {
        heard[w] = 0;  // vouched for by gossip but never confirmed itself
        ++health_.suspected;
        obs::count("comm.health.suspected");
      }
    }
  }

  for (int r = 0; r < n; ++r)
    if (!heard[static_cast<std::size_t>(worldRankOf(r))]) {
      ++health_.declaredDead;
      obs::count("comm.health.declared_dead");
    }
  return heard;
}

int Comm::shrink(const std::vector<std::uint8_t>& aliveWorld) {
  const int n = size();
  std::vector<int> group;
  group.reserve(static_cast<std::size_t>(n));
  for (int r = 0; r < n; ++r) {
    const int w = worldRankOf(r);
    if (w < static_cast<int>(aliveWorld.size()) &&
        aliveWorld[static_cast<std::size_t>(w)])
      group.push_back(w);
  }
  if (group.empty())
    throw Error("Comm::shrink: alive mask leaves no survivors");
  int newRank = -1;
  for (std::size_t i = 0; i < group.size(); ++i)
    if (group[i] == worldRank()) newRank = static_cast<int>(i);
  if (newRank < 0)
    throw Error("Comm::shrink: world rank " + std::to_string(worldRank()) +
                " is itself declared dead");
  if (static_cast<int>(group.size()) == n) return rank_;  // nothing lost
  // Stale traffic of the failed epoch must not leak into the shrunken
  // world; the collective sequence is *kept* so a survivor already inside
  // a post-shrink collective stays matchable (its frames carry the current
  // sequence, which the selective drain preserves).
  drainMailbox();
  group_ = std::move(group);
  rank_ = newRank;
  obs::count("comm.shrink.count");
  obs::gaugeSet("comm.size", size());
  return rank_;
}

Request Comm::isend(int dst, int tag, const void* data, std::size_t bytes) {
  // Eager buffered send: the payload is copied, so the operation is
  // already complete from the sender's point of view.
  send(dst, tag, data, bytes);
  Request r;
  r.state_ = std::make_shared<Request::State>();
  r.state_->done = true;
  return r;
}

Request Comm::irecv(int src, int tag, void* data, std::size_t bytes) {
  Request r;
  r.state_ = std::make_shared<Request::State>();
  r.state_->comm = this;
  r.state_->src = src;
  r.state_->tag = tag;
  r.state_->buf = data;
  r.state_->bytes = bytes;
  return r;
}

void Comm::barrier() { coll::Collectives(*this).barrier(); }

double Comm::allreduce(double value, Op op) {
  coll::Op cop = coll::Op::Sum;
  switch (op) {
    case Op::Sum: cop = coll::Op::Sum; break;
    case Op::Min: cop = coll::Op::Min; break;
    case Op::Max: cop = coll::Op::Max; break;
  }
  coll::Collectives cs(*this);
  return cs.allreduce_value(value, cop);
}

void Comm::gather(int root, const void* data, std::size_t bytes, void* out) {
  if (rank_ == root) SWLB_ASSERT(out != nullptr);
  coll::Collectives cs(*this);
  cs.gather<std::uint8_t>(
      root, {static_cast<const std::uint8_t*>(data), bytes},
      {static_cast<std::uint8_t*>(out),
       rank_ == root ? bytes * static_cast<std::size_t>(size()) : 0});
}

void Comm::broadcast(int root, void* data, std::size_t bytes) {
  coll::Collectives cs(*this);
  cs.broadcast<std::uint8_t>(root, {static_cast<std::uint8_t*>(data), bytes});
}

// -------------------------------------------------------------------- World

World::World(int size, const WorldConfig& cfg) : size_(size) {
  if (size <= 0) throw Error("World: size must be positive");
  impl_ = std::make_unique<Impl>(size, cfg);
}

World::~World() = default;

void World::run(const std::function<void(Comm&)>& fn) {
  // Fresh Comms reset the collective sequence counters to zero, so any
  // leftover mailbox traffic from a previous (faulted) run would alias the
  // new run's collective tags.  No rank is alive between runs, so pending
  // messages are garbage by definition: clear them.
  for (Mailbox& box : impl_->boxes) {
    std::lock_guard<std::mutex> lock(box.m);
    box.q.clear();
  }
  {
    std::lock_guard<std::mutex> lock(impl_->deadM);
    impl_->deadRanks.clear();
  }
  std::vector<std::thread> threads;
  std::vector<Comm> comms;
  comms.reserve(static_cast<std::size_t>(size_));
  for (int r = 0; r < size_; ++r) comms.push_back(Comm(this, r));

  std::mutex errM;
  std::exception_ptr firstError;

  threads.reserve(static_cast<std::size_t>(size_));
  for (int r = 0; r < size_; ++r) {
    threads.emplace_back([&, r] {
      // Observability binding covers the rank's whole lifetime so phase
      // scopes and Comm counters attribute to the right rank timeline.
      obs::ScopedBind obsBind(impl_->cfg.tracer, impl_->cfg.metrics, r);
      try {
        fn(comms[static_cast<std::size_t>(r)]);
      } catch (const RankKilledError& e) {
        if (e.permanent()) {
          // A permanently killed rank exiting its thread is part of the
          // scenario (survivors shrink around it), not a run failure.
          std::lock_guard<std::mutex> lock(impl_->deadM);
          impl_->deadRanks.push_back(r);
        } else {
          std::lock_guard<std::mutex> lock(errM);
          if (!firstError) firstError = std::current_exception();
        }
      } catch (...) {
        std::lock_guard<std::mutex> lock(errM);
        if (!firstError) firstError = std::current_exception();
      }
    });
  }
  for (auto& t : threads) t.join();

  lastStats_.clear();
  for (const auto& c : comms) lastStats_.push_back(c.stats());
  if (firstError) std::rethrow_exception(firstError);
}

FaultStats World::faultStats() const {
  std::lock_guard<std::mutex> lock(impl_->faultM);
  return impl_->faultStats;
}

std::vector<int> World::deadRanks() const {
  std::lock_guard<std::mutex> lock(impl_->deadM);
  return impl_->deadRanks;
}

CommStats World::totalStats() const {
  CommStats total;
  for (const auto& s : lastStats_) {
    total.messagesSent += s.messagesSent;
    total.bytesSent += s.bytesSent;
    total.messagesReceived += s.messagesReceived;
    total.bytesReceived += s.bytesReceived;
  }
  return total;
}

}  // namespace swlb::runtime
