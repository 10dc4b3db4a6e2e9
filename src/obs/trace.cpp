#include "obs/trace.hpp"

#include <algorithm>
#include <fstream>

#include "io/json.hpp"

namespace swlb::obs {

namespace {

using io::json_number;
using io::json_quote;

std::uint64_t nextTracerId() {
  static std::atomic<std::uint64_t> counter{1};
  return counter.fetch_add(1, std::memory_order_relaxed);
}

/// Per-thread cache of the buffer registered with one tracer.  Keyed by
/// the tracer's process-unique id so a thread that outlives a tracer (or
/// records into a second one) re-registers instead of touching a stale
/// pointer.
struct BufferCache {
  std::uint64_t tracerId = 0;
  void* buffer = nullptr;
};
thread_local BufferCache t_cache;

}  // namespace

Tracer::Tracer(std::size_t maxEventsPerThread)
    : id_(nextTracerId()), cap_(maxEventsPerThread), epoch_(Clock::now()) {}

Tracer::~Tracer() = default;

Tracer::ThreadBuffer& Tracer::buffer(int rank) {
  if (t_cache.tracerId == id_) {
    auto& buf = *static_cast<ThreadBuffer*>(t_cache.buffer);
    buf.rank = rank;  // rebind is free; rank is stable within a World::run
    return buf;
  }
  std::lock_guard<std::mutex> lock(m_);
  buffers_.push_back(std::make_unique<ThreadBuffer>());
  ThreadBuffer& buf = *buffers_.back();
  buf.rank = rank;
  buf.events.reserve(std::min<std::size_t>(cap_, 1024));
  t_cache = {id_, &buf};
  return buf;
}

void Tracer::record(const char* name, Clock::time_point begin,
                    Clock::time_point end, int rank) {
  ThreadBuffer& buf = buffer(rank);
  if (buf.events.size() >= cap_) {
    ++buf.dropped;
    return;
  }
  buf.events.push_back({name, rank, toUs(begin), toUs(end) - toUs(begin)});
}

std::size_t Tracer::eventCount() const {
  std::lock_guard<std::mutex> lock(m_);
  std::size_t n = 0;
  for (const auto& b : buffers_) n += b->events.size();
  return n;
}

std::uint64_t Tracer::droppedEvents() const {
  std::lock_guard<std::mutex> lock(m_);
  std::uint64_t n = 0;
  for (const auto& b : buffers_) n += b->dropped;
  return n;
}

std::size_t Tracer::threadCount() const {
  std::lock_guard<std::mutex> lock(m_);
  return buffers_.size();
}

std::vector<TraceEvent> Tracer::events() const {
  std::vector<TraceEvent> out;
  {
    std::lock_guard<std::mutex> lock(m_);
    for (const auto& b : buffers_)
      out.insert(out.end(), b->events.begin(), b->events.end());
  }
  std::sort(out.begin(), out.end(), [](const TraceEvent& a, const TraceEvent& b) {
    return a.beginUs < b.beginUs;
  });
  return out;
}

void Tracer::clear() {
  std::lock_guard<std::mutex> lock(m_);
  for (auto& b : buffers_) {
    b->events.clear();
    b->dropped = 0;
  }
}

void Tracer::writeChromeTrace(std::ostream& os) const {
  const std::vector<TraceEvent> evs = events();

  // Ranks present, for thread-name metadata rows.
  std::vector<int> ranks;
  for (const TraceEvent& e : evs) ranks.push_back(e.rank);
  std::sort(ranks.begin(), ranks.end());
  ranks.erase(std::unique(ranks.begin(), ranks.end()), ranks.end());

  os << "{\"traceEvents\":[";
  bool first = true;
  for (const int r : ranks) {
    if (!first) os << ",";
    first = false;
    os << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":" << r
       << ",\"args\":{\"name\":" << json_quote("rank " + std::to_string(r))
       << "}}";
  }
  for (const TraceEvent& e : evs) {
    if (!first) os << ",";
    first = false;
    // Six decimals: nanosecond resolution on the microsecond timeline.
    os << "{\"name\":" << json_quote(e.name)
       << ",\"ph\":\"X\",\"ts\":" << json_number(e.beginUs, 6)
       << ",\"dur\":" << json_number(e.durUs, 6) << ",\"pid\":0,\"tid\":"
       << e.rank << "}";
  }
  os << "],\"displayTimeUnit\":\"ms\"}\n";
}

void Tracer::writeChromeTrace(const std::string& path) const {
  std::ofstream os(path, std::ios::trunc);
  if (!os) throw Error("Tracer: cannot open '" + path + "' for writing");
  writeChromeTrace(os);
  os.flush();
  if (!os) throw Error("Tracer: write failed for '" + path + "'");
}

}  // namespace swlb::obs
