// Execution tracing.
//
// Sec. VII names "hardware and software tracing capabilities" as a key
// virtual-platform debugging feature: "a history of function execution
// within the different processes, and their access to memories and
// peripherals". Every component of the platform reports events here; the
// vpdebug layer and the experiment harnesses consume them.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "common/callback_list.hpp"
#include "common/ids.hpp"
#include "common/units.hpp"

namespace rw::sim {

struct CoreTag {};
using CoreId = Id<CoreTag>;

enum class TraceKind : std::uint8_t {
  kTaskStart,
  kTaskEnd,
  kComputeStart,
  kComputeEnd,
  kMsgSend,
  kMsgRecv,
  kMemRead,
  kMemWrite,
  kIrqRaise,
  kIrqAck,
  kDmaStart,
  kDmaEnd,
  kFreqChange,
  kSchedDispatch,
  kSchedPreempt,
  kCustom,
};

const char* trace_kind_name(TraceKind k);

struct TraceEvent {
  TimePs time = 0;
  TraceKind kind = TraceKind::kCustom;
  CoreId core{};
  std::string label;    // task/function/peripheral name
  std::uint64_t a = 0;  // kind-specific (address, irq line, value, ...)
  std::uint64_t b = 0;  // kind-specific (size, old value, ...)

  [[nodiscard]] std::string to_string() const;
};

class Tracer;

/// Seed of every trace digest. It is the decimal FNV-1a offset basis with
/// its last digit dropped; kept so fingerprints stay comparable across
/// versions.
inline constexpr std::uint64_t kTraceDigestSeed = 1469598103934665603ULL;

/// A digest slot: the running FNV-1a fold of one tracer's event stream
/// (time, kind, core, label, a, b of every event, plus the event count).
/// Tracer::record folds into each attached slot straight from its
/// arguments; no TraceEvent is built for it. A slot detaches itself when
/// destroyed and is detached by its tracer if the tracer dies first, so
/// either may outlive the other. The slot is written by the thread that
/// records on its tracer (one tile's thread on a tiled platform).
class TraceDigest {
 public:
  TraceDigest() = default;
  ~TraceDigest() { detach(); }
  TraceDigest(const TraceDigest&) = delete;
  TraceDigest& operator=(const TraceDigest&) = delete;

  /// Fold every later event recorded on `tracer` (detaches first).
  void attach(Tracer& tracer);
  void detach();

  [[nodiscard]] std::uint64_t hash() const { return hash_; }
  [[nodiscard]] std::uint64_t count() const { return count_; }

  /// Out of line on purpose: inlined, the unrolled fold bloated every
  /// record() site (GCC 12 -O3 gave MemorySystem::write_u64 a 376-byte
  /// spill frame) on the simulator's hottest paths.
  void fold(TimePs time, TraceKind kind, CoreId core, std::string_view label,
            std::uint64_t a, std::uint64_t b);

 private:
  friend class Tracer;
  Tracer* tracer_ = nullptr;
  std::uint64_t hash_ = kTraceDigestSeed;
  std::uint64_t count_ = 0;
};

/// Trace fan-out. Every event is folded into the attached digest slots
/// (the ExecutionRecorder's per-tile fingerprints); a TraceEvent is built
/// only when a live listener (the debugger) or buffer retention
/// (set_enabled(true)) asks for one. With neither, record() builds
/// nothing.
class Tracer {
 public:
  using Listener = std::function<void(const TraceEvent&)>;
  using ListenerToken = CallbackList<Listener>::Token;

  Tracer() = default;
  ~Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  void set_enabled(bool on) { enabled_ = on; }
  [[nodiscard]] bool enabled() const { return enabled_; }

  /// Live listener invoked synchronously on every event, even when buffer
  /// retention is disabled. The token removes exactly this listener.
  ListenerToken add_listener(Listener fn) {
    return listeners_.add(std::move(fn));
  }
  void remove_listener(ListenerToken token) { listeners_.remove(token); }

  void record(TimePs time, TraceKind kind, CoreId core, std::string_view label,
              std::uint64_t a = 0, std::uint64_t b = 0) {
    for (TraceDigest* d : digests_) d->fold(time, kind, core, label, a, b);
    if (!enabled_ && listeners_.empty()) return;
    publish(TraceEvent{time, kind, core, std::string(label), a, b});
  }

  [[nodiscard]] const std::vector<TraceEvent>& events() const {
    return events_;
  }
  void clear() { events_.clear(); }

  /// Events matching a predicate (convenience for tests and reports).
  [[nodiscard]] std::vector<TraceEvent> filter(TraceKind kind) const {
    std::vector<TraceEvent> out;
    for (const auto& e : events_)
      if (e.kind == kind) out.push_back(e);
    return out;
  }

 private:
  friend class TraceDigest;
  void publish(TraceEvent ev);

  bool enabled_ = false;
  std::vector<TraceDigest*> digests_;
  std::vector<TraceEvent> events_;
  CallbackList<Listener> listeners_;
};

}  // namespace rw::sim
