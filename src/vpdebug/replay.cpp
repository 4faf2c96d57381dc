#include "vpdebug/replay.hpp"

#include "common/fnv.hpp"

namespace rw::vpdebug {

ExecutionRecorder::ExecutionRecorder(sim::Platform& platform)
    : slots_(platform.tile_count()) {
  for (std::size_t t = 0; t < slots_.size(); ++t)
    slots_[t].attach(platform.tile_tracer(static_cast<std::uint32_t>(t)));
}

std::uint64_t ExecutionRecorder::fingerprint() const {
  // One tile: exactly the historical single-stream digest.
  if (slots_.size() == 1) return slots_[0].hash();
  // Many tiles: combine (tile, digest, count) in tile order. Counts are
  // folded so a tile swallowing another's events cannot cancel out.
  std::uint64_t h = sim::kTraceDigestSeed;
  for (std::size_t t = 0; t < slots_.size(); ++t) {
    h = fnv::fold_word(h, t);
    h = fnv::fold_word(h, slots_[t].hash());
    h = fnv::fold_word(h, slots_[t].count());
  }
  return h;
}

std::uint64_t ExecutionRecorder::events() const {
  std::uint64_t n = 0;
  for (const sim::TraceDigest& s : slots_) n += s.count();
  return n;
}

}  // namespace rw::vpdebug
