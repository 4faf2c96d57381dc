// Fingerprint values and hook lifetimes.
//
// Rerun equality alone cannot catch a fold that changes every fingerprint
// the same way, so the golden tests below pin ExecutionRecorder values for
// small corpus runs. The values were taken with the one-multiply-per-byte
// fold the recorder was defined with; any change to them changes what
// every committed determinism identity means.
#include <gtest/gtest.h>

#include <memory>

#include "perf/workload.hpp"
#include "sim/parallel.hpp"
#include "sim/platform.hpp"
#include "vpdebug/debugger.hpp"
#include "vpdebug/race.hpp"
#include "vpdebug/replay.hpp"

namespace rw::vpdebug {
namespace {

constexpr std::uint64_t kSeed = 7;
constexpr std::uint64_t kScale = 2;

sim::PlatformConfig bus4() { return sim::PlatformConfig::homogeneous(4); }

sim::PlatformConfig mesh4() {
  sim::PlatformConfig cfg = bus4();
  cfg.interconnect = sim::PlatformConfig::Icn::kMesh;
  cfg.mesh.width = 2;
  cfg.mesh.height = 2;
  return cfg;
}

sim::PlatformConfig tiled4(sim::ExecMode mode) {
  sim::PlatformConfig cfg = bus4();
  sim::apply_tiling(cfg, 4, /*partition_cores=*/true);
  cfg.kernel.exec = mode;
  return cfg;
}

struct Recorded {
  std::uint64_t fingerprint = 0;
  std::uint64_t events = 0;
};

Recorded record(const sim::PlatformConfig& cfg, const char* workload,
                std::uint64_t scale = kScale, bool force_threads = false) {
  sim::Platform p(cfg);
  if (force_threads && p.engine() != nullptr)
    p.engine()->set_force_threads(true);
  ExecutionRecorder rec(p);
  EXPECT_TRUE(perf::spawn_workload(workload, p, kSeed, scale));
  p.run();
  return {rec.fingerprint(), rec.events()};
}

struct Golden {
  const char* workload;
  bool mesh;
  std::uint64_t fingerprint;
  std::uint64_t events;
};

TEST(RecorderGolden, UntiledCorpus) {
  const Golden golden[] = {
      {"pipeline", false, 0xf0abc7f6e9ba75ebULL, 512},
      {"forkjoin", false, 0x7dc833b1fdafc674ULL, 144},
      {"shared_hammer", false, 0x4919dfe480f9705fULL, 2186},
      {"shared_hammer", true, 0xd9b1c637bff73b72ULL, 2186},
  };
  for (const Golden& g : golden) {
    const Recorded r = record(g.mesh ? mesh4() : bus4(), g.workload);
    EXPECT_EQ(r.fingerprint, g.fingerprint)
        << g.workload << (g.mesh ? " mesh" : " bus");
    EXPECT_EQ(r.events, g.events) << g.workload;
  }
}

TEST(RecorderGolden, TiledPipelineSequentialAndParallel) {
  constexpr std::uint64_t kFingerprint = 0xbbe49f002a5c4a14ULL;
  const Recorded seq =
      record(tiled4(sim::ExecMode::kSequential), "tiled_pipeline");
  EXPECT_EQ(seq.fingerprint, kFingerprint);
  EXPECT_EQ(seq.events, 704u);
  const Recorded par = record(tiled4(sim::ExecMode::kParallel),
                              "tiled_pipeline", kScale,
                              /*force_threads=*/true);
  EXPECT_EQ(par.fingerprint, kFingerprint);
  EXPECT_EQ(par.events, 704u);
}

// ---------------------------------------------------------- hook lifetimes

TEST(HookLifetime, ShortLivedDebuggerKeepsRecorderAttached) {
  const Recorded reference = record(bus4(), "pipeline", 4);
  ASSERT_GT(reference.events, 0u);

  sim::Platform p(bus4());
  ExecutionRecorder rec(p);
  { Debugger dbg(p); }  // must remove only its own hooks
  ASSERT_TRUE(perf::spawn_workload("pipeline", p, kSeed, 4));
  p.run();
  EXPECT_EQ(rec.events(), reference.events);
  EXPECT_EQ(rec.fingerprint(), reference.fingerprint);
}

TEST(HookLifetime, ShortLivedDebuggerKeepsRaceDetectorAttached) {
  // shared_hammer also drives the DMA, so the dead debugger's signal
  // observers would fire too if they were left behind.
  sim::Platform p(bus4());
  RaceDetector det(p, p.shared_base(), 0x1000);
  { Debugger dbg(p); }
  ASSERT_TRUE(perf::spawn_workload("shared_hammer", p, kSeed, kScale));
  p.run();
  EXPECT_GT(det.accesses_observed(), 0u);
}

TEST(HookLifetime, RecorderDestroyedMidRunDetaches) {
  sim::Platform p(bus4());
  auto rec = std::make_unique<ExecutionRecorder>(p);
  ExecutionRecorder survivor(p);
  ASSERT_TRUE(perf::spawn_workload("pipeline", p, kSeed, kScale));
  p.run_until(100'000'000);
  const std::uint64_t seen = rec->events();
  EXPECT_GT(seen, 0u);
  rec.reset();
  p.run();
  // The survivor saw the whole run, unchanged by its sibling's departure.
  EXPECT_EQ(survivor.events(), 512u);
  EXPECT_EQ(survivor.fingerprint(), 0xf0abc7f6e9ba75ebULL);
  EXPECT_LT(seen, survivor.events());
}

TEST(HookLifetime, RecorderMayOutliveItsPlatform) {
  std::unique_ptr<ExecutionRecorder> rec;
  {
    sim::Platform p(tiled4(sim::ExecMode::kSequential));
    rec = std::make_unique<ExecutionRecorder>(p);
    ASSERT_TRUE(perf::spawn_workload("tiled_pipeline", p, kSeed, kScale));
    p.run();
  }
  EXPECT_EQ(rec->fingerprint(), 0xbbe49f002a5c4a14ULL);
  rec.reset();  // detaching from dead tracers must not touch them
}

TEST(HookLifetime, RaceDetectorDestroyedMidRunDetaches) {
  sim::Platform p(bus4());
  auto det = std::make_unique<RaceDetector>(p, p.shared_base(), 0x1000);
  ASSERT_TRUE(perf::spawn_workload("shared_hammer", p, kSeed, kScale));
  p.run_until(10'000'000);
  EXPECT_GT(det->accesses_observed(), 0u);
  det.reset();
  p.run();
  EXPECT_TRUE(p.kernel().empty());
}

}  // namespace
}  // namespace rw::vpdebug
