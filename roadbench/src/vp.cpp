// Virtual-platform workloads: vp_corpus (untiled 4-core platforms running
// the perf corpus) and vp_tiled (tiled_pipeline on 4 tiles).
#include <algorithm>
#include <optional>
#include <stdexcept>
#include <string>

#include "perf/workload.hpp"
#include "sim/perf_hooks.hpp"
#include "sim/platform.hpp"
#include "vpdebug/replay.hpp"
#include "workload.hpp"

namespace rb {
namespace {

// Scales sized so one platform run takes milliseconds of host time: long
// enough that the run, not set-up, dominates, short enough for hundreds
// of operations per run.
constexpr std::uint64_t kCorpusScale = 128;
constexpr std::uint64_t kTiledScale = 192;

struct CorpusEntry {
  const char* workload;
  bool mesh;
};

// pipeline and forkjoin give identical results on bus and mesh, so only
// the contention-bound shared_hammer runs on both fabrics.
constexpr CorpusEntry kCorpus[] = {
    {"pipeline", false},
    {"forkjoin", false},
    {"shared_hammer", false},
    {"shared_hammer", true},
};
constexpr std::size_t kCorpusSize = std::size(kCorpus);
constexpr std::size_t kHammerBus = 2;

sim::PlatformConfig corpus_config(bool mesh) {
  sim::PlatformConfig cfg = sim::PlatformConfig::homogeneous(4);
  if (mesh) {
    cfg.interconnect = sim::PlatformConfig::Icn::kMesh;
    cfg.mesh.width = 2;
    cfg.mesh.height = 2;
  }
  return cfg;
}

sim::PlatformConfig tiled_config(sim::ExecMode mode) {
  sim::PlatformConfig cfg = sim::PlatformConfig::homogeneous(4);
  sim::apply_tiling(cfg, 4, /*partition_cores=*/true);
  cfg.kernel.exec = mode;
  return cfg;
}

/// Counting PMU sink: exact per-component work counts.
class CountingSink final : public sim::PerfSink {
 public:
  std::uint64_t cycles = 0;
  std::uint64_t compute_blocks = 0;
  std::uint64_t mem_accesses = 0;
  std::uint64_t mem_shared = 0;
  std::uint64_t transfers = 0;
  std::uint64_t contention_ps = 0;
  std::uint64_t dma_bytes = 0;

  void on_core_reserve(sim::CoreId, Cycles c, TimePs, TimePs,
                       HertzT) override {
    cycles += c;
  }
  void on_compute_block(sim::CoreId, const std::string&, Cycles, TimePs,
                        TimePs) override {
    ++compute_blocks;
  }
  void on_mem_access(sim::CoreId, bool, bool local, std::uint32_t,
                     Cycles) override {
    ++mem_accesses;
    if (!local) ++mem_shared;
  }
  void on_transfer(sim::CoreId, sim::CoreId, std::uint64_t, DurationPs wait,
                   DurationPs, std::uint32_t) override {
    ++transfers;
    contention_ps += wait;
  }
  void on_dma(std::uint64_t bytes, TimePs, TimePs) override {
    dma_bytes += bytes;
  }

  void emit(std::vector<Metric>& out) const {
    out.push_back({"sim.core.cycles", double(cycles), "count"});
    out.push_back({"sim.core.compute_blocks", double(compute_blocks), "count"});
    out.push_back({"sim.memory.accesses", double(mem_accesses), "count"});
    out.push_back({"sim.memory.shared_frac",
                   double(mem_shared) / double(mem_accesses), "ratio"});
    out.push_back({"sim.interconnect.transfers", double(transfers), "count"});
    out.push_back(
        {"sim.interconnect.contention_ps", double(contention_ps), "ps"});
    out.push_back({"sim.dma.bytes", double(dma_bytes), "B"});
  }
};

struct PlatformRun {
  double setup_s = 0;
  double run_s = 0;
  std::uint64_t events = 0;
  std::uint64_t makespan = 0;
  std::uint64_t fingerprint = 0;
  std::uint64_t trace_events = 0;
  std::uint64_t cycles = 0;
  std::uint64_t epochs = 0;
  std::uint64_t cross_posts = 0;
  bool used_parallel = false;

  [[nodiscard]] std::uint64_t digest() const {
    return Digest().add(events).add(makespan).add(fingerprint).value();
  }
};

/// One platform run: build, attach, spawn (set-up), then run (timed).
PlatformRun run_platform(const sim::PlatformConfig& cfg, const char* workload,
                         std::uint64_t seed, std::uint64_t scale,
                         bool recorder, sim::PerfSink* sink, SpanLog* spans,
                         std::uint64_t group) {
  PlatformRun out;
  const bool tiled = cfg.kernel.num_tiles > 1;
  auto run_span = SpanLog::open(spans, "platform_run", "bench", group);
  // Declared before the platform so it outlives every trace listener call.
  std::optional<vpdebug::ExecutionRecorder> rec;
  std::unique_ptr<sim::Platform> p;

  const auto t0 = Clock::now();
  {
    auto s = SpanLog::open(spans, "sim.platform.build", "sim", group);
    p = std::make_unique<sim::Platform>(cfg);
  }
  if (recorder) {
    auto s = SpanLog::open(spans, "vpdebug.attach", "vpdebug", group);
    rec.emplace(*p);
  }
  if (sink) p->set_perf_sink(sink);
  {
    auto s = SpanLog::open(spans, "sim.spawn", "sim", group);
    if (!perf::spawn_workload(workload, *p, seed, scale))
      throw std::runtime_error(std::string("unknown workload ") + workload);
  }
  const auto t1 = Clock::now();
  {
    auto s = SpanLog::open(spans, tiled ? "sim.parallel.run" : "sim.run",
                           tiled ? "sim.parallel" : "sim", group);
    p->run();
  }
  const auto t2 = Clock::now();

  out.setup_s = seconds_between(t0, t1);
  out.run_s = seconds_between(t1, t2);
  out.makespan = p->now();
  if (sim::TiledEngine* e = p->engine()) {
    out.events = e->events_executed();
    out.epochs = e->epochs();
    out.cross_posts = e->cross_posts();
    out.used_parallel = e->last_run_parallel();
  } else {
    out.events = p->kernel().events_executed();
  }
  for (const auto& c : p->cores()) out.cycles += c->cycles_executed();
  if (rec) {
    out.fingerprint = rec->fingerprint();
    out.trace_events = rec->events();
  }
  return out;
}

// ---------------------------------------------------------------- vp_corpus

class VpCorpus final : public Workload {
 public:
  const char* name() const override { return "vp_corpus"; }
  const char* work_unit() const override { return "sim_cycles"; }
  std::size_t digests_per_variant() const override { return kCorpusSize; }

  Round round(std::uint32_t v, Tally&, const RoundMode& mode) override {
    Round r;
    for (std::size_t i = 0; i < kCorpusSize; ++i) {
      const PlatformRun o = run_platform(
          corpus_config(kCorpus[i].mesh), kCorpus[i].workload,
          variant_seed(v), kCorpusScale, /*recorder=*/true,
          mode.count ? &sink_ : nullptr, mode.spans,
          mode.group * kCorpusSize + i);
      r.setup_s += o.setup_s;
      r.timed_s += o.run_s;
      r.work += static_cast<double>(o.cycles);
      r.ops_s.push_back(o.run_s);
      r.digests.push_back(o.digest());
      if (mode.count) {
        events_ += o.events;
        trace_events_ += o.trace_events;
      }
      if (mode.spans) {
        traced_events_ += o.events;
        traced_run_s_ += o.run_s;
      }
    }
    return r;
  }

  void traced(Runner& runner, SpanLog& spans, double budget_s,
              std::vector<Metric>& out) override {
    const TracedRounds tr =
        run_traced_rounds(runner, spans, kCountRounds, 0.6 * budget_s);
    const double runs = static_cast<double>(spans.count("sim.run"));

    // Recorder cost on shared_hammer: the same variant with and without
    // the recorder, alternating which goes first.
    std::vector<double> on_s, off_s, trace_ev;
    const auto t0 = Clock::now();
    for (std::uint64_t i = 0;
         i < 4 || seconds_between(t0, Clock::now()) < 0.4 * budget_s; ++i) {
      const std::uint32_t v = round_variant(runner.seed(), 1000 + i);
      const sim::PlatformConfig cfg = corpus_config(false);
      const char* wl = kCorpus[kHammerBus].workload;
      PlatformRun on, off;
      for (int k = 0; k < 2; ++k) {
        if ((k == 0) == (i % 2 == 0))
          on = run_platform(cfg, wl, variant_seed(v), kCorpusScale, true,
                            nullptr, nullptr, 0);
        else
          off = run_platform(cfg, wl, variant_seed(v), kCorpusScale, false,
                             nullptr, nullptr, 0);
      }
      runner.tally().check(
          on.digest() == runner.expected().at(v)[kHammerBus],
          "vp_corpus recorder run identity");
      runner.tally().check(
          on.events == off.events && on.makespan == off.makespan,
          "vp_corpus recorder changes the simulation");
      on_s.push_back(on.run_s);
      off_s.push_back(off.run_s);
      trace_ev.push_back(static_cast<double>(on.trace_events));
    }
    const double recorder_s = median(on_s) - median(off_s);

    out.push_back({"sim.platform.build_s",
                   spans.total("sim.platform.build") / runs, "s"});
    out.push_back({"sim.spawn_s", spans.total("sim.spawn") / runs, "s"});
    out.push_back({"sim.run_s", spans.total("sim.run") / runs, "s"});
    out.push_back({"sim.kernel.events", double(events_), "count"});
    out.push_back({"sim.kernel.ns_per_event",
                   1e9 * traced_run_s_ / double(traced_events_), "ns"});
    sink_.emit(out);
    out.push_back({"sim.trace.events", double(trace_events_), "count"});
    out.push_back({"vpdebug.recorder_s", recorder_s, "s"});
    out.push_back({"vpdebug.ns_per_trace_event",
                   1e9 * recorder_s / median(trace_ev), "ns"});
    section_metrics(name(), {"bench", "sim", "vpdebug"}, spans, tr, out);
  }

 private:
  static constexpr std::size_t kCountRounds = 4;
  CountingSink sink_;
  std::uint64_t events_ = 0;
  std::uint64_t trace_events_ = 0;
  std::uint64_t traced_events_ = 0;
  double traced_run_s_ = 0;
};

// ---------------------------------------------------------------- vp_tiled

class VpTiled final : public Workload {
 public:
  const char* name() const override { return "vp_tiled"; }
  const char* work_unit() const override { return "sim_cycles"; }
  std::size_t digests_per_variant() const override { return 1; }

  Round round(std::uint32_t v, Tally&, const RoundMode& mode) override {
    const PlatformRun o = run_tiled(v, sim::ExecMode::kSequential,
                                    mode.count ? &sink_ : nullptr,
                                    mode.spans, mode.group);
    if (mode.count) {
      epochs_ += o.epochs;
      cross_posts_ += o.cross_posts;
      events_ += o.events;
    }
    if (mode.spans) {
      traced_epochs_ += o.epochs;
      traced_run_s_ += o.run_s;
    }
    Round r;
    r.setup_s = o.setup_s;
    r.timed_s = o.run_s;
    r.work = static_cast<double>(o.cycles);
    r.ops_s.push_back(o.run_s);
    r.digests.push_back(o.digest());
    return r;
  }

  void traced(Runner& runner, SpanLog& spans, double budget_s,
              std::vector<Metric>& out) override {
    const TracedRounds tr =
        run_traced_rounds(runner, spans, kCountRounds, 0.6 * budget_s);
    const double runs = static_cast<double>(spans.count("sim.parallel.run"));

    // The threaded engine, recorded but never gated on: each kParallel
    // run must match kSequential bit for bit; its speed is diagnostic.
    std::vector<double> ratio;
    double used = 0;
    const auto t0 = Clock::now();
    const auto more = [&](std::uint64_t i) {
      return i < kMaxParRuns &&
             (i < kMinParRuns ||
              seconds_between(t0, Clock::now()) < 0.4 * budget_s);
    };
    for (std::uint64_t i = 0; more(i); ++i) {
      const std::uint32_t v = round_variant(runner.seed(), 2000 + i);
      const PlatformRun seq =
          run_tiled(v, sim::ExecMode::kSequential, nullptr, nullptr, 0);
      const PlatformRun par =
          run_tiled(v, sim::ExecMode::kParallel, nullptr, nullptr, 0);
      runner.tally().check(seq.digest() == runner.expected().at(v)[0],
                           "vp_tiled kSequential identity");
      runner.tally().check(par.digest() == seq.digest(),
                           "vp_tiled kParallel differs from kSequential");
      ratio.push_back(par.run_s / seq.run_s);
      used += par.used_parallel ? 1 : 0;
    }

    out.push_back({"sim.parallel.run_s", spans.total("sim.parallel.run") / runs,
                   "s"});
    out.push_back({"sim.parallel.epochs", double(epochs_), "count"});
    out.push_back({"sim.parallel.cross_posts", double(cross_posts_), "count"});
    out.push_back({"sim.parallel.events_per_epoch",
                   double(events_) / double(epochs_), "ratio"});
    out.push_back({"sim.parallel.us_per_epoch",
                   1e6 * traced_run_s_ / double(traced_epochs_), "us"});
    out.push_back({"sim.parallel.par_over_seq_min",
                   *std::min_element(ratio.begin(), ratio.end()), "ratio"});
    out.push_back({"sim.parallel.par_over_seq_median", median(ratio), "ratio"});
    out.push_back({"sim.parallel.par_over_seq_max",
                   *std::max_element(ratio.begin(), ratio.end()), "ratio"});
    out.push_back({"sim.parallel.used_parallel",
                   used / static_cast<double>(ratio.size()), "ratio"});
    // The tiled pipeline has no shared memory, fabric transfer or DMA.
    out.push_back({"tiled.sim.core.cycles", double(sink_.cycles), "count"});
    out.push_back({"tiled.sim.core.compute_blocks",
                   double(sink_.compute_blocks), "count"});
    out.push_back(
        {"tiled.sim.memory.accesses", double(sink_.mem_accesses), "count"});
    section_metrics(name(), {"bench", "sim", "sim.parallel", "vpdebug"},
                    spans, tr, out);
  }

 private:
  static constexpr std::size_t kCountRounds = 4;
  static constexpr std::uint64_t kMinParRuns = 3;
  static constexpr std::uint64_t kMaxParRuns = 7;

  PlatformRun run_tiled(std::uint32_t v, sim::ExecMode mode,
                        sim::PerfSink* sink, SpanLog* spans,
                        std::uint64_t group) {
    return run_platform(tiled_config(mode), "tiled_pipeline", variant_seed(v),
                        kTiledScale, /*recorder=*/true, sink, spans, group);
  }

  CountingSink sink_;
  std::uint64_t epochs_ = 0;
  std::uint64_t cross_posts_ = 0;
  std::uint64_t events_ = 0;
  std::uint64_t traced_epochs_ = 0;
  double traced_run_s_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_vp_corpus() {
  return std::make_unique<VpCorpus>();
}
std::unique_ptr<Workload> make_vp_tiled() {
  return std::make_unique<VpTiled>();
}

}  // namespace rb
