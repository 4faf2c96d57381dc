// roadbench: host-time benchmark of the roadworks toolkit.
//
//   roadbench --workload NAME --seed N --seconds S --trace 0|1
//             [--expected-dir DIR] [--out-dir DIR]
//   roadbench --emit-expected NAME [--expected-dir DIR]
//
// --trace 0 measures the named workload for S seconds and prints the
// end-to-end metrics. --trace 1 runs the traced section of every workload
// (S/4 seconds each) and prints the per-layer metrics; spans are written to
// DIR/spans-<workload>-<seed>.json. --emit-expected regenerates the
// committed expected outputs of a workload's input pool. Every run checks
// its simulated outputs; the last stdout line is the JSON result.
#include <sys/utsname.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <stdexcept>
#include <string>
#include <thread>

#include "workload.hpp"

#ifndef RB_BUILD_TYPE
#define RB_BUILD_TYPE "unknown"
#endif
#ifndef RB_COMPILER
#define RB_COMPILER "unknown"
#endif

namespace rb {

Round Runner::next(const RoundMode& base) {
  const std::uint64_t r = next_++;
  const std::uint32_t v = round_variant(seed_, r);
  RoundMode mode = base;
  mode.group = r;
  auto span = SpanLog::open(mode.spans, "round", "bench", r);
  Round out = w_.round(v, tally_, mode);
  auto check = SpanLog::open(mode.spans, "bench.check", "bench", r);
  const std::vector<std::uint64_t>& want = expected_.at(v);
  for (std::size_t i = 0; i < want.size(); ++i)
    tally_.check(i < out.digests.size() && out.digests[i] == want[i],
                 std::string(w_.name()) + " variant " + std::to_string(v) +
                     " operation " + std::to_string(i) +
                     " differs from the expected outputs");
  return out;
}

TracedRounds run_traced_rounds(Runner& runner, SpanLog& spans,
                               std::size_t count_rounds, double budget_s) {
  TracedRounds tr;
  for (std::size_t k = 0; k < count_rounds; ++k)
    (void)runner.next(RoundMode{nullptr, true, 0});
  const auto t0 = Clock::now();
  for (std::size_t i = 0;
       i < 4 || seconds_between(t0, Clock::now()) < budget_s; ++i) {
    const bool traced = i % 2 == 0;
    const Round r = runner.next(RoundMode{traced ? &spans : nullptr, false, 0});
    (traced ? tr.traced_s : tr.plain_s).push_back(r.timed_s);
  }
  return tr;
}

void section_metrics(const std::string& section,
                     const std::vector<std::string>& layers,
                     const SpanLog& spans, const TracedRounds& tr,
                     std::vector<Metric>& out) {
  std::map<std::string, double> self = spans.self_by_layer();
  const double rounds = static_cast<double>(tr.traced_s.size());
  for (const std::string& layer : layers)
    out.push_back({"self_s." + section + "." + layer, self[layer] / rounds,
                   "s"});
  out.push_back({"trace_overhead_s." + section,
                 median(tr.traced_s) - median(tr.plain_s), "s"});
}

namespace {

const char* const kWorkloads[] = {"vp_corpus", "vp_tiled", "ert_tenants",
                                  "fuzz_sweep"};

std::unique_ptr<Workload> make_workload(const std::string& name) {
  if (name == "vp_corpus") return make_vp_corpus();
  if (name == "vp_tiled") return make_vp_tiled();
  if (name == "ert_tenants") return make_ert_tenants();
  if (name == "fuzz_sweep") return make_fuzz_sweep();
  throw std::invalid_argument("unknown workload '" + name + "'");
}

std::string expected_path(const Options& o, const std::string& workload) {
  return o.expected_dir + "/" + workload + ".txt";
}

// Rounds a plain run times at least, whatever --seconds says.
constexpr std::size_t kMinRounds = 20;

// The host's speed drifts by up to 1.7x in phases of seconds to minutes
// when other tenants load it, and a round's size varies with its variant.
// So the timing metrics are low percentiles over the run's rounds, which
// hold as long as a tenth of the run sees an unloaded host: wall_s is the
// 10th percentile of the round's timed region and throughput the 90th
// percentile of the per-round work rate. Set-up is the median of the
// run's set-ups.
std::vector<Metric> measure(Workload& w, const Options& o, Tally& tally) {
  const Expected exp =
      Expected::load(expected_path(o, w.name()), w.digests_per_variant());
  Runner runner(w, exp, tally, o.seed);
  // Warm-up (checked, not timed): caches, allocator and lazy set-up.
  const auto w0 = Clock::now();
  do {
    (void)runner.next({});
  } while (seconds_between(w0, Clock::now()) < std::min(1.0, o.seconds / 10));

  std::vector<double> setup, timed, rates, ops;
  const auto t0 = Clock::now();
  while (timed.size() < kMinRounds ||
         seconds_between(t0, Clock::now()) < o.seconds) {
    const Round r = runner.next({});
    setup.push_back(r.setup_s);
    timed.push_back(r.timed_s);
    rates.push_back(r.work / r.timed_s);
    ops.insert(ops.end(), r.ops_s.begin(), r.ops_s.end());
  }

  std::cout << "# " << w.name() << ": rounds=" << timed.size()
            << " wall_median_s=" << num(median(timed)) << " "
            << w.work_unit() << "_per_s_median=" << num(median(rates))
            << " ops=" << ops.size()
            << " op_p50_ms=" << num(1e3 * percentile(ops, 50))
            << " op_p90_ms=" << num(1e3 * percentile(ops, 90))
            << " op_p99_ms=" << num(1e3 * percentile(ops, 99))
            << " error_rate="
            << num(double(tally.failed) / double(tally.attempted)) << "\n";
  return {
      {"setup_s", median(setup), "s"},
      {"wall_s", percentile(timed, 10), "s"},
      {"throughput_per_s", percentile(rates, 90), "1/s"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
  };
}

std::vector<Metric> trace_all(const Options& o, Tally& tally) {
  std::vector<Metric> out;
  std::vector<std::unique_ptr<Workload>> keep;
  std::vector<Expected> exps;
  std::vector<std::unique_ptr<SpanLog>> logs;
  for (const char* name : kWorkloads) {
    keep.push_back(make_workload(name));
    exps.push_back(Expected::load(expected_path(o, name),
                                  keep.back()->digests_per_variant()));
    logs.push_back(std::make_unique<SpanLog>(name));
  }
  for (std::size_t i = 0; i < keep.size(); ++i) {
    Runner runner(*keep[i], exps[i], tally, o.seed);
    keep[i]->traced(runner, *logs[i], o.seconds / 4, out);
  }
  out.push_back({"bench.peak_rss_mb", peak_rss_mb(), "MB"});

  std::filesystem::create_directories(o.out_dir);
  const std::string path = o.out_dir + "/spans-" + o.workload + "-" +
                           std::to_string(o.seed) + ".json";
  std::vector<const SpanLog*> view;
  for (const auto& l : logs) view.push_back(l.get());
  write_spans(path, view);
  std::cout << "# spans: " << path << "\n";
  return out;
}

void emit_expected(const Options& o) {
  auto w = make_workload(o.workload);
  std::vector<std::vector<std::uint64_t>> rows(kPoolSize);
  Tally tally;
  for (std::uint32_t v = 0; v < kPoolSize; ++v)
    rows[v] = w->round(v, tally, {}).digests;
  if (tally.failed != 0)
    throw std::runtime_error("output checks failed while emitting");
  Expected::write(expected_path(o, o.workload), rows);
  std::cerr << "wrote " << expected_path(o, o.workload) << "\n";
}

void print_meta(const Options& o) {
  double load[3] = {0, 0, 0};
  if (getloadavg(load, 3) != 3) load[0] = load[1] = load[2] = -1;
  utsname u{};
  uname(&u);
  std::cout << "# meta {\"workload\": \"" << o.workload
            << "\", \"seed\": " << o.seed
            << ", \"seconds\": " << num(o.seconds)
            << ", \"trace\": " << (o.trace ? 1 : 0)
            << ", \"nproc\": " << std::thread::hardware_concurrency()
            << ", \"build_type\": \"" << RB_BUILD_TYPE
            << "\", \"compiler\": \"" << RB_COMPILER
            << "\", \"host\": \"" << u.sysname << " " << u.release << " "
            << u.machine << "\", \"loadavg\": [" << num(load[0]) << ", "
            << num(load[1]) << ", " << num(load[2]) << "]}\n";
  if (std::string(RB_BUILD_TYPE) != "Release")
    std::cerr << "WARNING: roadbench built as '" << RB_BUILD_TYPE
              << "', not Release: its timings are not comparable\n";
}

Options parse(int argc, char** argv, bool& emit) {
  Options o;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + a);
    const std::string v = argv[++i];
    if (a == "--workload") {
      o.workload = v;
      have_workload = true;
    } else if (a == "--emit-expected") {
      o.workload = v;
      have_workload = emit = true;
    } else if (a == "--seed") {
      o.seed = std::stoull(v);
    } else if (a == "--seconds") {
      o.seconds = std::stod(v);
    } else if (a == "--trace") {
      o.trace = v != "0";
    } else if (a == "--expected-dir") {
      o.expected_dir = v;
    } else if (a == "--out-dir") {
      o.out_dir = v;
    } else {
      throw std::invalid_argument("unknown argument " + a);
    }
  }
  if (!have_workload) throw std::invalid_argument("--workload is required");
  (void)make_workload(o.workload);  // validates the name
  if (!(o.seconds > 0)) throw std::invalid_argument("--seconds must be > 0");
  return o;
}

int run(int argc, char** argv) {
  bool emit = false;
  const Options o = parse(argc, argv, emit);
  if (emit) {
    emit_expected(o);
    return 0;
  }
  print_meta(o);
  Tally tally;
  std::vector<Metric> metrics;
  if (o.trace) {
    metrics = trace_all(o, tally);
  } else {
    auto w = make_workload(o.workload);
    metrics = measure(*w, o, tally);
  }
  for (const std::string& e : tally.errors)
    std::cerr << "check failed: " << e << "\n";
  print_result(tally, metrics);
  return 0;
}

}  // namespace
}  // namespace rb

int main(int argc, char** argv) {
  try {
    return rb::run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "roadbench: " << e.what() << "\n";
    return 2;
  }
}
