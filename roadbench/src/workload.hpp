// The workload interface and the round loops every workload shares.
#pragma once

#include <memory>
#include <vector>

#include "common.hpp"

namespace rw {}

namespace rb {

// The benchmark drives the toolkit's public API throughout.
using namespace rw;

/// One round: the unit of work a run repeats, on one pool variant.
struct Round {
  double setup_s = 0;  // construction before the timed region
  double timed_s = 0;  // the timed region
  double work = 0;     // work units completed in the timed region
  std::vector<double> ops_s;  // host time a caller blocked, per operation
  /// Identity outputs, compared with the variant's committed row.
  std::vector<std::uint64_t> digests;
};

/// How a round runs. Plain rounds feed the end-to-end metrics; traced
/// rounds record spans; counting rounds attach the workload's counting
/// sinks for the exact per-layer counts and are never timed.
struct RoundMode {
  SpanLog* spans = nullptr;
  bool count = false;
  std::uint64_t group = 0;  // span identifier of this round
};

class Workload;

/// Runs rounds of one workload in the run seed's variant order and
/// checks each round's identity digests against the committed row.
class Runner {
 public:
  Runner(Workload& w, const Expected& expected, Tally& tally,
         std::uint64_t seed)
      : w_(w), expected_(expected), tally_(tally), seed_(seed) {}

  /// Run the next round of the sequence.
  Round next(const RoundMode& mode);
  [[nodiscard]] Tally& tally() { return tally_; }
  [[nodiscard]] const Expected& expected() const { return expected_; }
  [[nodiscard]] std::uint64_t seed() const { return seed_; }

 private:
  Workload& w_;
  const Expected& expected_;
  Tally& tally_;
  std::uint64_t seed_;
  std::uint64_t next_ = 0;
};

/// Timed region per round of a traced section, with and without spans.
struct TracedRounds {
  std::vector<double> traced_s;
  std::vector<double> plain_s;
};

/// A traced section's shared loop: `count_rounds` counting rounds, then
/// traced and plain rounds alternately until `budget_s` has passed.
TracedRounds run_traced_rounds(Runner& runner, SpanLog& spans,
                               std::size_t count_rounds, double budget_s);

/// Per-layer self time per traced round for each of `layers` (as
/// self_s.<section>.<layer>) and the section's tracing overhead (traced
/// minus plain median timed region, as trace_overhead_s.<section>).
void section_metrics(const std::string& section,
                     const std::vector<std::string>& layers,
                     const SpanLog& spans, const TracedRounds& tr,
                     std::vector<Metric>& out);

class Workload {
 public:
  virtual ~Workload() = default;
  [[nodiscard]] virtual const char* name() const = 0;
  /// What one unit of Round::work counts.
  [[nodiscard]] virtual const char* work_unit() const = 0;
  [[nodiscard]] virtual std::size_t digests_per_variant() const = 0;
  /// Run one round on pool variant `variant`. Output checks other than
  /// the identity digests go straight into `tally`.
  virtual Round round(std::uint32_t variant, Tally& tally,
                      const RoundMode& mode) = 0;
  /// The workload's traced section: records spans into `spans` and
  /// appends its per-layer metrics.
  virtual void traced(Runner& runner, SpanLog& spans, double budget_s,
                      std::vector<Metric>& out) = 0;
};

std::unique_ptr<Workload> make_vp_corpus();
std::unique_ptr<Workload> make_vp_tiled();
std::unique_ptr<Workload> make_ert_tenants();
std::unique_ptr<Workload> make_fuzz_sweep();

}  // namespace rb
