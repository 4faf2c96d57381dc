// fuzz_sweep: fixed-seed fuzz campaigns with shrink on, the harness pool
// one thread short of the host. Thousands of short, set-up-heavy
// simulations across every scenario family.
#include <algorithm>
#include <thread>

#include "fuzz/campaign.hpp"
#include "workload.hpp"

namespace rb {
namespace {

constexpr std::uint64_t kCampaignSeeds = 256;
constexpr std::uint64_t kFamilySeeds = 64;

std::size_t pool_threads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 1 ? hw - 1 : 1;
}

fuzz::CampaignConfig campaign(std::uint64_t base_seed, std::uint64_t seeds) {
  fuzz::CampaignConfig cfg;
  cfg.seeds = seeds;
  cfg.base_seed = base_seed;
  cfg.shrink = true;
  cfg.threads = pool_threads();
  return cfg;
}

class FuzzSweep final : public Workload {
 public:
  const char* name() const override { return "fuzz_sweep"; }
  const char* work_unit() const override { return "cases"; }
  std::size_t digests_per_variant() const override { return 2; }

  Round round(std::uint32_t v, Tally& tally, const RoundMode& mode) override {
    Round r;
    // Set-up: the fixed cost every campaign pays (pool, report, one case),
    // measured as a one-seed campaign without the directed fill.
    fuzz::CampaignConfig probe = campaign(variant_seed(v) ^ 1, 1);
    probe.directed_fill = false;
    const auto t0 = Clock::now();
    fuzz::CampaignReport start;
    {
      auto s = SpanLog::open(mode.spans, "fuzz.startup", "fuzz", mode.group);
      start = fuzz::run_campaign(probe);
    }
    const auto t1 = Clock::now();
    fuzz::CampaignReport rep;
    {
      auto s = SpanLog::open(mode.spans, "fuzz.campaign", "fuzz", mode.group);
      rep = fuzz::run_campaign(campaign(variant_seed(v), kCampaignSeeds));
    }
    const auto t2 = Clock::now();
    r.setup_s = seconds_between(t0, t1);
    r.timed_s = seconds_between(t1, t2);
    r.work = static_cast<double>(rep.cases);
    r.ops_s.push_back(r.timed_s);

    auto check = SpanLog::open(mode.spans, "bench.check", "bench", mode.group);
    tally.check(start.green(), "fuzz start-up campaign found a failure");
    tally.check(rep.green(), "fuzz campaign found a failure");
    r.digests.push_back(Digest().add(start.to_json()).value());
    r.digests.push_back(Digest().add(rep.to_json()).value());
    if (mode.count) {
      cases_ += rep.cases;
      sub_runs_ += rep.sub_runs;
      shrink_runs_ += rep.shrink_runs;
      if (!rep.batches.empty()) threads_used_ = rep.batches[0].threads_used;
    }
    return r;
  }

  void traced(Runner& runner, SpanLog& spans, double budget_s,
              std::vector<Metric>& out) override {
    const TracedRounds tr =
        run_traced_rounds(runner, spans, kCountRounds, 0.6 * budget_s);
    out.push_back({"fuzz.campaign_s",
                   spans.total("fuzz.campaign") /
                       double(spans.count("fuzz.campaign")),
                   "s"});
    out.push_back({"fuzz.cases", double(cases_), "count"});
    out.push_back({"fuzz.sub_runs", double(sub_runs_), "count"});
    out.push_back({"fuzz.shrink_runs", double(shrink_runs_), "count"});
    out.push_back({"harness.threads_used", double(threads_used_), "count"});

    // One masked campaign per family: where campaign time goes.
    const std::uint64_t base = variant_seed(round_variant(runner.seed(), 3000));
    for (std::size_t f = 0; f < fuzz::kNumFamilies; ++f) {
      const auto fam = static_cast<fuzz::Family>(f);
      fuzz::CampaignConfig cfg = campaign(base + f, kFamilySeeds);
      cfg.family_mask = fuzz::family_bit(fam);
      const auto t0 = Clock::now();
      const fuzz::CampaignReport rep = fuzz::run_campaign(cfg);
      const double s = seconds_between(t0, Clock::now());
      runner.tally().check(
          rep.green() && rep.family_cases[f] == rep.cases,
          std::string("fuzz family campaign ") + fuzz::family_name(fam));
      out.push_back(
          {std::string("fuzz.") + fuzz::family_name(fam) + "_s", s, "s"});
    }
    section_metrics(name(), {"bench", "fuzz"}, spans, tr, out);
  }

 private:
  static constexpr std::size_t kCountRounds = 2;
  std::uint64_t cases_ = 0;
  std::uint64_t sub_runs_ = 0;
  std::uint64_t shrink_runs_ = 0;
  std::size_t threads_used_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_fuzz_sweep() {
  return std::make_unique<FuzzSweep>();
}

}  // namespace rb
