// ert_tenants: one ert::Service, four tenants, a closed loop with one
// client that submits an epoch of template jobs and then waits for them.
#include <algorithm>
#include <array>
#include <stdexcept>
#include <string>

#include "ert/service.hpp"
#include "ert/templates.hpp"
#include "workload.hpp"

namespace rb {
namespace {

constexpr std::size_t kEpochs = 8;
constexpr std::size_t kJobsPerEpoch = 64;
constexpr DurationPs kMeanGap = microseconds(20);

struct TenantPlan {
  const char* name;
  double share;
  bool reserved;
  ert::QosClass qos;
  std::uint64_t weight;  // relative share of the submitted jobs
};

// A reserved realtime tenant, two standard tenants with unequal shares
// and a batch tenant.
constexpr std::array<TenantPlan, 4> kTenants = {{
    {"rt", 0.25, true, ert::QosClass::kRealtime, 2},
    {"std_a", 0.5, false, ert::QosClass::kStandard, 3},
    {"std_b", 0.2, false, ert::QosClass::kStandard, 3},
    {"batch", 0.1, false, ert::QosClass::kBatch, 2},
}};
constexpr std::uint64_t kWeightSum = 10;
constexpr std::uint64_t kScales[] = {1, 2, 4};

struct JobPlan {
  std::size_t tenant = 0;
  std::string templ;
  std::uint64_t scale = 1;
  DurationPs offset = 0;  // arrival after the epoch's start
};

ert::JobSpec make_spec(const JobPlan& p) {
  ert::JobSpec spec = ert::make_template(p.templ, p.scale);
  spec.qos = kTenants[p.tenant].qos;
  if (spec.qos == ert::QosClass::kRealtime && spec.deadline == 0)
    spec.deadline = microseconds(400) * p.scale;
  if (spec.qos != ert::QosClass::kRealtime) spec.deadline = 0;
  return spec;
}

/// The seeded job stream of one round: kEpochs epochs of kJobsPerEpoch.
std::vector<std::vector<JobPlan>> job_stream(std::uint64_t seed) {
  SplitMix rng(seed);
  const std::vector<std::string> names = ert::template_names();
  std::vector<std::vector<JobPlan>> epochs(kEpochs);
  for (auto& epoch : epochs) {
    DurationPs offset = 0;
    for (std::size_t j = 0; j < kJobsPerEpoch; ++j) {
      JobPlan p;
      std::uint64_t w = rng.below(kWeightSum);
      while (w >= kTenants[p.tenant].weight) w -= kTenants[p.tenant++].weight;
      p.templ = names[rng.below(names.size())];
      p.scale = kScales[rng.below(std::size(kScales))];
      offset += rng.below(2 * kMeanGap);
      p.offset = offset;
      epoch.push_back(std::move(p));
    }
  }
  return epochs;
}

class ErtTenants final : public Workload {
 public:
  const char* name() const override { return "ert_tenants"; }
  const char* work_unit() const override { return "jobs"; }
  std::size_t digests_per_variant() const override { return kTenants.size(); }

  Round round(std::uint32_t v, Tally& tally, const RoundMode& mode) override {
    Round r;
    const auto plans = job_stream(variant_seed(v));

    const auto t0 = Clock::now();
    std::unique_ptr<ert::Service> svc;
    std::vector<ert::Session> sessions;
    std::vector<std::vector<ert::JobSpec>> specs(kEpochs);
    {
      auto s = SpanLog::open(mode.spans, "ert.setup", "ert", mode.group);
      svc = std::make_unique<ert::Service>(ert::ServiceConfig{});
      for (const TenantPlan& t : kTenants) {
        auto session = svc->open_session(
            ert::TenantConfig{t.name, t.share, t.reserved, UINT64_MAX});
        if (!session.ok())
          throw std::runtime_error(session.error().to_string());
        sessions.push_back(session.value());
      }
      for (std::size_t e = 0; e < kEpochs; ++e)
        for (const JobPlan& p : plans[e]) specs[e].push_back(make_spec(p));
    }
    r.setup_s = seconds_between(t0, Clock::now());

    for (std::size_t e = 0; e < kEpochs; ++e) {
      const std::uint64_t group = mode.group * kEpochs + e;
      auto epoch_span = SpanLog::open(mode.spans, "epoch", "bench", group);
      std::vector<ert::JobHandle> handles;
      handles.reserve(kJobsPerEpoch);
      const auto s0 = Clock::now();
      {
        auto s = SpanLog::open(mode.spans, "ert.submit", "ert", group);
        const TimePs base = svc->now();
        for (std::size_t j = 0; j < kJobsPerEpoch; ++j) {
          specs[e][j].arrival = base + plans[e][j].offset;
          handles.push_back(
              sessions[plans[e][j].tenant].submit(std::move(specs[e][j])));
        }
      }
      const auto s1 = Clock::now();
      {
        auto s = SpanLog::open(mode.spans, "ert.drain", "ert", group);
        (void)handles.back().result();
      }
      const auto s2 = Clock::now();
      r.timed_s += seconds_between(s0, s2);
      r.ops_s.push_back(seconds_between(s1, s2));

      // The service's own contract: each job's metrics equal the direct
      // execution model on its granted gang.
      auto check_span =
          SpanLog::open(mode.spans, "bench.check", "bench", group);
      std::vector<ert::JobSpec> submitted_specs;
      for (const JobPlan& p : plans[e]) submitted_specs.push_back(make_spec(p));
      std::vector<RunMetrics> direct(kJobsPerEpoch);
      {
        auto s = SpanLog::open(mode.spans, "maps.heft", "maps", group);
        for (std::size_t j = 0; j < kJobsPerEpoch; ++j)
          if (handles[j].ready() && handles[j].result().ok())
            direct[j] = ert::job_execution_metrics(
                submitted_specs[j], handles[j].result().value().cores,
                svc->config());
      }
      for (std::size_t j = 0; j < kJobsPerEpoch; ++j) {
        if (!handles[j].ready()) {
          tally.check(false, "ert job not complete after drain");
          continue;
        }
        const auto& res = handles[j].result();
        if (!res.ok()) {
          tally.check(false, "ert job failed: " + res.error().to_string());
          continue;
        }
        const RunMetrics& got = res.value().metrics;
        tally.check(got.makespan == direct[j].makespan &&
                        got.mean_core_utilization ==
                            direct[j].mean_core_utilization &&
                        got.deadline_misses == direct[j].deadline_misses,
                    "ert job metrics differ from job_execution_metrics");
        r.work += 1;
      }
    }

    std::uint64_t submitted = 0;
    for (const ert::TenantStats& s : svc->all_tenant_stats()) {
      r.digests.push_back(Digest()
                              .add(s.fingerprint)
                              .add(s.completed)
                              .add(s.rejected)
                              .add(s.deadline_misses)
                              .add(s.peak_cores)
                              .value());
      submitted += s.submitted;
      if (mode.count) {
        completed_ += s.completed;
        rejected_ += s.rejected;
        misses_ += s.deadline_misses;
        peak_cores_ = std::max<std::uint64_t>(peak_cores_, s.peak_cores);
      }
    }
    if (mode.count) submitted_ += submitted;
    if (mode.spans)
      drains_.insert(drains_.end(), r.ops_s.begin(), r.ops_s.end());
    return r;
  }

  void traced(Runner& runner, SpanLog& spans, double budget_s,
              std::vector<Metric>& out) override {
    const TracedRounds tr =
        run_traced_rounds(runner, spans, kCountRounds, budget_s);
    const double epochs = static_cast<double>(spans.count("epoch"));
    const double drain = spans.total("ert.drain") / epochs;
    const double heft = spans.total("maps.heft") / epochs;
    out.push_back({"ert.setup_s",
                   spans.total("ert.setup") / double(spans.count("ert.setup")),
                   "s"});
    out.push_back({"ert.submit_s", spans.total("ert.submit") / epochs, "s"});
    out.push_back({"ert.drain_s", drain, "s"});
    out.push_back({"maps.heft_s", heft, "s"});
    out.push_back({"ert.engine_self_s", drain - heft, "s"});
    out.push_back({"ert.drain_p50_us", 1e6 * percentile(drains_, 50), "us"});
    out.push_back({"ert.drain_p99_us", 1e6 * percentile(drains_, 99), "us"});
    out.push_back({"ert.completed", double(completed_), "count"});
    out.push_back({"ert.rejected_frac",
                   double(rejected_) / double(submitted_), "ratio"});
    out.push_back({"ert.deadline_misses", double(misses_), "count"});
    out.push_back({"ert.peak_cores", double(peak_cores_), "count"});
    section_metrics(name(), {"bench", "ert", "maps"}, spans, tr, out);
  }

 private:
  static constexpr std::size_t kCountRounds = 4;
  std::uint64_t submitted_ = 0;
  std::uint64_t completed_ = 0;
  std::uint64_t rejected_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t peak_cores_ = 0;
  std::vector<double> drains_;
};

}  // namespace

std::unique_ptr<Workload> make_ert_tenants() {
  return std::make_unique<ErtTenants>();
}

}  // namespace rb
