// roadbench shared pieces: options, the seeded input pool, committed
// expected outputs, output checks, statistics, host-time spans and the
// result line.
//
// Every workload draws its inputs from a fixed pool of kPoolSize seeded
// variants. The run's --seed picks which variant each round runs, so one
// seed always gives the same inputs, and the expected simulated outputs
// of every variant are committed beside the benchmark (expected/*.txt):
// each run checks each of its operations against them.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace rb {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point a,
                                            Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string expected_dir = "roadbench/expected";
  std::string out_dir = ".bench_build/roadbench-out";
};

// ---------------------------------------------------------------- inputs

inline constexpr std::uint32_t kPoolSize = 256;

[[nodiscard]] inline std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// The input seed of pool variant `v` (fixed: the expectations depend on
/// it).
[[nodiscard]] inline std::uint64_t variant_seed(std::uint32_t v) {
  return mix64(0x726f6164776f726bULL + v);
}

/// The variant round `round` of a run seeded `run_seed` uses.
[[nodiscard]] inline std::uint32_t round_variant(std::uint64_t run_seed,
                                                 std::uint64_t round) {
  return static_cast<std::uint32_t>(mix64(mix64(run_seed) ^ round) %
                                    kPoolSize);
}

/// Small deterministic generator for benchmark-side input streams.
class SplitMix {
 public:
  explicit SplitMix(std::uint64_t seed) : s_(seed) {}
  std::uint64_t next() { return mix64(s_++ * 0x9e3779b97f4a7c15ULL); }
  std::uint64_t below(std::uint64_t n) { return next() % n; }

 private:
  std::uint64_t s_;
};

/// FNV-1a over 64-bit words: the benchmark's identity digests.
class Digest {
 public:
  Digest& add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (i * 8)) & 0xff;
      h_ *= 1099511628211ULL;
    }
    return *this;
  }
  Digest& add(const std::string& s) {
    for (const char c : s) {
      h_ ^= static_cast<std::uint8_t>(c);
      h_ *= 1099511628211ULL;
    }
    return add(s.size());
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 1469598103934665603ULL;
};

// ------------------------------------------------------------ expectations

/// Committed expected outputs of one workload: for every pool variant, the
/// identity digests of its operations, in operation order. File format:
/// one line per variant, "<variant> <hex digest> <hex digest> ...".
class Expected {
 public:
  /// Throws std::runtime_error when the file is missing or malformed.
  static Expected load(const std::string& path, std::size_t per_variant);
  static void write(const std::string& path,
                    const std::vector<std::vector<std::uint64_t>>& rows);

  [[nodiscard]] const std::vector<std::uint64_t>& at(std::uint32_t v) const {
    return rows_.at(v);
  }

 private:
  std::vector<std::vector<std::uint64_t>> rows_;
};

/// Checked operations: every output check counts one attempt.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;  // first few, for stderr

  void check(bool ok, const std::string& what);
};

// --------------------------------------------------------------- statistics

[[nodiscard]] double median(std::vector<double> v);
/// Nearest-rank percentile, p in [0, 100].
[[nodiscard]] double percentile(std::vector<double> v, double p);
[[nodiscard]] double peak_rss_mb();

// -------------------------------------------------------------------- spans

/// Host-time spans recorded around each call into a layer (traced runs
/// only). Spans nest strictly (one thread), are kept in memory and written
/// out when the run ends. `group` identifies the platform run, job epoch
/// or campaign the span belongs to.
class SpanLog {
 public:
  struct Span {
    std::string name;
    std::string layer;
    std::uint64_t group = 0;
    int parent = -1;
    double start = 0;  // seconds since the log was created
    double end = 0;
  };

  class Scope {
   public:
    Scope(SpanLog* log, int idx) : log_(log), idx_(idx) {}
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    ~Scope() {
      if (log_) log_->close(idx_);
    }

   private:
    SpanLog* log_;
    int idx_;
  };

  /// `section` names the workload whose traced section records here.
  explicit SpanLog(std::string section) : section_(std::move(section)) {}

  /// Open a span; it closes when the returned scope ends. A null log
  /// records nothing.
  [[nodiscard]] static Scope open(SpanLog* log, const char* name,
                                  const char* layer, std::uint64_t group);

  /// Self time per layer: each span's duration minus what its children
  /// cover, summed by layer.
  [[nodiscard]] std::map<std::string, double> self_by_layer() const;
  /// Total duration and count of spans named `name`.
  [[nodiscard]] double total(const std::string& name) const;
  [[nodiscard]] std::size_t count(const std::string& name) const;

  [[nodiscard]] const std::string& section() const { return section_; }
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

 private:
  int begin(const char* name, const char* layer, std::uint64_t group);
  void close(int idx);

  std::string section_;
  Clock::time_point t0_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// Write every span of `logs` as one JSON document.
void write_spans(const std::string& path,
                 const std::vector<const SpanLog*>& logs);

// ------------------------------------------------------------------ metrics

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// Print the JSON result as the last stdout line: correct, attempted,
/// failed and every metric with its unit.
void print_result(const Tally& tally, const std::vector<Metric>& metrics);

/// Shortest round-trip text of a double.
[[nodiscard]] std::string num(double v);

}  // namespace rb
