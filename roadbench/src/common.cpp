#include "common.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>

namespace rb {

Expected Expected::load(const std::string& path, std::size_t per_variant) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read expected outputs " + path);
  Expected e;
  e.rows_.resize(kPoolSize);
  std::vector<bool> seen(kPoolSize, false);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    std::uint32_t v = 0;
    if (!(ls >> v) || v >= kPoolSize || seen[v])
      throw std::runtime_error("bad variant line in " + path + ": " + line);
    seen[v] = true;
    std::string hex;
    while (ls >> hex) e.rows_[v].push_back(std::stoull(hex, nullptr, 16));
    if (e.rows_[v].size() != per_variant)
      throw std::runtime_error("wrong digest count in " + path + ": " + line);
  }
  if (std::find(seen.begin(), seen.end(), false) != seen.end())
    throw std::runtime_error("missing variants in " + path);
  return e;
}

void Expected::write(const std::string& path,
                     const std::vector<std::vector<std::uint64_t>>& rows) {
  std::ofstream out(path);
  out << "# roadbench expected outputs: <variant> <identity digest>...\n";
  for (std::size_t v = 0; v < rows.size(); ++v) {
    out << v;
    for (const std::uint64_t d : rows[v]) {
      char buf[24];
      std::snprintf(buf, sizeof buf, " %016llx",
                    static_cast<unsigned long long>(d));
      out << buf;
    }
    out << "\n";
  }
  if (!out) throw std::runtime_error("cannot write " + path);
}

void Tally::check(bool ok, const std::string& what) {
  ++attempted;
  if (ok) return;
  ++failed;
  if (errors.size() < 8) errors.push_back(what);
}

double median(std::vector<double> v) { return percentile(std::move(v), 50); }

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(v.size())));
  return v[rank == 0 ? 0 : rank - 1];
}

double peak_rss_mb() {
  // VmHWM, not getrusage: ru_maxrss keeps the launcher's peak across exec.
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("VmHWM:", 0) == 0)
      return std::stod(line.substr(6)) / 1024.0;  // the line is in kB
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

SpanLog::Scope SpanLog::open(SpanLog* log, const char* name,
                             const char* layer, std::uint64_t group) {
  if (!log) return Scope(nullptr, -1);
  return Scope(log, log->begin(name, layer, group));
}

int SpanLog::begin(const char* name, const char* layer, std::uint64_t group) {
  Span s;
  s.name = name;
  s.layer = layer;
  s.group = group;
  s.parent = stack_.empty() ? -1 : stack_.back();
  s.start = seconds_between(t0_, Clock::now());
  spans_.push_back(std::move(s));
  const int idx = static_cast<int>(spans_.size() - 1);
  stack_.push_back(idx);
  return idx;
}

void SpanLog::close(int idx) {
  spans_[idx].end = seconds_between(t0_, Clock::now());
  stack_.pop_back();
}

std::map<std::string, double> SpanLog::self_by_layer() const {
  std::vector<double> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i)
    self[i] = spans_[i].end - spans_[i].start;
  for (const Span& s : spans_)
    if (s.parent >= 0) self[s.parent] -= s.end - s.start;
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i)
    out[spans_[i].layer] += self[i];
  return out;
}

double SpanLog::total(const std::string& name) const {
  double t = 0;
  for (const Span& s : spans_)
    if (s.name == name) t += s.end - s.start;
  return t;
}

std::size_t SpanLog::count(const std::string& name) const {
  return static_cast<std::size_t>(
      std::count_if(spans_.begin(), spans_.end(),
                    [&](const Span& s) { return s.name == name; }));
}

void write_spans(const std::string& path,
                 const std::vector<const SpanLog*>& logs) {
  std::ofstream out(path);
  out << "{\"schema\": \"roadbench-spans-1\", \"spans\": [";
  bool first = true;
  for (const SpanLog* log : logs) {
    for (const SpanLog::Span& s : log->spans()) {
      out << (first ? "\n" : ",\n") << "{\"section\": \"" << log->section()
          << "\", \"name\": \"" << s.name << "\", \"layer\": \"" << s.layer
          << "\", \"group\": " << s.group << ", \"parent\": " << s.parent
          << ", \"start_s\": " << num(s.start)
          << ", \"end_s\": " << num(s.end) << "}";
      first = false;
    }
  }
  out << "\n]}\n";
  if (!out) throw std::runtime_error("cannot write " + path);
}

std::string num(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[64];
  const auto r = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, r.ptr);
}

void print_result(const Tally& tally, const std::vector<Metric>& metrics) {
  std::ostringstream o;
  o << "{\"correct\": " << (tally.failed == 0 ? "true" : "false")
    << ", \"attempted\": " << tally.attempted
    << ", \"failed\": " << tally.failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    o << (i ? ", " : "") << "\"" << metrics[i].name
      << "\": {\"value\": " << num(metrics[i].value) << ", \"unit\": \""
      << metrics[i].unit << "\"}";
  }
  o << "}}";
  std::cout << o.str() << std::endl;
}

}  // namespace rb
