#pragma once

/// \file common.hpp
/// Shared pieces of the benchmark program: command-line options, the
/// in-memory span recorder of the layer-timing run, the output-correctness
/// digest, and the result a workload hands back to main().

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "sim/event_sim.hpp"

namespace perfbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 2005;
  double seconds = 10.0;
  /// true: the layer-timing run (per-layer metrics); false: the timed run
  /// (end-to-end metrics).
  bool trace = false;
  /// The benchmark definition; its metric lists fix the JSON line.
  std::string benchmark = "BENCHMARK.json";
  std::string digest_dir = "perfbench/digests";
  std::string scratch_dir = ".bench_build";
  /// Write the digest of this run instead of checking against it.
  bool record_digest = false;
};

/// Host seconds on the steady clock.
inline double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Wall time of one call of `fn`, in seconds.
inline double time_call(const std::function<void()>& fn) {
  const double t0 = now_s();
  fn();
  return now_s() - t0;
}

double median(std::vector<double> values);

/// Calls `fn` at least once and again while another call is expected to
/// finish within `seconds` of the start.
void repeat_for(double seconds, const std::function<void()>& fn);

/// Nanoseconds per call of `fn`: after one warm-up call, the median of the
/// per-call means of five batches that together take about `budget_s`.
double ns_per_call(const std::function<void()>& fn, double budget_s = 0.05);

// --- spans -------------------------------------------------------------------

/// One recorded layer boundary: name, host start/end, the enclosing span.
struct Span {
  std::string name;
  double start = 0.0;
  double end = 0.0;
  int parent = -1;
};

/// In-memory span recorder of the layer-timing run (single-threaded use).
/// Spans nest through an explicit stack; they are written out only when
/// the run ends.
class Tracer {
 public:
  int open(std::string name);
  void close(int id);
  /// Records an already finished span (e.g. reported by a worker thread).
  void record(std::string name, double start, double end, int parent);
  void rename(int id, std::string name);

  /// Sum of span durations per name.
  std::map<std::string, double> total_by_name() const;
  /// Self time per name: each span's duration minus the part of it that
  /// its children's spans cover.
  std::map<std::string, double> self_by_name() const;
  /// Writes the spans as JSON lines.
  void write(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// Scoped span; a null tracer records nothing.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, std::string name)
      : tracer_(tracer), id_(tracer ? tracer->open(std::move(name)) : -1) {}
  ~ScopedSpan() {
    if (tracer_) tracer_->close(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int id_;
};

// --- correctness digest ------------------------------------------------------

/// Ordered name -> exact value text. Keys starting with "layer." come from
/// the layer-timing run only.
using Digest = std::vector<std::pair<std::string, std::string>>;

/// Shortest text that reads back to the same double.
std::string exact(double value);

/// Every field of online_report_to_json() (the program's own field list),
/// flattened to "report.<path>" keys, plus the deterministic perf counters
/// as "perf.<name>".
Digest online_digest(const drhw::OnlineReport& report);

/// Compares `actual` with `expected` key by key. Returns one line per
/// mismatch or missing key; keys of `actual` that `expected` lacks are
/// ignored (new report fields do not invalidate a recorded digest). With
/// `layer` false, expected "layer.*" keys are skipped.
std::vector<std::string> diff_digest(const Digest& expected,
                                     const Digest& actual, bool layer);

std::string digest_path(const Args& args);
/// Reads a recorded digest; false when none exists for this seed.
bool load_digest(const std::string& path, Digest& digest);
void save_digest(const std::string& path, const Digest& digest);

// --- results -----------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What a workload run hands back to main().
struct Outcome {
  long attempted = 0;
  long failed = 0;
  /// Metrics for the JSON line (main() orders them as BENCHMARK.json does).
  std::vector<Metric> metrics;
  /// End-to-end metrics of this workload that only the human-readable
  /// table shows (they are not measured on every workload).
  std::vector<Metric> extra;
  /// Human-readable lines printed before the JSON line.
  std::vector<std::string> report;
  /// The digest this run produced (checked or recorded by main()).
  Digest digest;
  /// Peak RSS after set-up and the first timed operation; repeats only add
  /// allocator fragmentation. 0 = read it when the run ends.
  double peak_rss_mb = 0.0;
  /// Failed operations found by the workload's own consistency checks.
  std::vector<std::string> mismatches;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }

  /// Counts one checked operation; it failed when its checks added
  /// mismatches after index `before`.
  void count_op(std::size_t before) {
    ++attempted;
    if (mismatches.size() > before) ++failed;
  }
};

/// Peak resident set of this process, MiB.
double peak_rss_mb();

/// Prints `tracer`'s self-time table into `out` and writes the spans to
/// <scratch>/spans-<workload>.jsonl.
void report_spans(const Tracer& tracer, const Args& args, Outcome& out);

}  // namespace perfbench
