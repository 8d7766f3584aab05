// Benchmark program: runs one workload and prints its metrics, the last
// line of standard output being one JSON object
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// with the end-to-end metrics (--trace 0) or the per-layer metrics of the
// layer-timing run (--trace 1). See perfbench/README.md.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>

#include "common.hpp"
#include "util/json.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

const char* const k_workloads[] = {"paper-campaign", "online-light",
                                   "online-contended", "online-traced"};

[[noreturn]] void usage(const std::string& error) {
  std::cerr << "error: " << error
            << "\nusage: perfbench --workload W [--seed N] [--seconds S] "
               "[--trace 0|1] [--benchmark FILE] [--digest-dir DIR] "
               "[--scratch-dir DIR] [--record-digest]\nworkloads:";
  for (const char* w : k_workloads) std::cerr << ' ' << w;
  std::cerr << '\n';
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--record-digest") {
      args.record_digest = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload")
        args.workload = value;
      else if (flag == "--seed")
        args.seed = std::stoull(value);
      else if (flag == "--seconds")
        args.seconds = std::stod(value);
      else if (flag == "--trace")
        args.trace = std::stoi(value) != 0;
      else if (flag == "--benchmark")
        args.benchmark = value;
      else if (flag == "--digest-dir")
        args.digest_dir = value;
      else if (flag == "--scratch-dir")
        args.scratch_dir = value;
      else
        usage("unknown option " + flag);
    } catch (const std::logic_error&) {
      usage("bad value for " + flag + ": " + value);
    }
  }
  bool known = false;
  for (const char* w : k_workloads) known = known || args.workload == w;
  if (!known) usage("unknown workload '" + args.workload + "'");
  if (args.seconds <= 0.0) usage("--seconds must be positive");
  if (args.record_digest && !args.trace)
    usage("--record-digest needs --trace 1 (the digest covers both runs)");
  return args;
}

/// Compares the run's digest with the recorded one for this seed (or
/// records it). Returns the failed operations it adds.
long check_digest(const Args& args, Outcome& out) {
  const std::string path = digest_path(args);
  if (args.record_digest) {
    save_digest(path, out.digest);
    out.report.push_back("digest recorded: " + path);
    return 0;
  }
  Digest expected;
  if (!load_digest(path, expected)) {
    out.report.push_back("no recorded digest for seed " +
                         std::to_string(args.seed) +
                         ": repeat and cross-path consistency checks only");
    return 0;
  }
  const std::vector<std::string> lines =
      diff_digest(expected, out.digest, args.trace);
  for (const std::string& line : lines)
    out.mismatches.push_back("digest " + line);
  out.report.push_back("digest " + path + ": " +
                       (lines.empty() ? "match" : "MISMATCH"));
  if (lines.empty()) return 0;
  if (args.workload != "paper-campaign") return out.attempted;
  // One failed operation per scenario with a mismatching metric.
  std::set<std::string> scenarios;
  for (const std::string& line : lines) {
    const auto dot = line.rfind('.', line.find(':'));
    scenarios.insert(line.substr(0, dot));
  }
  return static_cast<long>(scenarios.size());
}

/// The metric list the JSON line must carry: BENCHMARK.json "end_to_end"
/// (timed run) or "per_layer" (layer-timing run), in file order.
std::vector<Metric> declared_metrics(const Args& args) {
  std::ifstream in(args.benchmark);
  if (!in) throw std::runtime_error("cannot read " + args.benchmark);
  std::stringstream text;
  text << in.rdbuf();
  const drhw::json::Value doc = drhw::json::parse(text.str(), args.benchmark);
  std::vector<Metric> out;
  for (const auto& m : doc.at(args.trace ? "per_layer" : "end_to_end").items)
    out.push_back({m.at("name").text, 0.0, m.at("unit").text});
  return out;
}

std::string json_number(double value) {
  return std::isfinite(value) ? exact(value) : "null";
}

int run(const Args& args) {
  std::filesystem::create_directories(args.scratch_dir);
  const std::vector<Metric> declared = declared_metrics(args);
  Outcome out;
  if (args.workload == "paper-campaign")
    run_paper_campaign(args, out);
  else
    run_online_workload(args, out);
  out.add("peak_rss_mb",
          out.peak_rss_mb > 0.0 ? out.peak_rss_mb : peak_rss_mb(), "MiB");
  out.failed = std::min(out.attempted, out.failed + check_digest(args, out));

  for (const std::string& line : out.report) std::cout << line << '\n';
  constexpr std::size_t k_shown = 20;
  for (std::size_t i = 0; i < out.mismatches.size() && i < k_shown; ++i) {
    std::cout << "FAILED " << out.mismatches[i] << '\n';
    std::cerr << "FAILED " << out.mismatches[i] << '\n';
  }
  if (out.mismatches.size() > k_shown)
    std::cout << "... " << out.mismatches.size() - k_shown
              << " more failed checks\n";

  std::map<std::string, Metric> by_name;
  for (const Metric& m : out.metrics) by_name[m.name] = m;
  std::string json;
  std::cout << (args.trace ? "per-layer" : "end-to-end") << " metrics, "
            << args.workload << ", seed " << args.seed << ":\n";
  for (const Metric& want : declared) {
    const auto it = by_name.find(want.name);
    if (it == by_name.end() || it->second.unit != want.unit)
      throw std::logic_error("metric not produced in " + want.unit + ": " +
                             want.name);
    const Metric& m = it->second;
    std::printf("  %-30s %20s %s\n", m.name.c_str(),
                json_number(m.value).c_str(), m.unit.c_str());
    json += (json.empty() ? "" : ", ") + ("\"" + m.name + "\": {\"value\": ") +
            json_number(m.value) + ", \"unit\": \"" + m.unit + "\"}";
  }
  for (const Metric& m : out.extra)
    std::printf("  %-30s %20s %s\n", m.name.c_str(),
                json_number(m.value).c_str(), m.unit.c_str());
  std::printf("  %-30s %20s %%\n", "failed_ops_pct",
              json_number(100.0 * static_cast<double>(out.failed) /
                          static_cast<double>(std::max(out.attempted, 1L)))
                  .c_str());
  std::cout << "{\"correct\": " << (out.failed == 0 ? "true" : "false")
            << ", \"attempted\": " << out.attempted
            << ", \"failed\": " << out.failed << ", \"metrics\": {" << json
            << "}}" << std::endl;
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const perfbench::Args args = perfbench::parse_args(argc, argv);
  try {
    return perfbench::run(args);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << args.workload << ": " << e.what() << '\n';
    return 1;
  }
}
