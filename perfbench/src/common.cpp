#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <stdexcept>

#include "trace/trace.hpp"
#include "util/json.hpp"

namespace perfbench {

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 ? values[mid]
                           : 0.5 * (values[mid - 1] + values[mid]);
}

void repeat_for(double seconds, const std::function<void()>& fn) {
  const double start = now_s();
  int calls = 0;
  do {
    fn();
    ++calls;
  } while ((now_s() - start) * (calls + 1) / calls <= seconds);
}

double ns_per_call(const std::function<void()>& fn, double budget_s) {
  fn();
  // Size the batch so five batches fill the budget.
  long calls = 1;
  for (;;) {
    const double t = time_call([&] {
      for (long i = 0; i < calls; ++i) fn();
    });
    if (t >= budget_s / 50.0 || calls >= (1L << 30)) {
      calls = std::max(1L, static_cast<long>(calls * (budget_s / 5.0) /
                                             std::max(t, 1e-9)));
      break;
    }
    calls *= 4;
  }
  std::vector<double> batches;
  for (int b = 0; b < 5; ++b)
    batches.push_back(time_call([&] {
                        for (long i = 0; i < calls; ++i) fn();
                      }) *
                      1e9 / static_cast<double>(calls));
  return median(batches);
}

// --- spans -------------------------------------------------------------------

int Tracer::open(std::string name) {
  const int id = static_cast<int>(spans_.size());
  spans_.push_back(
      {std::move(name), now_s(), 0.0, stack_.empty() ? -1 : stack_.back()});
  stack_.push_back(id);
  return id;
}

void Tracer::close(int id) {
  spans_[static_cast<std::size_t>(id)].end = now_s();
  if (!stack_.empty() && stack_.back() == id) stack_.pop_back();
}

void Tracer::record(std::string name, double start, double end, int parent) {
  spans_.push_back({std::move(name), start, end, parent});
}

void Tracer::rename(int id, std::string name) {
  spans_[static_cast<std::size_t>(id)].name = std::move(name);
}

std::map<std::string, double> Tracer::total_by_name() const {
  std::map<std::string, double> total;
  for (const Span& span : spans_) total[span.name] += span.end - span.start;
  return total;
}

std::map<std::string, double> Tracer::self_by_name() const {
  // Children may overlap (worker-thread spans), so subtract the part of the
  // parent's interval their union covers.
  std::vector<std::vector<std::pair<double, double>>> children(spans_.size());
  for (const Span& span : spans_)
    if (span.parent >= 0)
      children[static_cast<std::size_t>(span.parent)].emplace_back(span.start,
                                                                   span.end);
  std::map<std::string, double> self;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    double covered = 0.0, from = spans_[i].start;
    for (const auto& [start, end] : kids) {
      const double a = std::max(start, from);
      const double b = std::min(end, spans_[i].end);
      if (b > a) {
        covered += b - a;
        from = b;
      }
    }
    self[spans_[i].name] += spans_[i].end - spans_[i].start - covered;
  }
  return self;
}

void Tracer::write(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) throw std::runtime_error("cannot write " + path);
  out << std::setprecision(17);
  const double origin = spans_.empty() ? 0.0 : spans_.front().start;
  for (std::size_t i = 0; i < spans_.size(); ++i)
    out << "{\"id\":" << i << ",\"name\":\"" << spans_[i].name
        << "\",\"start_s\":" << spans_[i].start - origin
        << ",\"end_s\":" << spans_[i].end - origin
        << ",\"parent\":" << spans_[i].parent << "}\n";
}

void report_spans(const Tracer& tracer, const Args& args, Outcome& out) {
  const auto total = tracer.total_by_name();
  const auto self = tracer.self_by_name();
  out.report.push_back("span self time (s) / total (s):");
  for (const auto& [name, seconds] : self) {
    char line[160];
    std::snprintf(line, sizeof line, "  %-32s %12.6f %12.6f", name.c_str(),
                  seconds, total.at(name));
    out.report.emplace_back(line);
  }
  const std::string path =
      args.scratch_dir + "/spans-" + args.workload + ".jsonl";
  tracer.write(path);
  out.report.push_back("spans written to " + path);
}

// --- digest ------------------------------------------------------------------

std::string exact(double value) {
  char buffer[40];
  for (int precision = 15; precision <= 17; ++precision) {
    std::snprintf(buffer, sizeof buffer, "%.*g", precision, value);
    if (std::strtod(buffer, nullptr) == value) break;
  }
  return buffer;
}

namespace {

void flatten(const drhw::json::Value& value, const std::string& path,
             Digest& out) {
  using Kind = drhw::json::Value::Kind;
  switch (value.kind) {
    case Kind::object:
      for (const auto& [key, member] : value.members)
        flatten(member, path + "." + key, out);
      break;
    case Kind::array:
      out.emplace_back(path + ".size", std::to_string(value.items.size()));
      for (std::size_t i = 0; i < value.items.size(); ++i)
        flatten(value.items[i], path + "[" + std::to_string(i) + "]", out);
      break;
    case Kind::number:
      out.emplace_back(path, exact(value.number));
      break;
    case Kind::boolean:
      out.emplace_back(path, value.boolean ? "true" : "false");
      break;
    case Kind::string:
      out.emplace_back(path, value.text);
      break;
    case Kind::null:
      out.emplace_back(path, "null");
      break;
  }
}

}  // namespace

Digest online_digest(const drhw::OnlineReport& report) {
  Digest digest;
  flatten(drhw::json::parse(drhw::online_report_to_json(report),
                            "online report"),
          "report", digest);
  const drhw::PerfCounters& perf = report.perf;
  const auto add = [&](const char* name, std::uint64_t value) {
    digest.emplace_back(std::string("perf.") + name, std::to_string(value));
  };
  add("events_total", perf.events_total);
  add("queue_pushes", perf.queue_pushes);
  add("queue_pops", perf.queue_pops);
  add("queue_depth_max", perf.queue_depth_max);
  add("calendar_resizes", perf.calendar_resizes);
  add("arena_slots_peak", perf.arena_slots_peak);
  add("arena_slots_created", perf.arena_slots_created);
  add("allocations", perf.allocations);
  add("steady_allocations", perf.steady_allocations());
  return digest;
}

std::vector<std::string> diff_digest(const Digest& expected,
                                     const Digest& actual, bool layer) {
  std::map<std::string, std::string> have(actual.begin(), actual.end());
  std::vector<std::string> out;
  for (const auto& [key, value] : expected) {
    if (!layer && key.rfind("layer.", 0) == 0) continue;
    const auto it = have.find(key);
    if (it == have.end())
      out.push_back(key + ": missing (expected " + value + ")");
    else if (it->second != value)
      out.push_back(key + ": expected " + value + ", got " + it->second);
  }
  return out;
}

std::string digest_path(const Args& args) {
  return args.digest_dir + "/" + args.workload + ".s" +
         std::to_string(args.seed) + ".txt";
}

bool load_digest(const std::string& path, Digest& digest) {
  std::ifstream in(path);
  if (!in) return false;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    const auto tab = line.find('\t');
    if (tab == std::string::npos)
      throw std::runtime_error("malformed digest line in " + path);
    digest.emplace_back(line.substr(0, tab), line.substr(tab + 1));
  }
  return true;
}

void save_digest(const std::string& path, const Digest& digest) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) throw std::runtime_error("cannot write " + path);
  out << "# perfbench output digest: <key>\\t<exact value>\n";
  for (const auto& [key, value] : digest) out << key << '\t' << value << '\n';
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

}  // namespace perfbench
