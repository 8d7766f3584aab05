#include "wio/workload_format.hpp"

#include <cerrno>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "util/numfmt.hpp"

namespace drhw {

namespace {

struct Token {
  std::string text;
  int column = 1;  ///< 1-based
};

/// Tokens of one line, `#` comments stripped.
std::vector<Token> tokenize(const std::string& line) {
  std::vector<Token> tokens;
  std::size_t at = 0;
  while (at < line.size()) {
    while (at < line.size() &&
           (line[at] == ' ' || line[at] == '\t' || line[at] == '\r'))
      ++at;
    if (at >= line.size() || line[at] == '#') break;
    const std::size_t start = at;
    while (at < line.size() && line[at] != ' ' && line[at] != '\t' &&
           line[at] != '\r' && line[at] != '#')
      ++at;
    tokens.push_back(
        {line.substr(start, at - start), static_cast<int>(start) + 1});
  }
  return tokens;
}

[[noreturn]] void fail(int line, int column, const std::string& message) {
  throw WioParseError(line, column, message);
}

long parse_long(const Token& token, int line, const char* what) {
  errno = 0;
  char* end = nullptr;
  const long value = std::strtol(token.text.c_str(), &end, 10);
  if (errno != 0 || end == token.text.c_str() || *end != '\0')
    fail(line, token.column,
         std::string(what) + ": '" + token.text + "' is not an integer");
  return value;
}

double parse_double(const Token& token, int line, const char* what) {
  errno = 0;
  char* end = nullptr;
  const double value = std::strtod(token.text.c_str(), &end);
  if (errno != 0 || end == token.text.c_str() || *end != '\0')
    fail(line, token.column,
         std::string(what) + ": '" + token.text + "' is not a number");
  return value;
}

/// Kahn's algorithm over the variant's edges; true iff acyclic.
bool is_acyclic(std::size_t nodes,
                const std::vector<std::pair<int, int>>& edges) {
  std::vector<int> in_degree(nodes, 0);
  std::vector<std::vector<int>> succs(nodes);
  for (const auto& [from, to] : edges) {
    ++in_degree[static_cast<std::size_t>(to)];
    succs[static_cast<std::size_t>(from)].push_back(to);
  }
  std::vector<int> ready;
  for (std::size_t i = 0; i < nodes; ++i)
    if (in_degree[i] == 0) ready.push_back(static_cast<int>(i));
  std::size_t seen = 0;
  while (!ready.empty()) {
    const int at = ready.back();
    ready.pop_back();
    ++seen;
    for (int next : succs[static_cast<std::size_t>(at)])
      if (--in_degree[static_cast<std::size_t>(next)] == 0)
        ready.push_back(next);
  }
  return seen == nodes;
}

/// Recursive-descent-over-lines parser. One instance per parse() call.
class Parser {
 public:
  explicit Parser(const std::string& text) : in_(text) {}

  WorkloadFile run() {
    expect_header();
    std::string line;
    while (next_line(line)) {
      const std::vector<Token> tokens = tokenize(line);
      if (tokens.empty()) continue;
      top_level(tokens);
    }
    finish();
    return std::move(file_);
  }

 private:
  void expect_header() {
    std::string line;
    while (next_line(line)) {
      const std::vector<Token> tokens = tokenize(line);
      if (tokens.empty()) continue;
      if (tokens.size() != 1 || tokens[0].text != k_workload_schema)
        fail(line_, tokens[0].column,
             std::string("expected the version header '") +
                 k_workload_schema + "'");
      return;
    }
    fail(line_ + 1, 1, std::string("empty file: missing the '") +
                           k_workload_schema + "' header");
  }

  void top_level(const std::vector<Token>& tokens) {
    const Token& key = tokens[0];
    if (key.text == "configs") {
      need_args(tokens, 1, "configs <count>");
      const long count = parse_long(tokens[1], line_, "configs");
      if (count <= 0)
        fail(line_, tokens[1].column, "configs: count must be positive");
      file_.configs = static_cast<int>(count);
    } else if (key.text == "arrivals") {
      need_args(tokens, 1, "arrivals <kind>");
      try {
        file_.arrivals.kind = arrival_kind_from_string(tokens[1].text);
      } catch (const std::exception&) {
        fail(line_, tokens[1].column,
             "unknown arrival kind '" + tokens[1].text + "'");
      }
      file_.has_arrivals = true;
      arrivals_block();
    } else if (key.text == "mix") {
      mix_block();
    } else if (key.text == "task") {
      need_args(tokens, 1, "task <name>");
      for (const WorkloadTask& task : file_.tasks)
        if (task.name == tokens[1].text)
          fail(line_, tokens[1].column,
               "duplicate task '" + tokens[1].text + "'");
      WorkloadTask task;
      task.name = tokens[1].text;
      task_block(task);
      file_.tasks.push_back(std::move(task));
    } else {
      fail(line_, key.column, "unknown key '" + key.text + "' at top level");
    }
  }

  void arrivals_block() {
    const int open_line = line_;
    std::string line;
    while (next_line(line)) {
      const std::vector<Token> tokens = tokenize(line);
      if (tokens.empty()) continue;
      const Token& key = tokens[0];
      if (key.text == "end") return;
      if (key.text == "rate") {
        need_args(tokens, 1, "rate <per_s>");
        file_.arrivals.rate_per_s = parse_double(tokens[1], line_, "rate");
      } else if (key.text == "burst") {
        need_args(tokens, 1, "burst <n>");
        file_.arrivals.burst_size =
            static_cast<int>(parse_long(tokens[1], line_, "burst"));
      } else if (key.text == "gap") {
        need_args(tokens, 1, "gap <us>");
        file_.arrivals.intra_burst_gap = parse_long(tokens[1], line_, "gap");
      } else if (key.text == "think") {
        need_args(tokens, 1, "think <us>");
        file_.arrivals.think_time = parse_long(tokens[1], line_, "think");
      } else if (key.text == "period") {
        need_args(tokens, 1, "period <us>");
        file_.arrivals.period_us = parse_long(tokens[1], line_, "period");
      } else {
        fail(line_, key.column,
             "unknown key '" + key.text + "' in arrivals block");
      }
    }
    fail_truncated(open_line, "arrivals");
  }

  void mix_block() {
    const int open_line = line_;
    std::string line;
    while (next_line(line)) {
      const std::vector<Token> tokens = tokenize(line);
      if (tokens.empty()) continue;
      const Token& key = tokens[0];
      if (key.text == "end") return;
      if (key.text == "include_prob") {
        need_args(tokens, 1, "include_prob <p>");
        const double p = parse_double(tokens[1], line_, "include_prob");
        if (p < 0.0 || p > 1.0)
          fail(line_, tokens[1].column, "include_prob must be in [0, 1]");
        file_.include_prob = p;
      } else if (key.text == "use") {
        need_args(tokens, 2, "use <task> <weight>");
        WorkloadMixEntry entry;
        entry.task = tokens[1].text;
        entry.weight = parse_double(tokens[2], line_, "use weight");
        if (entry.weight < 0.0)
          fail(line_, tokens[2].column, "use: weight must be >= 0");
        file_.mix.push_back(std::move(entry));
        use_lines_.push_back({line_, tokens[1].column});
      } else {
        fail(line_, key.column, "unknown key '" + key.text + "' in mix block");
      }
    }
    fail_truncated(open_line, "mix");
  }

  void task_block(WorkloadTask& task) {
    const int open_line = line_;
    std::string line;
    while (next_line(line)) {
      const std::vector<Token> tokens = tokenize(line);
      if (tokens.empty()) continue;
      const Token& key = tokens[0];
      if (key.text == "end") {
        if (task.variants.empty())
          fail(open_line, 1, "task '" + task.name + "' has no variants");
        return;
      }
      if (key.text == "variant") {
        need_args(tokens, 2, "variant <name> <prob>");
        for (const WorkloadVariant& v : task.variants)
          if (v.name == tokens[1].text)
            fail(line_, tokens[1].column,
                 "duplicate variant '" + tokens[1].text + "' in task '" +
                     task.name + "'");
        WorkloadVariant variant;
        variant.name = tokens[1].text;
        variant.probability = parse_double(tokens[2], line_, "variant prob");
        if (variant.probability < 0.0)
          fail(line_, tokens[2].column, "variant: prob must be >= 0");
        variant_block(task, variant);
        task.variants.push_back(std::move(variant));
      } else {
        fail(line_, key.column,
             "unknown key '" + key.text + "' in task block (expected "
             "'variant' or 'end')");
      }
    }
    fail_truncated(open_line, "task");
  }

  void variant_block(const WorkloadTask& task, WorkloadVariant& variant) {
    const int open_line = line_;
    std::vector<std::pair<int, int>> edge_ids;
    std::string line;
    while (next_line(line)) {
      const std::vector<Token> tokens = tokenize(line);
      if (tokens.empty()) continue;
      const Token& key = tokens[0];
      if (key.text == "end") {
        if (variant.nodes.empty())
          fail(open_line, 1,
               "variant '" + variant.name + "' has no nodes");
        if (!is_acyclic(variant.nodes.size(), edge_ids))
          fail(open_line, 1,
               "variant '" + variant.name + "' of task '" + task.name +
                   "': the subtask graph has a cycle");
        return;
      }
      if (key.text == "node") {
        parse_node(tokens, variant);
      } else if (key.text == "edge") {
        need_args(tokens, 2, "edge <from> <to>");
        const int from = node_index(variant, tokens[1]);
        const int to = node_index(variant, tokens[2]);
        variant.edges.push_back({tokens[1].text, tokens[2].text});
        edge_ids.emplace_back(from, to);
      } else if (key.text == "rt") {
        need_args(tokens, 3, "rt <deadline_us> <period_us> <crit>");
        variant.has_rt = true;
        variant.rt.relative_deadline_us =
            parse_long(tokens[1], line_, "rt deadline");
        variant.rt.period_us = parse_long(tokens[2], line_, "rt period");
        variant.rt.criticality =
            static_cast<int>(parse_long(tokens[3], line_, "rt crit"));
      } else {
        fail(line_, key.column,
             "unknown key '" + key.text + "' in variant block");
      }
    }
    fail_truncated(open_line, "variant");
  }

  void parse_node(const std::vector<Token>& tokens, WorkloadVariant& variant) {
    need_args(tokens, 3, "node <name> <exec_us> <drhw|isp> ...");
    WorkloadNode node;
    node.name = tokens[1].text;
    for (const WorkloadNode& existing : variant.nodes)
      if (existing.name == node.name)
        fail(line_, tokens[1].column,
             "duplicate node '" + node.name + "' in variant '" +
                 variant.name + "'");
    node.exec_us = parse_long(tokens[2], line_, "node exec");
    if (node.exec_us <= 0)
      fail(line_, tokens[2].column, "node: exec_us must be positive");
    if (tokens[3].text == "isp")
      node.isp = true;
    else if (tokens[3].text != "drhw")
      fail(line_, tokens[3].column,
           "node: expected 'drhw' or 'isp', got '" + tokens[3].text + "'");
    // Optional `key value` pairs after the positional fields.
    for (std::size_t at = 4; at < tokens.size(); at += 2) {
      const Token& key = tokens[at];
      if (at + 1 >= tokens.size())
        fail(line_, key.column, "node: '" + key.text + "' needs a value");
      const Token& value = tokens[at + 1];
      if (key.text == "cfg") {
        const long id = parse_long(value, line_, "node cfg");
        if (file_.configs < 0)
          fail(line_, value.column,
               "dangling config reference: cfg " + std::to_string(id) +
                   " used without a 'configs' declaration");
        if (id < 0 || id >= file_.configs)
          fail(line_, value.column,
               "dangling config reference: cfg " + std::to_string(id) +
                   " outside the declared space of " +
                   std::to_string(file_.configs));
        node.config = static_cast<ConfigId>(id);
      } else if (key.text == "energy") {
        node.energy = parse_double(value, line_, "node energy");
      } else if (key.text == "load") {
        node.load_us = parse_long(value, line_, "node load");
        if (node.load_us <= 0)
          fail(line_, value.column, "node: load must be positive");
      } else {
        fail(line_, key.column, "unknown key '" + key.text + "' on node");
      }
    }
    variant.nodes.push_back(std::move(node));
  }

  int node_index(const WorkloadVariant& variant, const Token& token) {
    for (std::size_t i = 0; i < variant.nodes.size(); ++i)
      if (variant.nodes[i].name == token.text) return static_cast<int>(i);
    fail(line_, token.column,
         "dangling edge endpoint: unknown node '" + token.text + "'");
  }

  /// Cross-statement checks that need the whole file.
  void finish() {
    for (std::size_t i = 0; i < file_.mix.size(); ++i) {
      bool found = false;
      for (const WorkloadTask& task : file_.tasks)
        if (task.name == file_.mix[i].task) found = true;
      if (!found)
        fail(use_lines_[i].first, use_lines_[i].second,
             "mix references unknown task '" + file_.mix[i].task + "'");
    }
    if (file_.tasks.empty()) fail(line_ + 1, 1, "no tasks defined");
  }

  void need_args(const std::vector<Token>& tokens, std::size_t count,
                 const char* usage) {
    if (tokens.size() < count + 1)
      fail(line_, tokens[0].column,
           std::string("expected: ") + usage);
  }

  [[noreturn]] void fail_truncated(int open_line, const char* block) {
    fail(line_ + 1, 1,
         std::string("unexpected end of file: the ") + block +
             " block opened on line " + std::to_string(open_line) +
             " has no 'end'");
  }

  bool next_line(std::string& line) {
    if (!std::getline(in_, line)) return false;
    ++line_;
    return true;
  }

  std::istringstream in_;
  int line_ = 0;  ///< current (last read) line, 1-based
  WorkloadFile file_;
  std::vector<std::pair<int, int>> use_lines_;  ///< (line, col) per mix use
};

}  // namespace

WorkloadFile parse_workload(const std::string& text) {
  return Parser(text).run();
}

WorkloadFile load_workload_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open())
    throw std::runtime_error("workload: cannot open '" + path + "'");
  std::ostringstream buffer;
  buffer << in.rdbuf();
  if (in.bad())
    throw std::runtime_error("workload: read from '" + path + "' failed");
  try {
    return parse_workload(buffer.str());
  } catch (const WioParseError& e) {
    throw WioParseError(path, e.line(), e.column(), e.message());
  }
}

std::string write_workload(const WorkloadFile& file) {
  std::ostringstream out;
  out << k_workload_schema << "\n";
  if (file.configs >= 0) out << "\nconfigs " << file.configs << "\n";
  if (file.has_arrivals) {
    out << "\narrivals " << to_string(file.arrivals.kind) << "\n"
        << "  rate " << fmt_json_double(file.arrivals.rate_per_s) << "\n"
        << "  burst " << file.arrivals.burst_size << "\n"
        << "  gap " << file.arrivals.intra_burst_gap << "\n"
        << "  think " << file.arrivals.think_time << "\n"
        << "  period " << file.arrivals.period_us << "\n"
        << "end\n";
  }
  if (!file.mix.empty() || file.include_prob != 0.8) {
    out << "\nmix\n"
        << "  include_prob " << fmt_json_double(file.include_prob) << "\n";
    for (const WorkloadMixEntry& entry : file.mix)
      out << "  use " << entry.task << " " << fmt_json_double(entry.weight)
          << "\n";
    out << "end\n";
  }
  for (const WorkloadTask& task : file.tasks) {
    out << "\ntask " << task.name << "\n";
    for (const WorkloadVariant& variant : task.variants) {
      out << "  variant " << variant.name << " "
          << fmt_json_double(variant.probability) << "\n";
      if (variant.has_rt)
        out << "    rt " << variant.rt.relative_deadline_us << " "
            << variant.rt.period_us << " " << variant.rt.criticality << "\n";
      for (const WorkloadNode& node : variant.nodes) {
        out << "    node " << node.name << " " << node.exec_us << " "
            << (node.isp ? "isp" : "drhw");
        if (node.config != k_no_config) out << " cfg " << node.config;
        if (node.energy != 0.0)
          out << " energy " << fmt_json_double(node.energy);
        if (node.load_us != k_no_time) out << " load " << node.load_us;
        out << "\n";
      }
      for (const WorkloadEdge& edge : variant.edges)
        out << "    edge " << edge.from << " " << edge.to << "\n";
      out << "  end\n";
    }
    out << "end\n";
  }
  return out.str();
}

}  // namespace drhw
