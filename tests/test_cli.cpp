// End-to-end checks of the drhw_sched binary (path injected as
// DRHW_SCHED_BIN by CMake): workload parse errors exit 2 with
// file:line:column diagnostics, unknown flags exit 2 with usage + the
// registered policy/arrival lists on every subcommand, `genwork` is
// seed-deterministic, the genwork -> campaign -> online --trace ->
// trace verify pipeline the CI lane runs holds together, and damaged traces
// end in a diagnostic, never a signal.

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include <sys/wait.h>

#include <gtest/gtest.h>

namespace {

struct CliResult {
  int exit_code = -1;
  std::string output;  // stdout + stderr interleaved
};

CliResult run_cli(const std::string& args) {
  const std::string command = std::string(DRHW_SCHED_BIN) + " " + args +
                              " 2>&1";
  FILE* pipe = popen(command.c_str(), "r");
  EXPECT_NE(pipe, nullptr) << command;
  CliResult result;
  char buffer[4096];
  while (fgets(buffer, sizeof(buffer), pipe) != nullptr)
    result.output += buffer;
  const int status = pclose(pipe);
  result.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return result;
}

std::string temp_dir(const std::string& leaf) {
  const std::string dir = testing::TempDir() + "/" + leaf;
  std::filesystem::create_directories(dir);
  return dir;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.is_open()) << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

TEST(Cli, WorkloadParseErrorExitsTwoWithPosition) {
  const std::string dir = temp_dir("cli_parse_error");
  const std::string path = dir + "/bad.dwl";
  std::ofstream(path) << "drhw-workload-v1\nbogus 1\n";
  const CliResult result =
      run_cli("online --workload " + path + " --iterations 1");
  EXPECT_EQ(result.exit_code, 2) << result.output;
  EXPECT_NE(result.output.find(path + ":2:1:"), std::string::npos)
      << result.output;
  EXPECT_NE(result.output.find("unknown key 'bogus'"), std::string::npos);
}

TEST(Cli, UnknownFlagExitsTwoWithRegisteredLists) {
  for (const char* subcommand :
       {"campaign --frobnicate", "online --frobnicate",
        "genwork --frobnicate", "trace frobnicate x",
        "schedule g.json --tiles", "schedule g.json --bogus 3"}) {
    const CliResult result = run_cli(subcommand);
    EXPECT_EQ(result.exit_code, 2) << subcommand << "\n" << result.output;
    EXPECT_NE(result.output.find("usage:"), std::string::npos) << subcommand;
    EXPECT_NE(result.output.find("registered policies:"), std::string::npos)
        << subcommand;
    EXPECT_NE(result.output.find("registered arrival kinds:"),
              std::string::npos)
        << subcommand;
  }
}

TEST(Cli, GenworkIsSeedDeterministic) {
  const std::string dir_a = temp_dir("cli_genwork_a");
  const std::string dir_b = temp_dir("cli_genwork_b");
  const std::string flags = " --count 3 --seed 9 --tasks 3";
  ASSERT_EQ(run_cli("genwork --out " + dir_a + flags).exit_code, 0);
  ASSERT_EQ(run_cli("genwork --out " + dir_b + flags).exit_code, 0);

  int files = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir_a)) {
    const std::string name = entry.path().filename().string();
    const std::string a = read_file(dir_a + "/" + name);
    EXPECT_EQ(a, read_file(dir_b + "/" + name)) << name;
    EXPECT_EQ(a.rfind("drhw-workload-v1\n", 0), 0u) << name;
    ++files;
  }
  EXPECT_EQ(files, 3);
}

TEST(Cli, GenworkCampaignTraceVerifyPipeline) {
  // The CI lane, in miniature: fuzz workloads, campaign over them, record
  // a trace, replay-verify it, render it.
  const std::string dir = temp_dir("cli_pipeline");
  ASSERT_EQ(run_cli("genwork --out " + dir + " --count 2 --seed 31")
                .exit_code,
            0);

  const CliResult campaign = run_cli(
      "campaign --workload-dir " + dir + " --iterations 20 --quiet --csv " +
      dir + "/campaign.csv");
  EXPECT_EQ(campaign.exit_code, 0) << campaign.output;
  const std::string csv = read_file(dir + "/campaign.csv");
  EXPECT_NE(csv.find("file/fuzz"), std::string::npos) << csv;

  const std::string trace_path = dir + "/run.trace.jsonl";
  const CliResult online = run_cli(
      "online --workload " + dir + "/fuzz000031.dwl" +
      " --approach hybrid --iterations 40 --trace " + trace_path);
  EXPECT_EQ(online.exit_code, 0) << online.output;

  const CliResult verify = run_cli("trace verify " + trace_path);
  EXPECT_EQ(verify.exit_code, 0) << verify.output;
  EXPECT_NE(verify.output.find("replay verified"), std::string::npos);

  const CliResult render = run_cli("trace render " + trace_path +
                                   " --format svg --out " + dir + "/g.svg");
  EXPECT_EQ(render.exit_code, 0) << render.output;
  EXPECT_NE(read_file(dir + "/g.svg").find("<svg"), std::string::npos);

  const CliResult info = run_cli("trace info " + trace_path);
  EXPECT_EQ(info.exit_code, 0) << info.output;
  EXPECT_NE(info.output.find("drhw-trace-v1"), std::string::npos);
  EXPECT_NE(info.output.find("torn record: none"), std::string::npos);
}

TEST(Cli, TraceVerifyRejectsABadJobIdWithoutASignal) {
  const std::string dir = temp_dir("cli_trace_bad_job");
  const std::string path = dir + "/run.trace.jsonl";
  ASSERT_EQ(run_cli("online --workload multimedia --approach hybrid"
                    " --iterations 5 --trace " + path)
                .exit_code,
            0);
  for (const char* job : {"-1", "2000000000"}) {
    // Point the first admission at a job id no arrival ever named.
    std::string text = read_file(path);
    const std::size_t admit = text.find("{\"ev\":\"admit\"");
    ASSERT_NE(admit, std::string::npos);
    const std::size_t id = text.find("\"job\":", admit) + 6;
    text.replace(id, text.find(',', id) - id, job);
    const std::string bad = dir + "/bad.trace.jsonl";
    std::ofstream(bad, std::ios::trunc) << text;

    const CliResult result = run_cli("trace verify " + bad);
    EXPECT_EQ(result.exit_code, 1) << job << "\n" << result.output;
    EXPECT_NE(result.output.find("error: trace replay: event "),
              std::string::npos)
        << result.output;
  }
}

TEST(Cli, TraceInfoReadsATornTrace) {
  const std::string dir = temp_dir("cli_trace_torn");
  for (const char* format : {"jsonl", "binary"}) {
    const std::string path = dir + "/run.trace." + format;
    ASSERT_EQ(run_cli("online --workload multimedia --approach hybrid"
                      " --iterations 5 --trace-format " + std::string(format) +
                      " --trace " + path)
                  .exit_code,
              0);
    const std::string text = read_file(path);
    const std::string torn = path + ".torn";
    std::ofstream(torn, std::ios::binary | std::ios::trunc)
        << text.substr(0, text.size() / 2);
    const CliResult info = run_cli("trace info " + torn);
    EXPECT_EQ(info.exit_code, 0) << format << "\n" << info.output;
    EXPECT_NE(info.output.find("live report: absent"), std::string::npos)
        << info.output;
    EXPECT_NE(info.output.find("torn record: dropped at byte "),
              std::string::npos)
        << info.output;
  }
}

TEST(Cli, TraceRecordingRequiresASingleApproach) {
  const std::string dir = temp_dir("cli_trace_multi");
  const CliResult result = run_cli(
      "online --workload multimedia --iterations 5 --trace " + dir +
      "/t.jsonl --approach hybrid --approach no-prefetch");
  EXPECT_EQ(result.exit_code, 2) << result.output;
  EXPECT_NE(result.output.find("exactly one --approach"), std::string::npos);
}

}  // namespace
