// Trace subsystem (src/trace): recorder round trips in both encodings,
// replay verification against the live report (the subsystem's core
// contract) and its power to catch a trace that misstates an input,
// encoding equivalence, forward-compat and torn-tail reader behaviour
// (including hostile length fields and a recorder never finished),
// replay's rejection of bad job ids, and renderer smoke checks. The
// contended scenario deliberately turns on every accounting feature —
// defragmentation, shared ISPs, deadlines, preemptive checkpointing — so
// every event kind is exercised.

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>

#include <gtest/gtest.h>

#include "sim/workloads.hpp"
#include "trace/trace.hpp"

namespace drhw {
namespace {

// An online run contended enough to emit every event kind: bursty
// arrivals over a small tile pool with contiguous placement + defrag,
// shared ISPs, deadlines tight enough to miss, and preemption on.
OnlineSimOptions contended_options(const PlatformConfig& platform) {
  OnlineSimOptions options;
  options.platform = platform;
  options.policy = PolicySpec("hybrid");
  options.arrivals.kind = ArrivalProcess::Kind::bursty;
  options.arrivals.rate_per_s = 120.0;
  options.arrivals.burst_size = 4;
  options.pool.contiguous = true;
  options.pool.defrag = true;
  options.shared_isps = true;
  options.deadline_scale = 1.05;
  options.preempt = true;
  options.seed = 11;
  options.iterations = 120;
  return options;
}

struct TracedRun {
  OnlineReport live;
  TraceData trace;
};

/// `tiles` > 4 leaves free tiles for backlog prefetches.
TracedRun record_run(const std::string& path, TraceFormat format,
                     int tiles = 4) {
  const auto platform = virtex2_platform(tiles);
  const auto workload = make_multimedia_workload(platform);
  OnlineSimOptions options = contended_options(platform);
  TraceRecorder recorder(path, format, options);
  options.trace = &recorder;
  const OnlineReport live =
      run_online_simulation(options, multimedia_sampler(*workload, 0.8));
  recorder.finish(live);
  return {live, read_trace(path)};
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

void spit(const std::string& path, const std::string& text) {
  std::ofstream(path, std::ios::binary | std::ios::trunc) << text;
}

/// Byte offset just past the header: the first record (binary: magic,
/// u32 header length, header) or the first event line (JSONL).
std::size_t header_end(const std::string& text, TraceFormat format) {
  if (format == TraceFormat::jsonl) return text.find('\n') + 1;
  std::uint32_t length = 0;
  for (int i = 3; i >= 0; --i)
    length = (length << 8) | static_cast<unsigned char>(text[8 + i]);
  return 12 + length;
}

/// True when some mismatch line names `field` (as "field: ...").
bool names_field(const std::vector<std::string>& mismatches,
                 const std::string& field) {
  return std::any_of(mismatches.begin(), mismatches.end(),
                     [&](const std::string& m) {
                       return m.rfind(field + ":", 0) == 0;
                     });
}

/// Index of the first event of `kind`, or events.size().
std::size_t first_of(const TraceData& trace, TraceEvent::Kind kind) {
  std::size_t i = 0;
  while (i < trace.events.size() && trace.events[i].kind != kind) ++i;
  return i;
}

/// A minimal hand-built trace: one preparation, events as given.
TraceData synthetic_trace(std::vector<TraceEvent> events) {
  TraceData trace;
  trace.header.preps.push_back(TracePrep{"p", 100, 1, 0.5, 1});
  trace.events = std::move(events);
  return trace;
}

TraceEvent event(TraceEvent::Kind kind, time_us t, std::int32_t job) {
  TraceEvent ev;
  ev.kind = kind;
  ev.t = t;
  ev.job = job;
  if (kind == TraceEvent::Kind::arrival) ev.prep = 0;
  return ev;
}

/// Runs `fn`, expecting std::invalid_argument whose message contains
/// every string of `parts`.
template <typename Fn>
void expect_invalid(Fn&& fn, const std::vector<std::string>& parts) {
  try {
    fn();
    ADD_FAILURE() << "no exception";
  } catch (const std::invalid_argument& e) {
    for (const std::string& part : parts)
      EXPECT_NE(std::string(e.what()).find(part), std::string::npos)
          << e.what() << " lacks '" << part << "'";
  }
}

TEST(Trace, JsonlRoundTripVerifies) {
  const std::string path = testing::TempDir() + "/trace_roundtrip.jsonl";
  const TracedRun run = record_run(path, TraceFormat::jsonl);
  ASSERT_TRUE(run.trace.has_live);
  EXPECT_EQ(run.trace.header.schema, k_trace_schema);
  EXPECT_EQ(run.trace.header.policy, "hybrid");
  EXPECT_EQ(run.trace.header.queue_backend, "calendar");
  EXPECT_FALSE(run.trace.events.empty());
  EXPECT_EQ(run.trace.events.back().kind, TraceEvent::Kind::run_end);
  const auto mismatches = verify_trace(run.trace);
  EXPECT_TRUE(mismatches.empty())
      << mismatches.size() << " mismatch(es), first: " << mismatches.front();
}

TEST(Trace, BinaryRoundTripVerifies) {
  const std::string path = testing::TempDir() + "/trace_roundtrip.bin";
  const TracedRun run = record_run(path, TraceFormat::binary);
  ASSERT_TRUE(run.trace.has_live);
  const auto mismatches = verify_trace(run.trace);
  EXPECT_TRUE(mismatches.empty())
      << mismatches.size() << " mismatch(es), first: " << mismatches.front();
}

TEST(Trace, EncodingsCarryTheSameStream) {
  const std::string jsonl_path = testing::TempDir() + "/trace_eq.jsonl";
  const std::string binary_path = testing::TempDir() + "/trace_eq.bin";
  const TracedRun a = record_run(jsonl_path, TraceFormat::jsonl);
  const TracedRun b = record_run(binary_path, TraceFormat::binary);
  ASSERT_EQ(a.trace.events.size(), b.trace.events.size());
  // Same run, two encodings: the replayed reports must agree bitwise.
  EXPECT_EQ(online_report_to_json(replay_trace(a.trace)),
            online_report_to_json(replay_trace(b.trace)));
  EXPECT_EQ(online_report_to_json(a.trace.live),
            online_report_to_json(b.trace.live));
}

TEST(Trace, ContendedRunEmitsTheFullEventVocabulary) {
  const std::string path = testing::TempDir() + "/trace_vocab.jsonl";
  const TracedRun run = record_run(path, TraceFormat::jsonl);
  bool seen[19] = {};
  for (const TraceEvent& ev : run.trace.events)
    seen[static_cast<int>(ev.kind)] = true;
  for (const TraceEvent::Kind kind :
       {TraceEvent::Kind::arrival, TraceEvent::Kind::admit,
        TraceEvent::Kind::load_start, TraceEvent::Kind::load_done,
        TraceEvent::Kind::exec_start, TraceEvent::Kind::exec_done,
        TraceEvent::Kind::retire, TraceEvent::Kind::frag,
        TraceEvent::Kind::run_end})
    EXPECT_TRUE(seen[static_cast<int>(kind)]) << to_string(kind);
}

TEST(Trace, TruncatedTraceHasNoFooterAndVerifyThrows) {
  const std::string path = testing::TempDir() + "/trace_full.jsonl";
  record_run(path, TraceFormat::jsonl);
  // Chop the footer (the last line) off.
  std::ifstream in(path);
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  in.close();
  const auto cut = text.rfind("\n{", text.size() - 2);
  ASSERT_NE(cut, std::string::npos);
  const std::string truncated_path = testing::TempDir() + "/trace_cut.jsonl";
  std::ofstream out(truncated_path, std::ios::trunc);
  out << text.substr(0, cut + 1);
  out.close();

  const TraceData trace = read_trace(truncated_path);
  EXPECT_FALSE(trace.has_live);
  EXPECT_FALSE(trace.events.empty());
  EXPECT_THROW(verify_trace(trace), std::invalid_argument);
}

TEST(Trace, VerifyNamesTheFieldOfAMisstatedRetireLoadCount) {
  const std::string path = testing::TempDir() + "/trace_div_loads.bin";
  TracedRun run = record_run(path, TraceFormat::binary);
  const std::size_t at = first_of(run.trace, TraceEvent::Kind::retire);
  ASSERT_LT(at, run.trace.events.size());
  run.trace.events[at].loads += 1;
  EXPECT_TRUE(names_field(verify_trace(run.trace), "sim.loads"));
}

TEST(Trace, VerifyNamesTheFieldOfAMisstatedFragmentationSample) {
  const std::string path = testing::TempDir() + "/trace_div_frag.bin";
  TracedRun run = record_run(path, TraceFormat::binary);
  const std::size_t at = first_of(run.trace, TraceEvent::Kind::frag);
  ASSERT_LT(at, run.trace.events.size());
  run.trace.events[at].value += 10.0;
  EXPECT_TRUE(names_field(verify_trace(run.trace), "mean_frag_pct"));
}

TEST(Trace, VerifyNamesTheFieldOfADroppedPrefetch) {
  const std::string path = testing::TempDir() + "/trace_div_prefetch.bin";
  TracedRun run = record_run(path, TraceFormat::binary, /*tiles=*/8);
  const std::size_t at = first_of(run.trace, TraceEvent::Kind::prefetch_start);
  ASSERT_LT(at, run.trace.events.size());
  run.trace.events.erase(run.trace.events.begin() +
                         static_cast<std::ptrdiff_t>(at));
  EXPECT_TRUE(
      names_field(verify_trace(run.trace), "sim.intertask_prefetches"));
}

TEST(Trace, ReplayRejectsJobIdsOutOfRange) {
  const std::string path = testing::TempDir() + "/trace_bad_job.jsonl";
  const TracedRun run = record_run(path, TraceFormat::jsonl);
  const std::size_t at = first_of(run.trace, TraceEvent::Kind::admit);
  ASSERT_LT(at, run.trace.events.size());
  for (const std::int32_t job : {-1, 2000000000}) {
    TraceData bad = run.trace;
    bad.events[at].job = job;
    expect_invalid([&] { replay_trace(bad); },
                   {"event " + std::to_string(at), "out of range"});
    expect_invalid([&] { verify_trace(bad); }, {"out of range"});
  }
}

TEST(Trace, ReplayRejectsJobsWithNoEarlierArrival) {
  using Kind = TraceEvent::Kind;
  for (const Kind kind : {Kind::admit, Kind::retire, Kind::preempt})
    expect_invalid(
        [&] { replay_trace(synthetic_trace({event(kind, 5, 0)})); },
        {"event 0", "no earlier arrival"});
  // Arrived, then retired without an admission.
  expect_invalid(
      [&] {
        replay_trace(synthetic_trace(
            {event(Kind::arrival, 1, 0), event(Kind::retire, 5, 0)}));
      },
      {"event 1", "never admitted"});
  // The same job, arrived first, replays.
  const OnlineReport report = replay_trace(synthetic_trace(
      {event(Kind::arrival, 1, 0), event(Kind::admit, 2, 0),
       event(Kind::retire, 5, 0)}));
  EXPECT_EQ(report.sim.instances, 1);
  EXPECT_EQ(report.sim.total_actual, 3);
}

TEST(Trace, TornTracesReadTheirPrefixInBothEncodings) {
  for (const TraceFormat format : {TraceFormat::jsonl, TraceFormat::binary}) {
    const std::string path =
        testing::TempDir() + "/trace_torn." + to_string(format);
    const TracedRun run = record_run(path, format);
    const std::string text = slurp(path);
    const std::size_t header = header_end(text, format);
    EXPECT_FALSE(run.trace.torn_at) << to_string(format);
    std::size_t last_events = 0;
    for (const double fraction : {0.2, 0.5, 0.77, 0.999}) {
      const auto cut = static_cast<std::size_t>(
          static_cast<double>(text.size()) * fraction);
      ASSERT_GT(cut, header);
      const std::string torn_path = path + ".torn";
      spit(torn_path, text.substr(0, cut));
      const TraceData torn = read_trace(torn_path);
      EXPECT_FALSE(torn.has_live) << to_string(format) << " @" << fraction;
      EXPECT_GT(torn.events.size(), last_events);
      EXPECT_LE(torn.events.size(), run.trace.events.size());
      last_events = torn.events.size();
      // The prefix is the recorded stream's prefix.
      for (std::size_t i = 0; i < torn.events.size(); i += 97) {
        EXPECT_EQ(torn.events[i].kind, run.trace.events[i].kind);
        EXPECT_EQ(torn.events[i].t, run.trace.events[i].t);
      }
      expect_invalid([&] { verify_trace(torn); }, {"no recorded report"});
      EXPECT_FALSE(render_trace_ascii(torn).empty());
      // The torn record began at torn_at: cut there, the same events read
      // and nothing is torn.
      ASSERT_TRUE(torn.torn_at) << to_string(format) << " @" << fraction;
      EXPECT_GE(*torn.torn_at, header);
      EXPECT_LT(*torn.torn_at, cut);
      spit(torn_path, text.substr(0, *torn.torn_at));
      const TraceData clean = read_trace(torn_path);
      EXPECT_FALSE(clean.torn_at) << to_string(format) << " @" << fraction;
      EXPECT_FALSE(clean.has_live);
      ASSERT_EQ(clean.events.size(), torn.events.size());
      for (std::size_t i = 0; i < clean.events.size(); i += 97)
        EXPECT_EQ(clean.events[i].t, torn.events[i].t);
    }
    // A torn header still throws.
    spit(path + ".torn", text.substr(0, header / 2));
    EXPECT_THROW(read_trace(path + ".torn"), std::invalid_argument)
        << to_string(format);
  }
}

TEST(Trace, HostileLengthFieldsReadAsTruncation) {
  const std::string path = testing::TempDir() + "/trace_hostile.bin";
  const TracedRun run = record_run(path, TraceFormat::binary);
  const std::string text = slurp(path);
  // A header length of 0xFFFFFFFF: more than the file holds.
  std::string bad = text;
  bad.replace(8, 4, 4, '\xFF');
  spit(path + ".bad", bad);
  expect_invalid([&] { read_trace(path + ".bad"); },
                 {"binary header truncated"});
  // A footer report length of 0xFFFFFFFF: a torn tail, not an allocation.
  const std::size_t footer =
      text.size() - online_report_to_json(run.live).size() - 5;
  ASSERT_EQ(static_cast<unsigned char>(text[footer]), 0xFFu);
  bad = text;
  bad.replace(footer + 1, 4, 4, '\xFF');
  spit(path + ".bad", bad);
  const TraceData torn = read_trace(path + ".bad");
  EXPECT_FALSE(torn.has_live);
  EXPECT_EQ(torn.torn_at.value_or(0), footer);
  EXPECT_EQ(torn.events.size(), run.trace.events.size());
}

TEST(Trace, UnfinishedRecorderLeavesAFooterlessPrefix) {
  for (const TraceFormat format : {TraceFormat::jsonl, TraceFormat::binary}) {
    const std::string path =
        testing::TempDir() + "/trace_unfinished." + to_string(format);
    const TracedRun full = record_run(path, format);
    {
      const auto platform = virtex2_platform(4);
      const auto workload = make_multimedia_workload(platform);
      OnlineSimOptions options = contended_options(platform);
      TraceRecorder recorder(path, format, options);
      options.trace = &recorder;
      run_online_simulation(options, multimedia_sampler(*workload, 0.8));
    }  // destroyed without finish(), as when the run throws
    const TraceData trace = read_trace(path);
    EXPECT_FALSE(trace.has_live) << to_string(format);
    EXPECT_FALSE(trace.torn_at) << to_string(format);
    EXPECT_GT(trace.events.size(), 0u);
    EXPECT_EQ(trace.events.size(), full.trace.events.size());
  }
}

TEST(Trace, TraceEventHasNoPaddingHoles) {
  // kind sits beside the 32-bit members; the event vector is the reader's
  // memory floor.
  EXPECT_LE(sizeof(TraceEvent), 120u);
}

TEST(Trace, MalformedRecordBeforeTheTailStillThrows) {
  const std::string path = testing::TempDir() + "/trace_mid.jsonl";
  record_run(path, TraceFormat::jsonl);
  std::string text = slurp(path);
  // Tear the third line in half but keep everything after it.
  std::size_t start = 0;
  for (int line = 0; line < 2; ++line) start = text.find('\n', start) + 1;
  const std::size_t end = text.find('\n', start);
  text.erase(start + (end - start) / 2, (end - start) / 2);
  spit(path + ".bad", text);
  EXPECT_THROW(read_trace(path + ".bad"), std::invalid_argument);

  // Binary: a frame claiming a payload too short for an event is
  // malformed, not torn, wherever it sits.
  const std::string bin_path = testing::TempDir() + "/trace_mid.bin";
  record_run(bin_path, TraceFormat::binary);
  std::string bin = slurp(bin_path);
  const std::size_t first_record = header_end(bin, TraceFormat::binary);
  bin[first_record + 1] = 4;  // u16 payload length 4
  bin[first_record + 2] = 0;
  spit(bin_path + ".bad", bin);
  EXPECT_THROW(read_trace(bin_path + ".bad"), std::invalid_argument);
}

TEST(Trace, ReaderSkipsUnknownJsonlEventKinds) {
  const std::string path = testing::TempDir() + "/trace_fwd.jsonl";
  const TracedRun run = record_run(path, TraceFormat::jsonl);
  // Splice a from-the-future event after the header line; the reader must
  // ignore it (extension policy: unknown kinds skip, not fail).
  std::ifstream in(path);
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  in.close();
  const auto first_newline = text.find('\n');
  ASSERT_NE(first_newline, std::string::npos);
  std::string spliced = text.substr(0, first_newline + 1) +
                        "{\"ev\":\"quantum_teleport\",\"t\":1}\n" +
                        text.substr(first_newline + 1);
  const std::string spliced_path = testing::TempDir() + "/trace_fwd2.jsonl";
  std::ofstream out(spliced_path, std::ios::trunc);
  out << spliced;
  out.close();

  const TraceData trace = read_trace(spliced_path);
  EXPECT_EQ(trace.events.size(), run.trace.events.size());
  EXPECT_TRUE(verify_trace(trace).empty());
}

TEST(Trace, RenderersProduceOutput) {
  const std::string path = testing::TempDir() + "/trace_render.jsonl";
  const TracedRun run = record_run(path, TraceFormat::jsonl);

  const std::string ascii = render_trace_ascii(run.trace);
  EXPECT_NE(ascii.find("P0"), std::string::npos);  // a port lane
  EXPECT_NE(ascii.find("T0"), std::string::npos);  // a tile lane
  EXPECT_NE(ascii.find('#'), std::string::npos);   // at least one load box

  const std::string svg = render_trace_svg(run.trace);
  EXPECT_NE(svg.find("<svg"), std::string::npos);
  EXPECT_NE(svg.find("<rect"), std::string::npos);
  EXPECT_NE(svg.find("</svg>"), std::string::npos);

  // Windowed render stays well-formed.
  TraceRenderOptions window;
  window.width = 40;
  window.from = run.trace.events.back().t / 4;
  window.until = run.trace.events.back().t / 2;
  EXPECT_FALSE(render_trace_ascii(run.trace, window).empty());
}

TEST(Trace, ReportJsonRoundTripIsBitExact) {
  const std::string path = testing::TempDir() + "/trace_json.jsonl";
  const TracedRun run = record_run(path, TraceFormat::jsonl);
  const std::string json = online_report_to_json(run.live);
  EXPECT_EQ(online_report_to_json(online_report_from_json(json)), json);
}

}  // namespace
}  // namespace drhw
