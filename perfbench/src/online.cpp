// The three online workloads: the committed multimedia .dwl mix through
// run_online_simulation, below saturation (online-light), contended
// (online-contended) and with the binary trace recorder attached
// (online-traced).

#include <cstdio>
#include <filesystem>
#include <memory>

#include "policy/names.hpp"
#include "probes.hpp"
#include "runner/campaign.hpp"
#include "runner/report.hpp"
#include "trace/trace.hpp"
#include "wio/workload_build.hpp"
#include "wio/workload_format.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace drhw;

namespace {

constexpr const char* k_mix = "examples/workloads/multimedia_mix.dwl";
/// Iterations of the stack probe's run (about 6,400 instances).
constexpr int k_probe_iterations = 2000;
/// Set-ups of a timed run before its first call; one more precedes every
/// call, so the set-up samples span the run like the calls do. setup_s is
/// their median.
constexpr int k_setup_repeats = 5;

/// The workload's configuration as a campaign scenario, so the runner
/// path (run_scenario) can execute exactly the same run.
Scenario online_scenario(const std::string& workload, std::uint64_t seed) {
  const bool contended = workload == "online-contended";
  Scenario s;
  s.name = "perfbench/" + workload;
  s.family = "perfbench";
  s.workload = WorkloadKind::file;
  s.workload_file = k_mix;
  s.mode = ScenarioMode::online;
  s.sim.platform = virtex2_platform(contended ? 12 : 16);
  s.sim.platform.reconfig_ports = contended ? 2 : 1;
  s.sim.policy = PolicySpec(policy_names::hybrid);
  s.sim.seed = seed;
  s.sim.iterations = workload == "online-traced" ? 20000 : 100000;
  s.arrivals.kind = ArrivalProcess::Kind::poisson;
  s.arrivals.rate_per_s = contended ? 20.0 : 10.0;
  s.pool.contiguous = contended;
  s.pool.defrag = contended;
  s.validate();
  return s;
}

/// The same option mapping the campaign runner applies to online
/// scenarios.
OnlineSimOptions online_options(const Scenario& s) {
  OnlineSimOptions options;
  options.platform = s.sim.platform;
  options.policy = s.sim.policy;
  options.replacement = s.sim.replacement;
  options.arrivals = s.arrivals;
  options.port_discipline = s.port_discipline;
  options.pool = s.pool;
  options.scheduler_cost = s.scheduler_cost;
  options.shared_isps = s.shared_isps;
  options.isp_discipline = s.isp_discipline;
  options.intertask_lookahead = s.sim.intertask_lookahead;
  options.deadline_scale = s.deadline_scale;
  options.high_criticality_fraction = s.high_crit_fraction;
  options.preempt = s.preempt;
  options.queue_backend = s.queue_backend;
  options.record_spans = false;
  options.seed = s.sim.seed;
  options.iterations = s.sim.iterations;
  return options;
}

/// Parsed and built .dwl mix plus its sampler.
struct Mix {
  std::unique_ptr<FileWorkload> workload;
  IterationSampler sampler;
  double parse_s = 0.0;
  double build_s = 0.0;
};

Mix load_mix(const Scenario& s, Tracer* tracer) {
  Mix mix;
  WorkloadFile file;
  {
    ScopedSpan span(tracer, "wio.parse");
    mix.parse_s = time_call([&] { file = load_workload_file(k_mix); });
  }
  {
    ScopedSpan span(tracer, "wio.build");
    mix.build_s = time_call([&] {
      mix.workload = build_file_workload(file, s.sim.platform, s.design);
    });
  }
  mix.sampler = file_workload_sampler(*mix.workload);
  return mix;
}

std::string trace_path(const Args& args) {
  return args.scratch_dir + "/" + args.workload + ".trace";
}

TraceRound trace_round(OnlineSimOptions options,
                       const IterationSampler& sampler,
                       const std::string& path, bool replay,
                       Tracer* tracer) {
  TraceRound round;
  {
    ScopedSpan span(tracer, "trace.record");
    TraceRecorder recorder(path, TraceFormat::binary, options);
    options.trace = &recorder;
    round.record_s = time_call(
        [&] { round.live = run_online_simulation(options, sampler); });
    recorder.finish(round.live);
  }
  round.bytes = std::filesystem::file_size(path);
  TraceData data;
  {
    ScopedSpan span(tracer, "trace.read");
    round.read_s = time_call([&] { data = read_trace(path); });
  }
  std::filesystem::remove(path);
  round.events = data.events.size();
  if (replay) {
    ScopedSpan span(tracer, "trace.replay");
    round.replay_s = time_call([&] {
      volatile long instances = replay_trace(data).sim.instances;
      (void)instances;
    });
  }
  {
    ScopedSpan span(tracer, "trace.verify");
    round.verify_s =
        time_call([&] { round.verify_mismatches = verify_trace(data); });
  }
  return round;
}

/// Failed-operation lines of one traced round against its untraced twin.
std::vector<std::string> check_round(const TraceRound& round,
                                     const OnlineReport& untraced) {
  std::vector<std::string> out;
  for (const std::string& m : round.verify_mismatches)
    out.push_back("verify_trace: " + m);
  if (online_report_to_json(round.live) != online_report_to_json(untraced))
    out.push_back("traced live report differs from the untraced report");
  return out;
}

void note(std::vector<std::string>& into, const std::string& what,
          const std::vector<std::string>& lines) {
  for (const std::string& line : lines) into.push_back(what + ": " + line);
}

/// The timed run of one online workload: end-to-end metrics only.
void timed_run(const Args& args, const Scenario& s, Outcome& out) {
  const bool traced = args.workload == "online-traced";
  std::vector<double> setup;
  Mix mix;
  const auto set_up = [&] {
    mix = Mix{};  // each set-up starts from the same heap state
    setup.push_back(time_call([&] { mix = load_mix(s, nullptr); }));
  };
  for (int i = 0; i < k_setup_repeats; ++i) set_up();
  const OnlineSimOptions options = online_options(s);

  OnlineReport untraced;
  if (traced) untraced = run_online_simulation(options, mix.sampler);

  Digest first;
  OnlineReport first_report;
  std::vector<double> walls, calls, verify;
  double bytes_per_event = 0.0;
  repeat_for(args.seconds, [&] {
    set_up();
    ++out.attempted;
    std::vector<std::string> bad;
    Digest digest;
    OnlineReport report;
    if (traced) {
      const TraceRound round =
          trace_round(options, mix.sampler, trace_path(args), false, nullptr);
      calls.push_back(round.record_s);
      verify.push_back(round.read_s + round.verify_s);
      walls.push_back(round.record_s + round.read_s + round.verify_s);
      bad = check_round(round, untraced);
      report = round.live;
      digest = online_digest(report);
      digest.emplace_back("trace.events", std::to_string(round.events));
      digest.emplace_back("trace.bytes", std::to_string(round.bytes));
      bytes_per_event = static_cast<double>(round.bytes) /
                        static_cast<double>(round.events);
    } else {
      calls.push_back(time_call(
          [&] { report = run_online_simulation(options, mix.sampler); }));
      walls.push_back(calls.back());
      digest = online_digest(report);
    }
    if (first.empty()) {
      first = digest;
      first_report = report;
    } else {
      note(bad, "repeat differs from the first call",
           diff_digest(first, digest, false));
    }
    if (!bad.empty()) ++out.failed;
    note(out.mismatches, "call " + std::to_string(out.attempted), bad);
    if (out.attempted == 1) out.peak_rss_mb = peak_rss_mb();
  });
  out.digest = first;

  const auto instances = static_cast<double>(first_report.sim.instances);
  out.add("setup_s", median(setup), "s");
  out.add("wall_s", median(walls), "s");
  // Per host second of the run_online_simulation call alone.
  out.add("instances_per_s", instances / median(calls), "1/s");
  out.add("sim_overhead_pct", first_report.sim.overhead_pct, "%");
  out.add("sim_response_p99_ms", first_report.response_p99_ms, "ms");

  char line[200];
  std::snprintf(line, sizeof line,
                "%s: %.0f instances per call, %zu calls, call median %.4f s",
                args.workload.c_str(), instances, calls.size(),
                median(calls));
  out.report.emplace_back(line);
  std::string samples = "  call times (s):";
  for (double t : calls) samples += " " + exact(t);
  out.report.push_back(samples);
  samples = "  set-up times (s):";
  for (double t : setup) samples += " " + exact(t);
  out.report.push_back(samples);
  if (traced) {
    out.extra.push_back({"verify_s", median(verify), "s"});
    out.extra.push_back({"trace_bytes_per_event", bytes_per_event, "B"});
  }
}

/// The layer-timing run of one online workload: per-layer metrics only.
void layer_run(const Args& args, const Scenario& s, Outcome& out) {
  const bool traced = args.workload == "online-traced";
  Tracer tracer;
  Mix mix;
  {
    ScopedSpan span(&tracer, "setup");
    mix = load_mix(s, &tracer);
  }
  out.add("wio.parse_s", mix.parse_s, "s");
  out.add("wio.build_s", mix.build_s, "s");

  // Cold preparation through the runner's cache (parse + build of the mix).
  WorkloadCache cache;
  double prep_s = 0.0;
  {
    ScopedSpan span(&tracer, "prefetch.prep");
    prep_s = time_call([&] { cache.file(s); });
  }
  out.add("prefetch.prep_s", prep_s, "s");
  out.add("prefetch.prep_max_s", prep_s, "s");

  std::vector<const PreparedScenario*> preps;
  for (const auto& task : mix.workload->prepared)
    for (const PreparedScenario& prep : task) preps.push_back(&prep);
  add_prefetch_metrics(
      probe_prefetch(preps, s.sim.platform, s.design, &tracer), out);
  out.add("util.p2_add_ns", probe_p2_add_ns(args.seed, &tracer), "ns");

  const OnlineSimOptions options = online_options(s);
  // The workload's timed call, once without and once inside spans: the gap
  // is the harness overhead.
  OnlineReport report, untraced;
  double untraced_s = 0.0, plain_s = 0.0, spanned_s = 0.0;
  TraceRound round;
  std::size_t before = out.mismatches.size();
  if (traced) {
    untraced_s = time_call(
        [&] { untraced = run_online_simulation(options, mix.sampler); });
    plain_s = trace_round(options, mix.sampler, trace_path(args), false,
                          nullptr)
                  .record_s;
    {
      ScopedSpan span(&tracer, "main");
      round = trace_round(options, mix.sampler, trace_path(args), true,
                          &tracer);
    }
    spanned_s = round.record_s;
    report = round.live;
    note(out.mismatches, "traced run", check_round(round, untraced));
    add_trace_metrics(round, untraced_s, out);
  } else {
    plain_s = time_call(
        [&] { untraced = run_online_simulation(options, mix.sampler); });
    ScopedSpan span(&tracer, "main");
    ScopedSpan inner(&tracer, "sim.run_online");
    spanned_s = time_call(
        [&] { report = run_online_simulation(options, mix.sampler); });
  }
  Digest main_digest = online_digest(report);
  if (traced) {
    main_digest.emplace_back("trace.events", std::to_string(round.events));
    main_digest.emplace_back("trace.bytes", std::to_string(round.bytes));
  } else {
    note(out.mismatches, "repeat differs from the first call",
         diff_digest(online_digest(untraced), main_digest, false));
  }
  out.count_op(before);
  out.digest.insert(out.digest.begin(), main_digest.begin(),
                    main_digest.end());
  add_sim_metrics(report, out);
  add_pool_metrics(report.mean_queueing_ms, report.mean_frag_pct,
                   static_cast<double>(report.defrag_moves),
                   report.sim.reuse_pct, report.port_utilisation_pct,
                   static_cast<double>(report.sim.intertask_prefetches), out);

  // The runner path over the same (untraced) configuration, warm cache.
  std::vector<ScenarioResult> results;
  double sim_s = 0.0;
  {
    ScopedSpan span(&tracer, "runner.sim");
    sim_s = time_call(
        [&] { results.push_back(run_scenario(s, true, &cache)); });
  }
  const ScenarioResult& r = results.front();
  before = out.mismatches.size();
  if (!r.ok)
    out.mismatches.push_back("run_scenario failed: " + r.error);
  else if (exact(r.report.overhead_pct) != exact(untraced.sim.overhead_pct) ||
           r.report.instances != untraced.sim.instances ||
           exact(r.response_p99_ms) != exact(untraced.response_p99_ms) ||
           r.perf_events_total != untraced.perf.events_total)
    out.mismatches.push_back(
        "run_scenario differs from the direct run_online_simulation call");
  out.count_op(before);
  out.add("runner.sim_s", sim_s, "s");
  // One thread: the serial layer time over the workload's own wall time.
  const double sim_wall = traced ? untraced_s : plain_s;
  out.add("runner.parallel_efficiency",
          (prep_s + sim_s) / (mix.parse_s + mix.build_s + sim_wall), "ratio");
  report_round_trip(results, &tracer, out);

  if (!traced) {
    const StackProbe probe = probe_online_stack(args, &tracer, out);
    add_trace_metrics(probe.traced, probe.untraced_s, out);
  }
  out.add("harness.overhead_pct", 100.0 * (spanned_s / plain_s - 1.0), "%");
  report_spans(tracer, args, out);
}

}  // namespace

void run_online_workload(const Args& args, Outcome& out) {
  const Scenario s = online_scenario(args.workload, args.seed);
  if (args.trace)
    layer_run(args, s, out);
  else
    timed_run(args, s, out);
}

StackProbe probe_online_stack(const Args& args, Tracer* tracer,
                              Outcome& out) {
  ScopedSpan span(tracer, "probe.online_stack");
  Scenario s = online_scenario("online-traced", args.seed);
  s.sim.iterations = k_probe_iterations;
  StackProbe probe;
  const Mix mix = load_mix(s, tracer);
  probe.wio_parse_s = mix.parse_s;
  probe.wio_build_s = mix.build_s;
  const OnlineSimOptions options = online_options(s);
  {
    ScopedSpan run(tracer, "sim.run_online");
    probe.untraced_s = time_call(
        [&] { probe.untraced = run_online_simulation(options, mix.sampler); });
  }
  probe.traced = trace_round(options, mix.sampler,
                             args.scratch_dir + "/stack-probe.trace", true,
                             tracer);
  const std::size_t before = out.mismatches.size();
  note(out.mismatches, "stack probe",
       check_round(probe.traced, probe.untraced));
  out.count_op(before);
  for (const auto& [key, value] : online_digest(probe.untraced))
    out.digest.emplace_back("layer.stack." + key, value);
  out.digest.emplace_back("layer.stack.trace.events",
                          std::to_string(probe.traced.events));
  out.digest.emplace_back("layer.stack.trace.bytes",
                          std::to_string(probe.traced.bytes));
  return probe;
}

void add_sim_metrics(const OnlineReport& report, Outcome& out) {
  const PerfCounters& perf = report.perf;
  out.add("sim.events", static_cast<double>(perf.events_total), "count");
  out.add("sim.queue_ops",
          static_cast<double>(perf.queue_pushes + perf.queue_pops), "count");
  out.add("sim.steady_allocs", static_cast<double>(perf.steady_allocations()),
          "count");
  out.add("sim.queue_depth_max", static_cast<double>(perf.queue_depth_max),
          "count");
  out.add("sim.ns_per_event",
          static_cast<double>(perf.loop_ns) /
              static_cast<double>(std::max<std::uint64_t>(perf.events_total,
                                                          1)),
          "ns");
}

void add_pool_metrics(double queueing_mean_ms, double frag_pct,
                      double defrag_moves, double reuse_pct,
                      double port_util_pct, double intertask_prefetches,
                      Outcome& out) {
  out.add("pool.queueing_mean_ms", queueing_mean_ms, "ms");
  out.add("pool.frag_pct", frag_pct, "%");
  out.add("pool.defrag_moves", defrag_moves, "count");
  out.add("reuse.hit_pct", reuse_pct, "%");
  out.add("port.util_pct", port_util_pct, "%");
  out.add("policy.intertask_prefetches", intertask_prefetches, "count");
}

void add_trace_metrics(const TraceRound& round, double untraced_s,
                       Outcome& out) {
  out.add("trace.events", static_cast<double>(round.events), "count");
  out.add("trace.bytes_per_event",
          static_cast<double>(round.bytes) /
              static_cast<double>(std::max<std::uint64_t>(round.events, 1)),
          "B");
  out.add("trace.record_overhead_x", round.record_s / untraced_s, "x");
  out.add("trace.read_s", round.read_s, "s");
  out.add("trace.replay_s", round.replay_s, "s");
}

}  // namespace perfbench
