/// \file replay.cpp
/// Re-derives an OnlineReport from a trace's event stream: walk the events
/// in recorded (dispatch) order and feed each one's inputs to the kernel's
/// own ReportAccumulator (sim/report_accumulator.hpp). The arithmetic is the
/// kernel's, so the replayed report is bit-identical to the live one
/// whenever the trace carries every input the accumulator folds — the
/// property verify_trace() checks. Replay keeps only what the kernel keeps
/// per job (arrival, admit, deadline, criticality, preparation) and rejects
/// events whose job ids it cannot index that state with.

#include <algorithm>
#include <stdexcept>
#include <string>

#include "sim/report_accumulator.hpp"
#include "trace/trace_detail.hpp"

namespace drhw {

namespace {

/// The per-job inputs the kernel holds and the accumulator is passed.
struct ReplayJob {
  time_us arrival = k_no_time;
  time_us admit = k_no_time;
  time_us deadline = k_no_time;
  std::int32_t prep = -1;
  std::int32_t crit = 0;
};

[[noreturn]] void reject(std::size_t index, const TraceEvent& ev,
                         const std::string& why) {
  throw std::invalid_argument(
      "trace replay: event " + std::to_string(index) + " (" +
      to_string(ev.kind) + ", job " + std::to_string(ev.job) + "): " + why);
}

}  // namespace

OnlineReport replay_trace(const TraceData& trace) {
  const TraceHeader& header = trace.header;
  ReportAccumulator::Setup setup;
  setup.reconfig_energy = header.reconfig_energy;
  setup.isps = header.isps;
  setup.deadlines = header.deadline_scale > 0.0;
  setup.record_spans = header.record_spans;
  ReportAccumulator acc(setup);
  for (std::size_t p = 0; p < header.preps.size(); ++p) {
    const TracePrep& prep = header.preps[p];
    acc.on_prep(static_cast<int>(p), prep.name.c_str(), prep.ideal,
                prep.drhw_subtasks, prep.exec_energy, prep.subtasks);
  }
  // Never-dispatched ports stay free at 0, as in the kernel.
  PortSet ports(std::max(header.reconfig_ports, 1));
  std::vector<ReplayJob> jobs;
  // A complete trace holds at least an arrival and a retire per job, so no
  // valid job id reaches the event count — and none may size a vector.
  auto job_of = [&](const TraceEvent& ev, std::size_t index,
                    bool must_have_arrived) -> ReplayJob& {
    if (ev.job < 0 || static_cast<std::size_t>(ev.job) >= trace.events.size())
      reject(index, ev, "job id out of range");
    const auto at = static_cast<std::size_t>(ev.job);
    if (jobs.size() <= at) jobs.resize(at + 1);
    if (must_have_arrived && jobs[at].arrival == k_no_time)
      reject(index, ev, "no earlier arrival");
    return jobs[at];
  };
  // The port-charging events replay their dispatch onto the same PortSet
  // the kernel dispatches onto.
  auto dispatch = [&](const TraceEvent& ev, std::size_t index) {
    const auto port = static_cast<std::size_t>(ev.unit);
    if (ev.unit < 0 || port >= ports.size())
      reject(index, ev, "port " + std::to_string(ev.unit) +
                                      " out of range");
    if (!ports.idle_at(port, ev.t))
      reject(index, ev, "port " + std::to_string(ev.unit) +
                                      " is still busy");
    ports.dispatch(port, ev.t, ev.duration);
    return port;
  };

  for (std::size_t i = 0; i < trace.events.size(); ++i) {
    const TraceEvent& ev = trace.events[i];
    switch (ev.kind) {
      case TraceEvent::Kind::arrival: {
        ReplayJob& job = job_of(ev, i, false);
        if (ev.prep < 0 ||
            static_cast<std::size_t>(ev.prep) >= header.preps.size())
          reject(i, ev, "preparation " + std::to_string(ev.prep) +
                                      " missing from the header");
        job = {ev.t, k_no_time, ev.deadline, ev.prep,
               static_cast<std::int32_t>(ev.aux)};
        acc.on_arrival(ev.t, ev.job, ev.prep, ev.deadline, job.crit);
        break;
      }
      case TraceEvent::Kind::admit: {
        ReplayJob& job = job_of(ev, i, true);
        job.admit = ev.t;
        acc.on_admit(ev.t, ev.job, job.arrival, ev.loads, ev.aux,
                     static_cast<std::size_t>(ev.init), ev.tiles);
        break;
      }
      case TraceEvent::Kind::retire: {
        const ReplayJob& job = job_of(ev, i, true);
        if (job.admit == k_no_time) reject(i, ev, "never admitted");
        acc.on_retire(ev.t, ev.job, job.prep, job.arrival, job.admit,
                      job.deadline, job.crit != 0, ev.loads,
                      static_cast<std::size_t>(ev.init));
        break;
      }
      case TraceEvent::Kind::preempt:
        acc.on_preempt(ev.t, ev.job, job_of(ev, i, true).arrival, ev.loads,
                       static_cast<std::size_t>(ev.init));
        break;
      case TraceEvent::Kind::load_start:
        dispatch(ev, i);  // the load itself counts at retire/preempt
        break;
      case TraceEvent::Kind::prefetch_start: {
        const std::size_t port = dispatch(ev, i);
        acc.on_prefetch_start(ev.t, ev.job, static_cast<ConfigId>(ev.config),
                              port, ev.duration, ev.src);
        break;
      }
      case TraceEvent::Kind::migration_start: {
        const std::size_t port = dispatch(ev, i);
        acc.on_migration_start(ev.t, port, ev.duration, ev.src, ev.dst,
                               ev.job);
        break;
      }
      case TraceEvent::Kind::migration_done:
        acc.on_migration_done(ev.t, ev.src, ev.dst, ev.aux != 0);
        break;
      case TraceEvent::Kind::remap:
        acc.on_remap(ev.t, ev.src, ev.dst, ev.job);
        break;
      case TraceEvent::Kind::checkpoint_start: {
        const std::size_t port = dispatch(ev, i);
        acc.on_checkpoint_start(ev.t, port, ev.duration, ev.job);
        break;
      }
      case TraceEvent::Kind::exec_start:
        acc.on_exec_start(ev.t, ev.job, ev.subtask, ev.duration, ev.unit,
                          ev.aux != 0);
        break;
      case TraceEvent::Kind::queue_skip:
        acc.on_queue_skip(ev.t);
        break;
      case TraceEvent::Kind::frag:
        acc.on_frag_sample(ev.t, ev.value);
        break;
      case TraceEvent::Kind::run_end:
        acc.on_run_end(ev.value);
        break;
      // Folded nowhere, or derived by the accumulator itself
      // (deadline_miss): these exist for rendering.
      case TraceEvent::Kind::sched_done:
      case TraceEvent::Kind::load_done:
      case TraceEvent::Kind::prefetch_done:
      case TraceEvent::Kind::exec_done:
      case TraceEvent::Kind::deadline_miss:
        break;
    }
  }
  return acc.finalize(ports);
}

std::vector<std::string> verify_trace(const TraceData& trace) {
  if (!trace.has_live)
    throw std::invalid_argument(
        "trace verify: no recorded report (truncated trace?)");
  return trace_detail::report_mismatches(trace.live, replay_trace(trace));
}

}  // namespace drhw
