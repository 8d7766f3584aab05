#pragma once

/// \file workloads.hpp
/// The four benchmark workloads and the small online-stack probe that
/// fills the per-layer metrics of layers a workload does not run itself.

#include <cstdint>
#include <string>
#include <vector>

#include "common.hpp"
#include "sim/event_sim.hpp"

namespace perfbench {

/// paper-campaign: the built-in table1 + fig6 + fig7 + online_multiport
/// families through CampaignRunner at 2 threads.
void run_paper_campaign(const Args& args, Outcome& out);

/// online-light, online-contended and online-traced: the committed
/// multimedia .dwl mix through run_online_simulation.
void run_online_workload(const Args& args, Outcome& out);

/// One traced online run, read back and verified.
struct TraceRound {
  drhw::OnlineReport live;
  double record_s = 0.0;  ///< run_online_simulation with the recorder
  double read_s = 0.0;    ///< read_trace
  double verify_s = 0.0;  ///< verify_trace (replays internally)
  double replay_s = 0.0;  ///< replay_trace alone (when asked for)
  std::uint64_t events = 0;
  std::uint64_t bytes = 0;
  std::vector<std::string> verify_mismatches;
};

/// The wio + sim + trace stack on a small fixed online run (the
/// online-traced configuration at 2,000 iterations), for the per-layer
/// metrics of workloads that do not run those layers themselves. Counts its
/// checks (verify_trace, traced == untraced) and its exact counters
/// ("layer.stack.*" digest keys) into `out`.
struct StackProbe {
  double wio_parse_s = 0.0;
  double wio_build_s = 0.0;
  drhw::OnlineReport untraced;
  double untraced_s = 0.0;
  TraceRound traced;
};

StackProbe probe_online_stack(const Args& args, Tracer* tracer, Outcome& out);

/// Per-layer metric groups shared by the workloads.
void add_sim_metrics(const drhw::OnlineReport& report, Outcome& out);
void add_pool_metrics(double queueing_mean_ms, double frag_pct,
                      double defrag_moves, double reuse_pct,
                      double port_util_pct, double intertask_prefetches,
                      Outcome& out);
void add_trace_metrics(const TraceRound& round, double untraced_s,
                       Outcome& out);

}  // namespace perfbench
