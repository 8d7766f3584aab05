#pragma once

/// \file report.hpp
/// The result structs of both simulators: SimReport (the Section 7 rig,
/// sim/system_sim.hpp) and OnlineReport (the online kernel,
/// sim/event_sim.hpp). A leaf header, so the tile pool and the trace
/// subsystem can name the reports without pulling in either simulator.
/// The online metrics are folded in one place, sim/report_accumulator.hpp.

#include <vector>

#include "util/perf_stats.hpp"
#include "util/time.hpp"

namespace drhw {

/// Aggregate results over all iterations.
struct SimReport {
  time_us total_ideal = 0;
  time_us total_actual = 0;
  double overhead_pct = 0.0;  ///< 100 * (actual - ideal) / ideal
  long instances = 0;
  long drhw_subtask_instances = 0;
  long reused_subtasks = 0;  ///< resident at bind time (incl. prefetched)
  double reuse_pct = 0.0;
  long loads = 0;            ///< loads performed (incl. init + prefetches)
  long init_loads = 0;       ///< loads in hybrid initialization phases
  long cancelled_loads = 0;  ///< stored loads cancelled by the hybrid
  long intertask_prefetches = 0;
  double energy = 0.0;        ///< exec + reconfiguration energy
  double energy_saved = 0.0;  ///< reconfiguration energy avoided via reuse
  /// Per-instance spans in stream order (only when SimOptions::record_spans).
  std::vector<time_us> spans;
};

/// Aggregate results of one online simulation.
struct OnlineReport {
  /// The sequential simulator's metrics, identically defined (overhead is
  /// measured on per-instance spans, i.e. excludes queueing time).
  SimReport sim;
  /// Completion time of the last instance (simulated time).
  time_us horizon = 0;
  double mean_response_ms = 0.0;  ///< retire - arrival, mean over instances
  double max_response_ms = 0.0;
  double mean_queueing_ms = 0.0;  ///< admission - arrival (tile wait)
  double max_queueing_ms = 0.0;
  /// Total port busy time normalised by the port count:
  /// 100 * total_busy / (ports * horizon). Always <= 100; the
  /// un-normalised busy/horizon ratio of a saturated multi-port platform
  /// would exceed 100%.
  double port_utilisation_pct = 0.0;
  /// Per-port busy time over the same busy horizon as the total (the
  /// horizon extended to the last port-free instant), index = port id
  /// (size = reconfig_ports). Sums to port_utilisation_pct * ports by
  /// construction (asserted).
  std::vector<double> port_utilisation_per_port_pct;
  /// Total ISP execution time / (isps * horizon). A true utilisation
  /// (<= 100) when shared_isps is on; with per-instance ISPs it is the
  /// *offered* ISP load against the platform's nominal capacity and may
  /// exceed 100%.
  double isp_utilisation_pct = 0.0;
  /// Highest number of defrag migrations ever in flight at once (bounded
  /// by the port count).
  long peak_concurrent_migrations = 0;
  /// Streaming response-time percentiles (P² sketch — exact up to five
  /// instances, tight estimates beyond; no span recording needed).
  double response_p50_ms = 0.0;
  double response_p95_ms = 0.0;
  double response_p99_ms = 0.0;
  /// Time-weighted mean external fragmentation of the tile pool,
  /// 100 * (1 - largest free block / free tiles) integrated over the run.
  double mean_frag_pct = 0.0;
  /// Admissions that overtook an older queued instance (backfill/reorder).
  long queue_skips = 0;
  /// Defragmentation relocations (port migrations + free remaps).
  long defrag_moves = 0;
  /// Real-time metrics (all zero unless OnlineSimOptions::deadline_scale
  /// > 0). An instance misses when it retires strictly after its absolute
  /// deadline; lateness = retire - deadline (negative when early),
  /// tardiness = max(lateness, 0).
  long deadline_jobs = 0;       ///< instances that carried a deadline
  long deadline_misses = 0;
  long high_crit_jobs = 0;      ///< high-criticality instances
  long high_crit_misses = 0;
  double deadline_miss_pct = 0.0;   ///< 100 * misses / deadline_jobs
  double high_crit_miss_pct = 0.0;  ///< 100 * misses / high_crit_jobs
  double mean_lateness_ms = 0.0;    ///< mean signed lateness
  double max_tardiness_ms = 0.0;    ///< worst positive lateness
  /// Preemptive checkpoints performed (victims evicted to the backlog).
  long preemptions = 0;
  /// Per-instance admit -> retire spans in arrival order (equivalence
  /// tests; size == sim.instances; empty when
  /// OnlineSimOptions::record_spans is off).
  std::vector<time_us> spans;
  /// Kernel performance counters (util/perf_stats.hpp): deterministic
  /// event/queue/allocation counts plus wall-clock phase timers. Campaign
  /// reports expose only the deterministic subset; the phase timers are
  /// for OnlineReport consumers (`drhw_sched online --perf`).
  PerfCounters perf;
};

}  // namespace drhw
