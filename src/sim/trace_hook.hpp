#pragma once

/// \file trace_hook.hpp
/// Observer interface between the online kernel and the trace subsystem.
///
/// The kernel's report arithmetic lives in one ReportAccumulator
/// (sim/report_accumulator.hpp), fed at every accounting site by the kernel
/// (sim/event_sim.cpp) and the tile pool (pool/tile_pool.cpp). The
/// accumulator forwards each call here, in dispatch order, with the exact
/// inputs it folded. That makes a recorded trace a *machine-checked
/// observability contract*: replay (src/trace/replay.cpp) feeds the
/// recorded inputs back into the same accumulator, so the re-derived report
/// is bit-identical to the live one exactly when the trace carries every
/// input (verify_trace asserts this; the wall-clock `perf` counters are the
/// one documented exclusion).
///
/// The interface lives here — not under src/trace/ — so the kernel depends
/// only on this leaf header and never on the trace subsystem's I/O code.
/// Every method is a no-op by default and the accumulator holds a nullable
/// pointer (OnlineSimOptions::trace), so an untraced run does one null
/// check per site and nothing else: behaviour and reports stay
/// bit-identical with tracing off.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/ids.hpp"
#include "util/time.hpp"

namespace drhw {

class TraceSink {
 public:
  virtual ~TraceSink() = default;

  // -- stream metadata (before the first timed event) ----------------------

  /// One distinct preparation of the instance stream: the per-prep
  /// constants retire-time accounting folds in (ideal makespan, DRHW
  /// subtask count, summed execution energy).
  virtual void on_prep(int /*prep*/, const char* /*name*/, time_us /*ideal*/,
                       long /*drhw_subtasks*/, double /*exec_energy*/,
                       std::size_t /*subtasks*/) {}

  // -- instance lifecycle --------------------------------------------------

  /// `deadline` is the absolute deadline, k_no_time in best-effort runs.
  virtual void on_arrival(time_us /*t*/, std::int32_t /*job*/, int /*prep*/,
                          time_us /*deadline*/, int /*crit*/) {}
  /// Admission onto the pool; `tiles` are the occupied physical tiles.
  virtual void on_admit(time_us /*t*/, std::int32_t /*job*/, long /*reused*/,
                        long /*cancelled*/, std::size_t /*init_count*/,
                        const std::vector<PhysTileId>& /*tiles*/) {}
  /// The charged run-time scheduling decision completed.
  virtual void on_sched_done(time_us /*t*/, std::int32_t /*job*/) {}
  virtual void on_retire(time_us /*t*/, std::int32_t /*job*/, long /*loads*/,
                         std::size_t /*init_count*/) {}
  virtual void on_deadline_miss(time_us /*t*/, std::int32_t /*job*/,
                                time_us /*lateness*/) {}

  // -- reconfiguration-port traffic ---------------------------------------

  virtual void on_load_start(time_us /*t*/, std::int32_t /*job*/,
                             SubtaskId /*subtask*/, ConfigId /*config*/,
                             std::size_t /*port*/, time_us /*duration*/,
                             PhysTileId /*tile*/) {}
  virtual void on_load_done(time_us /*t*/, std::int32_t /*job*/,
                            SubtaskId /*subtask*/, PhysTileId /*tile*/) {}
  /// Backlog prefetch for a queued (unadmitted) instance.
  virtual void on_prefetch_start(time_us /*t*/, std::int32_t /*queued_job*/,
                                 ConfigId /*config*/, std::size_t /*port*/,
                                 time_us /*duration*/, PhysTileId /*tile*/) {}
  virtual void on_prefetch_done(time_us /*t*/, PhysTileId /*tile*/,
                                ConfigId /*config*/) {}
  /// Port-charged defragmentation relocation src -> dst for `owner`.
  virtual void on_migration_start(time_us /*t*/, std::size_t /*port*/,
                                  time_us /*duration*/, PhysTileId /*src*/,
                                  PhysTileId /*dst*/, std::int32_t /*owner*/) {
  }
  /// `transferred`: ownership moved to dst (false = aborted, copy cached).
  virtual void on_migration_done(time_us /*t*/, PhysTileId /*src*/,
                                 PhysTileId /*dst*/, bool /*transferred*/) {}
  /// Free remap of an empty held tile (no port time).
  virtual void on_remap(time_us /*t*/, PhysTileId /*src*/, PhysTileId /*dst*/,
                        std::int32_t /*owner*/) {}
  /// Preemption checkpoint writeout start (one port charge per victim).
  virtual void on_checkpoint_start(time_us /*t*/, std::size_t /*port*/,
                                   time_us /*duration*/,
                                   std::int32_t /*victim*/) {}
  /// Writeout landed: the victim lost this stint (`loads` port loads,
  /// `init_count` of them initialization loads) and re-enters the backlog.
  virtual void on_preempt(time_us /*t*/, std::int32_t /*victim*/,
                          long /*loads*/, std::size_t /*init_count*/) {}

  // -- execution -----------------------------------------------------------

  /// `unit` is the physical tile, or the ISP index when `isp` (the shared
  /// server id in shared-ISP mode, the placement ISP otherwise).
  virtual void on_exec_start(time_us /*t*/, std::int32_t /*job*/,
                             SubtaskId /*subtask*/, time_us /*duration*/,
                             std::int64_t /*unit*/, bool /*isp*/) {}
  virtual void on_exec_done(time_us /*t*/, std::int32_t /*job*/,
                            SubtaskId /*subtask*/) {}

  // -- pool-side samples (emitted by TilePoolManager) ----------------------

  /// An admission overtook one older queued instance.
  virtual void on_queue_skip(time_us /*t*/) {}
  /// The pool's fragmentation integral advanced: `frag_pct` held over
  /// (previous sample, t] (ReportAccumulator::on_frag_sample).
  virtual void on_frag_sample(time_us /*t*/, double /*frag_pct*/) {}

  // -- end of run ----------------------------------------------------------

  /// `final_frag_pct` is the pool's snapshot fragmentation at the end of
  /// the run (the tail term of the time-weighted mean).
  virtual void on_run_end(time_us /*horizon*/, double /*final_frag_pct*/) {}
};

}  // namespace drhw
