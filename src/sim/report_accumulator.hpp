#pragma once

/// \file report_accumulator.hpp
/// The one implementation of the online report's arithmetic.
///
/// Every OnlineReport metric is folded here, once per accounting site. Two
/// callers feed the same calls: the live kernel (sim/event_sim.cpp, plus
/// the tile pool for queue skips, fragmentation samples and completed
/// relocations) and trace replay (src/trace/replay.cpp), which walks a
/// recorded event stream and passes the recorded inputs. There is no second
/// copy of the arithmetic, so a replayed report is bit-identical to the
/// live one whenever the trace carries every input — which is what
/// verify_trace() is left to check.
///
/// The methods follow TraceSink (sim/trace_hook.hpp) by name and argument.
/// A few take per-job inputs the caller already holds (arrival and admit
/// instants, deadline, criticality), so the accumulator keeps no per-job
/// state. Each method folds its inputs and then forwards the call to the
/// nullable TraceSink: an untraced run pays one null check per site, and
/// neither the kernel nor the pool holds a trace pointer of its own.
///
/// A new online metric takes one field in OnlineReport (sim/report.hpp),
/// its fold here, and one entry in the field list of
/// src/trace/report_json.cpp.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/port_set.hpp"
#include "sim/report.hpp"
#include "sim/trace_hook.hpp"
#include "util/check.hpp"
#include "util/ids.hpp"
#include "util/p2_quantile.hpp"
#include "util/time.hpp"

namespace drhw {

class ReportAccumulator {
 public:
  /// Run constants the folds need.
  struct Setup {
    double reconfig_energy = 0.0;  ///< per load, writeout or migration
    int isps = 1;                  ///< divisor of isp_utilisation_pct
    bool deadlines = false;        ///< real-time accounting on
    bool record_spans = false;     ///< fill OnlineReport::spans
    std::size_t jobs = 0;          ///< spans pre-sized for this many jobs
    TraceSink* trace = nullptr;    ///< observer every call forwards to
  };

  ReportAccumulator() = default;
  explicit ReportAccumulator(const Setup& setup)
      : setup_(setup), trace_(setup.trace) {
    if (setup_.record_spans) report_.spans.assign(setup_.jobs, 0);
  }

  // -- SimReport folds, shared with the sequential simulator ---------------

  /// One completed instance (or its final stint, online): `span` against
  /// `ideal`, `loads` port loads of which `init_loads` initialization.
  static void fold_instance(SimReport& sim, time_us ideal, time_us span,
                            long drhw_subtasks, double exec_energy,
                            double reconfig_energy, long loads,
                            long init_loads) {
    sim.total_ideal += ideal;
    sim.total_actual += span;
    ++sim.instances;
    sim.drhw_subtask_instances += drhw_subtasks;
    sim.loads += loads;
    sim.init_loads += init_loads;
    sim.energy += exec_energy + reconfig_energy * static_cast<double>(loads);
    sim.energy_saved +=
        reconfig_energy * static_cast<double>(drhw_subtasks - loads);
  }

  /// The derived percentages (overhead, reuse) from the sums.
  static void derive_ratios(SimReport& sim) {
    if (sim.total_ideal > 0)
      sim.overhead_pct =
          100.0 * static_cast<double>(sim.total_actual - sim.total_ideal) /
          static_cast<double>(sim.total_ideal);
    if (sim.drhw_subtask_instances > 0)
      sim.reuse_pct = 100.0 * static_cast<double>(sim.reused_subtasks) /
                      static_cast<double>(sim.drhw_subtask_instances);
  }

  // -- stream metadata ------------------------------------------------------

  /// Registers preparation `prep` (dense, in index order) with the
  /// constants retire folds in.
  void on_prep(int prep, const char* name, time_us ideal, long drhw_subtasks,
               double exec_energy, std::size_t subtasks) {
    DRHW_CHECK_EQ(static_cast<std::size_t>(prep), preps_.size());
    preps_.push_back({ideal, drhw_subtasks, exec_energy});
    if (trace_)
      trace_->on_prep(prep, name, ideal, drhw_subtasks, exec_energy, subtasks);
  }

  // -- instance lifecycle ---------------------------------------------------

  void on_arrival(time_us t, std::int32_t job, int prep, time_us deadline,
                  int crit) {
    ++arrivals_;
    if (trace_) trace_->on_arrival(t, job, prep, deadline, crit);
  }

  void on_admit(time_us t, std::int32_t job, time_us arrival, long reused,
                long cancelled, std::size_t init_count,
                const std::vector<PhysTileId>& tiles) {
    report_.sim.reused_subtasks += reused;
    report_.sim.cancelled_loads += cancelled;
    queue_sum_ += static_cast<double>(t - arrival);
    queue_max_ = std::max(queue_max_, t - arrival);
    if (trace_) trace_->on_admit(t, job, reused, cancelled, init_count, tiles);
  }

  void on_sched_done(time_us t, std::int32_t job) {
    if (trace_) trace_->on_sched_done(t, job);
  }

  /// `deadline` and `high_crit` are only read with deadlines on.
  void on_retire(time_us t, std::int32_t job, int prep, time_us arrival,
                 time_us admit, time_us deadline, bool high_crit, long loads,
                 std::size_t init_count) {
    const Prep& p = preps_[static_cast<std::size_t>(prep)];
    const time_us span = t - admit;
    if (setup_.record_spans) {
      const auto at = static_cast<std::size_t>(job);  // arrival order
      if (at >= report_.spans.size()) report_.spans.resize(at + 1, 0);
      report_.spans[at] = span;
    }
    fold_instance(report_.sim, p.ideal, span, p.drhw_subtasks, p.exec_energy,
                  setup_.reconfig_energy, loads, static_cast<long>(init_count));
    response_sum_ += static_cast<double>(t - arrival);
    response_max_ = std::max(response_max_, t - arrival);
    response_sketch_.add(to_ms(t - arrival));
    horizon_ = std::max(horizon_, t);
    if (setup_.deadlines) {
      // Miss = retired strictly after the absolute deadline; lateness is
      // signed (early retires pull the mean down), tardiness clamps at 0.
      const time_us lateness = t - deadline;
      ++report_.deadline_jobs;
      lateness_sum_ += static_cast<double>(lateness);
      if (lateness > 0) {
        ++report_.deadline_misses;
        max_tardiness_ = std::max(max_tardiness_, lateness);
        if (trace_) trace_->on_deadline_miss(t, job, lateness);
      }
      if (high_crit) {
        ++report_.high_crit_jobs;
        if (lateness > 0) ++report_.high_crit_misses;
      }
    }
    if (trace_) trace_->on_retire(t, job, loads, init_count);
  }

  // -- reconfiguration-port traffic ----------------------------------------

  void on_load_start(time_us t, std::int32_t job, SubtaskId subtask,
                     ConfigId config, std::size_t port, time_us duration,
                     PhysTileId tile) {
    // The load counts at retire/preempt (the instance's stint total).
    if (trace_)
      trace_->on_load_start(t, job, subtask, config, port, duration, tile);
  }

  void on_load_done(time_us t, std::int32_t job, SubtaskId subtask,
                    PhysTileId tile) {
    if (trace_) trace_->on_load_done(t, job, subtask, tile);
  }

  void on_prefetch_start(time_us t, std::int32_t queued_job, ConfigId config,
                         std::size_t port, time_us duration, PhysTileId tile) {
    ++report_.sim.intertask_prefetches;
    ++report_.sim.loads;
    report_.sim.energy += setup_.reconfig_energy;
    if (trace_)
      trace_->on_prefetch_start(t, queued_job, config, port, duration, tile);
  }

  void on_prefetch_done(time_us t, PhysTileId tile, ConfigId config) {
    if (trace_) trace_->on_prefetch_done(t, tile, config);
  }

  void on_migration_start(time_us t, std::size_t port, time_us duration,
                          PhysTileId src, PhysTileId dst, std::int32_t owner) {
    ++migrations_in_flight_;
    peak_migrations_ = std::max(peak_migrations_, migrations_in_flight_);
    ++report_.sim.loads;
    report_.sim.energy += setup_.reconfig_energy;
    if (trace_)
      trace_->on_migration_start(t, port, duration, src, dst, owner);
  }

  void on_migration_done(time_us t, PhysTileId src, PhysTileId dst,
                         bool transferred) {
    --migrations_in_flight_;
    ++report_.defrag_moves;
    if (trace_) trace_->on_migration_done(t, src, dst, transferred);
  }

  void on_remap(time_us t, PhysTileId src, PhysTileId dst,
                std::int32_t owner) {
    ++report_.defrag_moves;
    if (trace_) trace_->on_remap(t, src, dst, owner);
  }

  void on_checkpoint_start(time_us t, std::size_t port, time_us duration,
                           std::int32_t victim) {
    ++report_.sim.loads;
    report_.sim.energy += setup_.reconfig_energy;
    if (trace_) trace_->on_checkpoint_start(t, port, duration, victim);
  }

  /// The victim's dropped stint happened on the timeline: its loads count
  /// now (retire only sees the resumed stint) and earn no energy-saved
  /// credit. Its queueing up to now is taken back once, because the
  /// re-admission charges (re-admit - arrival) again.
  void on_preempt(time_us t, std::int32_t victim, time_us arrival, long loads,
                  std::size_t init_count) {
    report_.sim.loads += loads;
    report_.sim.init_loads += static_cast<long>(init_count);
    report_.sim.energy += setup_.reconfig_energy * static_cast<double>(loads);
    report_.sim.energy_saved -=
        setup_.reconfig_energy * static_cast<double>(loads);
    queue_sum_ -= static_cast<double>(t - arrival);
    ++report_.preemptions;
    if (trace_) trace_->on_preempt(t, victim, loads, init_count);
  }

  // -- execution ------------------------------------------------------------

  void on_exec_start(time_us t, std::int32_t job, SubtaskId subtask,
                     time_us duration, std::int64_t unit, bool isp) {
    if (isp) isp_busy_ += duration;  // offered ISP load, shared or not
    if (trace_) trace_->on_exec_start(t, job, subtask, duration, unit, isp);
  }

  void on_exec_done(time_us t, std::int32_t job, SubtaskId subtask) {
    if (trace_) trace_->on_exec_done(t, job, subtask);
  }

  // -- pool-side samples ----------------------------------------------------

  void on_queue_skip(time_us t) {
    ++report_.queue_skips;
    if (trace_) trace_->on_queue_skip(t);
  }

  /// True when the fragmentation integral has time to advance up to `t`
  /// (the pool samples its fragmentation only then).
  bool frag_sample_due(time_us t) const { return t > frag_last_; }

  /// `frag_pct` held over (previous sample, t].
  void on_frag_sample(time_us t, double frag_pct) {
    frag_integral_ += frag_pct * static_cast<double>(t - frag_last_);
    frag_last_ = t;
    if (trace_) trace_->on_frag_sample(t, frag_pct);
  }

  // -- end of run -----------------------------------------------------------

  /// `final_frag_pct`: the pool's fragmentation at the end of the run.
  void on_run_end(double final_frag_pct) {
    final_frag_ = final_frag_pct;
    if (trace_) trace_->on_run_end(horizon_, final_frag_pct);
  }

  /// Derives the report from the folded sums and hands it over; `ports`
  /// carries the per-port busy time. The last call on this accumulator.
  OnlineReport finalize(const PortSet& ports);

  // -- running totals -------------------------------------------------------

  time_us isp_busy() const { return isp_busy_; }
  long queue_skips() const { return report_.queue_skips; }
  long defrag_moves() const { return report_.defrag_moves; }
  /// Time-weighted mean fragmentation over [0, max(horizon, last sample)],
  /// with `final_frag_pct` held after the last sample; 0 for an empty span.
  double mean_frag_pct(time_us horizon, double final_frag_pct) const;

 private:
  struct Prep {
    time_us ideal = 0;
    long drhw_subtasks = 0;
    double exec_energy = 0.0;
  };

  Setup setup_;
  TraceSink* trace_ = nullptr;
  std::vector<Prep> preps_;
  OnlineReport report_;  ///< the directly counted fields, folded in place
  long arrivals_ = 0;
  double response_sum_ = 0.0;
  time_us response_max_ = 0;
  QuantileSketch response_sketch_;
  double queue_sum_ = 0.0;
  time_us queue_max_ = 0;
  time_us horizon_ = 0;
  double lateness_sum_ = 0.0;  ///< signed, microseconds
  time_us max_tardiness_ = 0;
  long migrations_in_flight_ = 0;
  long peak_migrations_ = 0;
  time_us isp_busy_ = 0;
  double frag_integral_ = 0.0;
  time_us frag_last_ = 0;
  double final_frag_ = 0.0;
};

}  // namespace drhw
