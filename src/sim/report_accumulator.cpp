#include "sim/report_accumulator.hpp"

#include <utility>

namespace drhw {

double ReportAccumulator::mean_frag_pct(time_us horizon,
                                        double final_frag_pct) const {
  // Pool events (e.g. a prefetch completing after the last retire) may
  // extend past the horizon; average over the full observed span so the
  // integral and the divisor always cover the same interval.
  const time_us end = std::max(horizon, frag_last_);
  if (end <= 0) return 0.0;
  double integral = frag_integral_;
  if (end > frag_last_)
    integral += final_frag_pct * static_cast<double>(end - frag_last_);
  return integral / static_cast<double>(end);
}

OnlineReport ReportAccumulator::finalize(const PortSet& ports) {
  derive_ratios(report_.sim);
  report_.horizon = horizon_;
  if (arrivals_ > 0) {
    const auto n = static_cast<double>(arrivals_);
    report_.mean_response_ms = response_sum_ / n / 1000.0;
    report_.mean_queueing_ms = queue_sum_ / n / 1000.0;
  }
  report_.max_response_ms = to_ms(response_max_);
  report_.max_queueing_ms = to_ms(queue_max_);
  report_.response_p50_ms = response_sketch_.p50();
  report_.response_p95_ms = response_sketch_.p95();
  report_.response_p99_ms = response_sketch_.p99();
  report_.mean_frag_pct = mean_frag_pct(horizon_, final_frag_);
  if (report_.deadline_jobs > 0) {
    report_.deadline_miss_pct =
        100.0 * static_cast<double>(report_.deadline_misses) /
        static_cast<double>(report_.deadline_jobs);
    report_.mean_lateness_ms =
        lateness_sum_ / static_cast<double>(report_.deadline_jobs) / 1000.0;
  }
  if (report_.high_crit_jobs > 0)
    report_.high_crit_miss_pct =
        100.0 * static_cast<double>(report_.high_crit_misses) /
        static_cast<double>(report_.high_crit_jobs);
  report_.max_tardiness_ms = to_ms(max_tardiness_);
  report_.peak_concurrent_migrations = peak_migrations_;

  const time_us busy_horizon = std::max(horizon_, ports.latest_free());
  report_.port_utilisation_per_port_pct.assign(ports.size(), 0.0);
  if (busy_horizon > 0) {
    // Normalised by the port count: a saturated 2-port platform reports
    // 100%, not 200%. Per-port shares use the same busy horizon (which
    // extends past the last retire when a trailing prefetch/migration
    // outlives it) and provably sum back to the total.
    report_.port_utilisation_pct =
        100.0 * static_cast<double>(ports.total_busy()) /
        (static_cast<double>(busy_horizon) *
         static_cast<double>(ports.size()));
    time_us busy_sum = 0;
    for (std::size_t p = 0; p < ports.size(); ++p) {
      report_.port_utilisation_per_port_pct[p] =
          100.0 * static_cast<double>(ports.busy(p)) /
          static_cast<double>(busy_horizon);
      busy_sum += ports.busy(p);
    }
    DRHW_CHECK_EQ_MSG(busy_sum, ports.total_busy(),
                      "per-port busy accounting does not sum to the total");
    const int isps = std::max(setup_.isps, 1);
    report_.isp_utilisation_pct =
        100.0 * static_cast<double>(isp_busy_) /
        (static_cast<double>(busy_horizon) * static_cast<double>(isps));
  }
  if (setup_.record_spans)
    report_.spans.resize(static_cast<std::size_t>(arrivals_), 0);
  return std::move(report_);
}

}  // namespace drhw
