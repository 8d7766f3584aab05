/// \file recorder.cpp
/// Streaming TraceSink: serialises every kernel callback into one reused
/// block buffer and writes the block to the output file in large chunks.
/// The header is flushed lazily at the first timed event so that all
/// on_prep() callbacks (which arrive during simulator setup) land in the
/// header's prep table rather than the event stream.

#include <fstream>
#include <stdexcept>

#include "trace/trace_detail.hpp"

namespace drhw {

namespace {

/// Encoded bytes held before one write to the file; the block reserves a
/// quarter more for the record that crosses the mark.
constexpr std::size_t k_block_bytes = std::size_t{1} << 18;

/// An event with the fields every kind sets; the rest keep their defaults.
TraceEvent stamp(TraceEvent::Kind kind, time_us t, std::int32_t job = -1) {
  TraceEvent ev;
  ev.kind = kind;
  ev.t = t;
  ev.job = job;
  return ev;
}

}  // namespace

TraceRecorder::TraceRecorder(const std::string& path, TraceFormat format,
                             const OnlineSimOptions& options)
    : path_(path), format_(format) {
  header_.policy = to_string(options.policy);
  header_.arrivals = to_string(options.arrivals.kind);
  header_.queue_backend = to_string(options.queue_backend);
  header_.seed = options.seed;
  header_.iterations = options.iterations;
  header_.tiles = options.platform.tiles;
  header_.reconfig_ports = options.platform.reconfig_ports;
  header_.isps = options.platform.isps;
  header_.reconfig_latency = options.platform.reconfig_latency;
  header_.reconfig_energy = options.platform.reconfig_energy;
  header_.deadline_scale = options.deadline_scale;
  header_.shared_isps = options.shared_isps;
  header_.record_spans = options.record_spans;

  out_ = std::make_unique<std::ofstream>(
      path, format == TraceFormat::binary
                ? std::ios::binary | std::ios::trunc
                : std::ios::openmode(std::ios::trunc));
  if (!out_->is_open())
    throw std::runtime_error("trace: cannot open '" + path +
                             "' for writing");
  block_.reserve(k_block_bytes + k_block_bytes / 4);
}

TraceRecorder::~TraceRecorder() {
  write_block();  // unfinished (the run threw): keep the prefix readable
}

void TraceRecorder::write_block() {
  out_->write(block_.data(), static_cast<std::streamsize>(block_.size()));
  block_.clear();
}

void TraceRecorder::flush_header() {
  if (header_written_) return;
  header_written_ = true;
  const std::string json = trace_detail::header_to_json(header_);
  if (format_ == TraceFormat::jsonl) {
    block_.append(json).push_back('\n');
  } else {
    block_.append(trace_detail::k_magic, sizeof(trace_detail::k_magic));
    trace_detail::put_u32(block_, static_cast<std::uint32_t>(json.size()));
    block_ += json;
  }
}

void TraceRecorder::record(const TraceEvent& ev) {
  flush_header();
  if (format_ == TraceFormat::jsonl) {
    block_.append(trace_detail::event_to_json(ev)).push_back('\n');
  } else {
    trace_detail::append_binary_event(block_, ev);
  }
  if (block_.size() >= k_block_bytes) write_block();
}

void TraceRecorder::finish(const OnlineReport& live) {
  if (finished_) return;
  finished_ = true;
  flush_header();  // a run with zero events still gets a valid trace
  const std::string json = online_report_to_json(live);
  if (format_ == TraceFormat::jsonl) {
    block_ += "{\"report\":" + json + "}\n";
  } else {
    block_.push_back(static_cast<char>(trace_detail::k_footer_kind));
    trace_detail::put_u32(block_, static_cast<std::uint32_t>(json.size()));
    block_ += json;
  }
  write_block();
  out_->flush();
  if (!*out_)
    throw std::runtime_error("trace: write to '" + path_ + "' failed");
}

void TraceRecorder::on_prep(int prep, const char* name, time_us ideal,
                            long drhw_subtasks, double exec_energy,
                            std::size_t subtasks) {
  // Preps arrive in index order during setup; keep the table dense anyway.
  const auto index = static_cast<std::size_t>(prep);
  if (header_.preps.size() <= index) header_.preps.resize(index + 1);
  header_.preps[index] = TracePrep{name, ideal, drhw_subtasks, exec_energy,
                                   subtasks};
}

void TraceRecorder::on_arrival(time_us t, std::int32_t job, int prep,
                               time_us deadline, int crit) {
  TraceEvent ev = stamp(TraceEvent::Kind::arrival, t, job);
  ev.prep = prep;
  ev.deadline = deadline;
  ev.aux = crit;
  record(ev);
}

void TraceRecorder::on_admit(time_us t, std::int32_t job, long reused,
                             long cancelled, std::size_t init_count,
                             const std::vector<PhysTileId>& tiles) {
  TraceEvent ev = stamp(TraceEvent::Kind::admit, t, job);
  ev.loads = reused;
  ev.aux = cancelled;
  ev.init = static_cast<std::int64_t>(init_count);
  ev.tiles = tiles;
  record(ev);
}

void TraceRecorder::on_sched_done(time_us t, std::int32_t job) {
  record(stamp(TraceEvent::Kind::sched_done, t, job));
}

void TraceRecorder::on_retire(time_us t, std::int32_t job, long loads,
                              std::size_t init_count) {
  TraceEvent ev = stamp(TraceEvent::Kind::retire, t, job);
  ev.loads = loads;
  ev.init = static_cast<std::int64_t>(init_count);
  record(ev);
}

void TraceRecorder::on_deadline_miss(time_us t, std::int32_t job,
                                     time_us lateness) {
  TraceEvent ev = stamp(TraceEvent::Kind::deadline_miss, t, job);
  ev.deadline = lateness;
  record(ev);
}

void TraceRecorder::on_load_start(time_us t, std::int32_t job,
                                  SubtaskId subtask, ConfigId config,
                                  std::size_t port, time_us duration,
                                  PhysTileId tile) {
  TraceEvent ev = stamp(TraceEvent::Kind::load_start, t, job);
  ev.subtask = subtask;
  ev.config = config;
  ev.unit = static_cast<std::int32_t>(port);
  ev.duration = duration;
  ev.src = tile;
  record(ev);
}

void TraceRecorder::on_load_done(time_us t, std::int32_t job,
                                 SubtaskId subtask, PhysTileId tile) {
  TraceEvent ev = stamp(TraceEvent::Kind::load_done, t, job);
  ev.subtask = subtask;
  ev.src = tile;
  record(ev);
}

void TraceRecorder::on_prefetch_start(time_us t, std::int32_t queued_job,
                                      ConfigId config, std::size_t port,
                                      time_us duration, PhysTileId tile) {
  TraceEvent ev = stamp(TraceEvent::Kind::prefetch_start, t, queued_job);
  ev.config = config;
  ev.unit = static_cast<std::int32_t>(port);
  ev.duration = duration;
  ev.src = tile;
  record(ev);
}

void TraceRecorder::on_prefetch_done(time_us t, PhysTileId tile,
                                     ConfigId config) {
  TraceEvent ev = stamp(TraceEvent::Kind::prefetch_done, t);
  ev.config = config;
  ev.src = tile;
  record(ev);
}

void TraceRecorder::on_migration_start(time_us t, std::size_t port,
                                       time_us duration, PhysTileId src,
                                       PhysTileId dst, std::int32_t owner) {
  TraceEvent ev = stamp(TraceEvent::Kind::migration_start, t, owner);
  ev.unit = static_cast<std::int32_t>(port);
  ev.duration = duration;
  ev.src = src;
  ev.dst = dst;
  record(ev);
}

void TraceRecorder::on_migration_done(time_us t, PhysTileId src,
                                      PhysTileId dst, bool transferred) {
  TraceEvent ev = stamp(TraceEvent::Kind::migration_done, t);
  ev.src = src;
  ev.dst = dst;
  ev.aux = transferred ? 1 : 0;
  record(ev);
}

void TraceRecorder::on_remap(time_us t, PhysTileId src, PhysTileId dst,
                             std::int32_t owner) {
  TraceEvent ev = stamp(TraceEvent::Kind::remap, t, owner);
  ev.src = src;
  ev.dst = dst;
  record(ev);
}

void TraceRecorder::on_checkpoint_start(time_us t, std::size_t port,
                                        time_us duration,
                                        std::int32_t victim) {
  TraceEvent ev = stamp(TraceEvent::Kind::checkpoint_start, t, victim);
  ev.unit = static_cast<std::int32_t>(port);
  ev.duration = duration;
  record(ev);
}

void TraceRecorder::on_preempt(time_us t, std::int32_t victim, long loads,
                               std::size_t init_count) {
  TraceEvent ev = stamp(TraceEvent::Kind::preempt, t, victim);
  ev.loads = loads;
  ev.init = static_cast<std::int64_t>(init_count);
  record(ev);
}

void TraceRecorder::on_exec_start(time_us t, std::int32_t job,
                                  SubtaskId subtask, time_us duration,
                                  std::int64_t unit, bool isp) {
  TraceEvent ev = stamp(TraceEvent::Kind::exec_start, t, job);
  ev.subtask = subtask;
  ev.unit = static_cast<std::int32_t>(unit);
  ev.duration = duration;
  ev.aux = isp ? 1 : 0;
  record(ev);
}

void TraceRecorder::on_exec_done(time_us t, std::int32_t job,
                                 SubtaskId subtask) {
  TraceEvent ev = stamp(TraceEvent::Kind::exec_done, t, job);
  ev.subtask = subtask;
  record(ev);
}

void TraceRecorder::on_queue_skip(time_us t) {
  record(stamp(TraceEvent::Kind::queue_skip, t));
}

void TraceRecorder::on_frag_sample(time_us t, double frag_pct) {
  TraceEvent ev = stamp(TraceEvent::Kind::frag, t);
  ev.value = frag_pct;
  record(ev);
}

void TraceRecorder::on_run_end(time_us horizon, double final_frag_pct) {
  TraceEvent ev = stamp(TraceEvent::Kind::run_end, horizon);
  ev.value = final_frag_pct;
  record(ev);
}

}  // namespace drhw
