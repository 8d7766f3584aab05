/// \file reader.cpp
/// Trace ingestion for both encodings. The format is sniffed from the
/// first bytes (the binary magic), so callers never pass a format flag.
/// Forward compatibility: unknown JSONL keys and event names, and unknown
/// framed binary record kinds, are skipped. Truncated traces still read and
/// render: a missing footer leaves has_live false, and a record torn at the
/// end of the file (a binary frame or payload running past EOF, or a final
/// JSONL line with no newline that does not parse) is dropped with it. A
/// malformed record anywhere else, or a torn header, still throws. Both
/// encodings stream through one bounded window over the file.

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string_view>
#include <type_traits>

#include "trace/trace_detail.hpp"
#include "util/json.hpp"

namespace drhw {

namespace {

namespace td = trace_detail;

constexpr std::size_t k_known_kinds =
    static_cast<std::size_t>(TraceEvent::Kind::run_end) + 1;
/// The smallest binary event record (frame, fixed payload, tile count), so
/// bytes / k_min_event_record bounds the event count of a file.
constexpr std::size_t k_min_event_record = 3 + td::k_fixed_payload + 2;
constexpr std::uint64_t k_window_bytes = std::uint64_t{1} << 20;

/// A sliding window over the trace file: about 1 MiB, grown only to hold
/// one record. A length read from the file is checked against the bytes
/// left in it before the window grows, so a hostile length field reads as
/// a torn tail or an error, never as a huge allocation.
class Window {
 public:
  explicit Window(const std::string& path)
      : in_(path, std::ios::binary), path_(path) {
    std::error_code error;
    size_ = std::filesystem::file_size(path, error);
    if (error || !in_.is_open())
      throw std::runtime_error("trace: cannot open '" + path + "'");
    buf_.resize(static_cast<std::size_t>(std::min(size_, k_window_bytes)));
  }

  std::uint64_t offset() const { return base_ + begin_; }
  std::uint64_t left() const { return size_ - offset(); }
  const char* chars() const { return buf_.data() + begin_; }
  const unsigned char* bytes() const {
    return reinterpret_cast<const unsigned char*>(chars());
  }
  void skip(std::size_t n) { begin_ += n; }

  /// Makes `n` bytes at the cursor resident; false when the file ends
  /// first.
  bool ensure(std::uint64_t n) {
    if (end_ - begin_ >= n) return true;
    if (n > left()) return false;
    std::memmove(buf_.data(), chars(), end_ - begin_);
    base_ += begin_;
    end_ -= begin_;
    begin_ = 0;
    const std::uint64_t rest = size_ - base_;  // buffer start to EOF
    if (buf_.size() < n)  // doubling: a long JSONL line grows in O(n)
      buf_.resize(static_cast<std::size_t>(
          std::min(rest, std::max<std::uint64_t>(n, 2 * buf_.size()))));
    const std::uint64_t fill = std::min<std::uint64_t>(buf_.size(), rest);
    in_.read(buf_.data() + end_, static_cast<std::streamsize>(fill - end_));
    end_ += static_cast<std::size_t>(in_.gcount());
    if (end_ < n)
      throw std::runtime_error("trace: read from '" + path_ + "' failed");
    return true;
  }

  /// The next line without its newline; `terminated` is false when the
  /// file ended first. False at the end of the file. The view lives until
  /// the next call.
  bool next_line(std::string_view& line, bool& terminated) {
    std::size_t len = 0;
    while (ensure(len + 1) && chars()[len] != '\n') ++len;
    terminated = len < left();
    line = std::string_view(chars(), len);
    skip(terminated ? len + 1 : len);
    return terminated || len > 0;
  }

 private:
  std::ifstream in_;
  std::string path_;
  std::uint64_t size_ = 0;
  std::uint64_t base_ = 0;  ///< file offset of buf_[0]
  std::vector<char> buf_;
  std::size_t begin_ = 0;  ///< cursor
  std::size_t end_ = 0;    ///< end of the bytes read
};

/// Absent keys keep TraceEvent's defaults.
TraceEvent event_from_json(const json::Value& obj, TraceEvent::Kind kind) {
  TraceEvent ev;
  ev.kind = kind;
  if (const json::Value* t = obj.find("t"))
    ev.t = static_cast<time_us>(t->number);
  td::visit_event_fields([&](const char* key, auto member) {
    using Field = std::remove_reference_t<decltype(ev.*member)>;
    if (const json::Value* v = obj.find(key))
      ev.*member = static_cast<Field>(v->number);
  });
  if (const json::Value* tiles = obj.find("tiles"))
    for (const json::Value& v : tiles->items)
      ev.tiles.push_back(static_cast<PhysTileId>(v.number));
  return ev;
}

TraceData read_jsonl(Window& in) {
  TraceData trace;
  bool have_header = false;
  std::size_t line_no = 0;
  std::string_view view;
  bool terminated = false;
  for (std::uint64_t start = in.offset(); in.next_line(view, terminated);
       start = in.offset()) {
    ++line_no;
    if (view.empty()) continue;
    const std::string line(view);
    if (!have_header) {
      trace.header = td::header_from_json(line);
      have_header = true;
      continue;
    }
    json::Value obj;
    try {
      obj = json::parse(line, "trace line " + std::to_string(line_no));
    } catch (const std::invalid_argument&) {
      if (terminated) throw;
      trace.torn_at = start;  // no newline: the write stopped mid-line
      break;
    }
    if (obj.find("report") != nullptr) {
      // Re-parse the member through the bit-exact report reader. The
      // footer is the last line; anything after it would be malformed.
      const std::size_t at = line.find("\"report\":");
      const std::string body =
          line.substr(at + 9, line.rfind('}') - (at + 9));
      trace.live = online_report_from_json(body);
      trace.has_live = true;
      continue;
    }
    const json::Value* name = obj.find("ev");
    if (name == nullptr)
      throw std::invalid_argument("trace line " + std::to_string(line_no) +
                                  ": neither an event nor the footer");
    TraceEvent::Kind kind{};
    if (!td::kind_from_string(name->text, kind))
      continue;  // an event kind from a newer writer
    trace.events.push_back(event_from_json(obj, kind));
  }
  if (!have_header)
    throw std::invalid_argument("trace: empty file (no header line)");
  return trace;
}

TraceEvent event_from_binary(const unsigned char* p, std::size_t len,
                             TraceEvent::Kind kind) {
  if (len < td::k_fixed_payload + 2)
    throw std::invalid_argument("trace: truncated binary event payload");
  TraceEvent ev;
  ev.kind = kind;
  const unsigned char* at = td::get_field(p, ev.t);
  td::visit_event_fields(
      [&](const char*, auto member) { at = td::get_field(at, ev.*member); });
  std::uint16_t n_tiles = 0;
  at = td::get_field(at, n_tiles);
  if (len < td::k_fixed_payload + 2 + 4ull * n_tiles)
    throw std::invalid_argument("trace: binary event tile list truncated");
  ev.tiles.resize(n_tiles);
  for (PhysTileId& tile : ev.tiles) at = td::get_field(at, tile);
  return ev;
}

TraceData read_binary(Window& in) {
  if (!in.ensure(4))
    throw std::invalid_argument("trace: binary header frame truncated");
  const std::uint32_t header_len = td::get_u32(in.bytes());
  in.skip(4);
  if (!in.ensure(header_len))
    throw std::invalid_argument("trace: binary header truncated");
  TraceData trace;
  trace.header = td::header_from_json(std::string(in.chars(), header_len));
  in.skip(header_len);
  trace.events.reserve(
      static_cast<std::size_t>(in.left() / k_min_event_record));
  // A frame or payload running past EOF is a record torn by a stopped
  // write: drop it and keep the prefix.
  while (in.left() > 0) {
    const std::uint64_t start = in.offset();
    in.ensure(1);
    const std::uint8_t kind_byte = in.bytes()[0];
    const bool footer = kind_byte == td::k_footer_kind;
    const std::size_t frame = footer ? 5 : 3;  // kind, u32 or u16 length
    std::uint32_t len = 0;
    if (in.ensure(frame))
      len = footer ? td::get_u32(in.bytes() + 1) : td::get_u16(in.bytes() + 1);
    if (!in.ensure(frame + std::uint64_t{len})) {
      trace.torn_at = start;
      break;
    }
    in.skip(frame);
    if (footer) {
      trace.live = online_report_from_json(std::string(in.chars(), len));
      trace.has_live = true;
    } else if (kind_byte < k_known_kinds) {
      trace.events.push_back(event_from_binary(
          in.bytes(), len, static_cast<TraceEvent::Kind>(kind_byte)));
    }  // unknown kinds: skip the frame
    in.skip(len);
  }
  return trace;
}

}  // namespace

TraceData read_trace(const std::string& path) {
  Window in(path);
  const bool binary =
      in.ensure(sizeof(td::k_magic)) &&
      std::memcmp(in.chars(), td::k_magic, sizeof(td::k_magic)) == 0;
  if (!binary) return read_jsonl(in);
  in.skip(sizeof(td::k_magic));
  return read_binary(in);
}

}  // namespace drhw
