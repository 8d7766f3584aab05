/// \file reader.cpp
/// Trace ingestion for both encodings. The format is sniffed from the
/// first bytes (the binary magic), so callers never pass a format flag.
/// Forward compatibility: unknown JSONL keys and event names, and unknown
/// framed binary record kinds, are skipped. Truncated traces still read and
/// render: a missing footer leaves has_live false, and a record torn at the
/// end of the file (a binary frame or payload running past EOF, or a final
/// JSONL line with no newline that does not parse) is dropped with it. A
/// malformed record anywhere else, or a torn header, still throws.

#include <algorithm>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <type_traits>

#include "trace/trace_detail.hpp"
#include "util/json.hpp"

namespace drhw {

namespace {

constexpr std::size_t k_known_kinds =
    static_cast<std::size_t>(TraceEvent::Kind::run_end) + 1;

/// Absent keys keep TraceEvent's defaults.
TraceEvent event_from_json(const json::Value& obj, TraceEvent::Kind kind) {
  TraceEvent ev;
  ev.kind = kind;
  if (const json::Value* t = obj.find("t"))
    ev.t = static_cast<time_us>(t->number);
  trace_detail::visit_event_fields([&](const char* key, auto member) {
    using Field = std::remove_reference_t<decltype(ev.*member)>;
    if (const json::Value* v = obj.find(key))
      ev.*member = static_cast<Field>(v->number);
  });
  if (const json::Value* tiles = obj.find("tiles"))
    for (const json::Value& v : tiles->items)
      ev.tiles.push_back(static_cast<PhysTileId>(v.number));
  return ev;
}

TraceData read_jsonl(const std::string& text) {
  TraceData trace;
  bool have_header = false;
  std::size_t line_no = 0;
  for (std::size_t pos = 0; pos < text.size();) {
    const std::size_t end = std::min(text.find('\n', pos), text.size());
    const std::string line = text.substr(pos, end - pos);
    const bool torn = end == text.size();  // no newline: the write stopped
    pos = end + 1;
    ++line_no;
    if (line.empty()) continue;
    if (!have_header) {
      trace.header = trace_detail::header_from_json(line);
      have_header = true;
      continue;
    }
    json::Value obj;
    try {
      obj = json::parse(line, "trace line " + std::to_string(line_no));
    } catch (const std::invalid_argument&) {
      if (torn) break;  // a torn final record: keep the prefix
      throw;
    }
    if (const json::Value* report = obj.find("report")) {
      // Re-parse the member through the bit-exact report reader. The
      // footer is the last line; anything after it would be malformed.
      (void)report;
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
    if (!trace_detail::kind_from_string(name->text, kind))
      continue;  // an event kind from a newer writer
    trace.events.push_back(event_from_json(obj, kind));
  }
  if (!have_header)
    throw std::invalid_argument("trace: empty file (no header line)");
  return trace;
}

TraceEvent event_from_binary(const unsigned char* p, std::size_t len,
                             TraceEvent::Kind kind) {
  namespace td = trace_detail;
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

TraceData read_binary(const std::string& text) {
  namespace td = trace_detail;
  const auto* data = reinterpret_cast<const unsigned char*>(text.data());
  const std::size_t size = text.size();
  std::size_t at = sizeof(td::k_magic);
  if (size < at + 4)
    throw std::invalid_argument("trace: binary header frame truncated");
  const std::uint32_t header_len = td::get_u32(data + at);
  at += 4;
  if (size < at + header_len)
    throw std::invalid_argument("trace: binary header truncated");
  TraceData trace;
  trace.header = td::header_from_json(
      std::string(text, at, header_len));
  at += header_len;
  // A frame or payload running past EOF is a record torn by a stopped
  // write: drop it and keep the prefix.
  while (at < size) {
    const std::uint8_t kind_byte = data[at];
    ++at;
    if (kind_byte == td::k_footer_kind) {
      if (size < at + 4) break;
      const std::uint32_t report_len = td::get_u32(data + at);
      at += 4;
      if (size < at + report_len) break;
      trace.live = online_report_from_json(
          std::string(text, at, report_len));
      trace.has_live = true;
      at += report_len;
      continue;
    }
    if (size < at + 2) break;
    const std::uint16_t payload_len = td::get_u16(data + at);
    at += 2;
    if (size < at + payload_len) break;
    if (kind_byte < k_known_kinds)
      trace.events.push_back(event_from_binary(
          data + at, payload_len, static_cast<TraceEvent::Kind>(kind_byte)));
    at += payload_len;  // unknown kinds: skip the frame
  }
  return trace;
}

}  // namespace

TraceData read_trace(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open())
    throw std::runtime_error("trace: cannot open '" + path + "'");
  std::ostringstream buffer;
  buffer << in.rdbuf();
  if (in.bad())
    throw std::runtime_error("trace: read from '" + path + "' failed");
  const std::string text = buffer.str();
  if (text.size() >= sizeof(trace_detail::k_magic) &&
      std::memcmp(text.data(), trace_detail::k_magic,
                  sizeof(trace_detail::k_magic)) == 0)
    return read_binary(text);
  return read_jsonl(text);
}

}  // namespace drhw
