#pragma once

/// \file trace_detail.hpp
/// Encoding constants and helpers shared by the trace writer
/// (recorder.cpp) and reader (reader.cpp). Not part of the public API.
///
/// Binary layout (`drhw-trace-v1`, little-endian throughout):
///   magic "DRHWTRC1"
///   u32 header-length, header JSON bytes (same object as the JSONL
///   header line)
///   records: u8 kind, u16 payload-length, payload — the length frame is
///   what lets a v1 reader skip record kinds a later writer added
///   footer: u8 0xFF, u32 report-length, report JSON bytes
/// Event payload field order: t i64, job i32, subtask i32, prep i32,
/// config i64, unit i32, duration i64, src i32, dst i32, loads i64,
/// aux i64, init i64, deadline i64, value f64, u16 tile-count, tiles i32
/// each.

#include <cstdint>
#include <cstring>
#include <string>
#include <type_traits>
#include <vector>

#include "trace/trace.hpp"

namespace drhw::trace_detail {

inline constexpr char k_magic[8] = {'D', 'R', 'H', 'W', 'T', 'R', 'C', '1'};
inline constexpr std::uint8_t k_footer_kind = 0xFF;
/// Fixed part of a binary event payload, before the tile list.
inline constexpr std::size_t k_fixed_payload = 88;

/// TraceEvent's scalar fields after `t`, in encoding order, with their
/// JSONL keys: the one list behind both encodings' writers and readers.
/// Binary widths follow the member types (i32, i64, f64); JSONL omits a
/// field at its default value. `kind` and `t` lead every record and
/// `tiles` ends it, outside the list.
template <typename Visit>
void visit_event_fields(Visit&& visit) {
  visit("job", &TraceEvent::job);
  visit("sub", &TraceEvent::subtask);
  visit("prep", &TraceEvent::prep);
  visit("cfg", &TraceEvent::config);
  visit("unit", &TraceEvent::unit);
  visit("dur", &TraceEvent::duration);
  visit("src", &TraceEvent::src);
  visit("dst", &TraceEvent::dst);
  visit("loads", &TraceEvent::loads);
  visit("aux", &TraceEvent::aux);
  visit("init", &TraceEvent::init);
  visit("dl", &TraceEvent::deadline);
  visit("val", &TraceEvent::value);
}

/// Reverse of to_string(TraceEvent::Kind). False on an unknown name —
/// forward compatibility: JSONL readers drop such events.
bool kind_from_string(const std::string& text, TraceEvent::Kind& out);

// --- little-endian byte packing (shift-based: no aliasing, no
// host-endianness dependence) ----------------------------------------------

inline void put_u32(std::string& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i)
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
}

inline std::uint16_t get_u16(const unsigned char* p) {
  return static_cast<std::uint16_t>(p[0] | (p[1] << 8));
}

inline std::uint32_t get_u32(const unsigned char* p) {
  std::uint32_t v = 0;
  for (int i = 3; i >= 0; --i) v = (v << 8) | p[i];
  return v;
}

// One event field at its member type's width (u16, i32, i64 or f64),
// written into or read from a payload buffer; both return the position
// after the field.
template <typename T>
unsigned char* put_field(unsigned char* p, T v) {
  std::uint64_t bits = 0;
  if constexpr (std::is_floating_point_v<T>)
    std::memcpy(&bits, &v, sizeof(T));
  else
    bits = static_cast<std::uint64_t>(v);
  for (std::size_t i = 0; i < sizeof(T); ++i)
    p[i] = static_cast<unsigned char>((bits >> (8 * i)) & 0xFF);
  return p + sizeof(T);
}

template <typename T>
const unsigned char* get_field(const unsigned char* p, T& v) {
  std::uint64_t bits = 0;
  for (std::size_t i = 0; i < sizeof(T); ++i)
    bits |= static_cast<std::uint64_t>(p[i]) << (8 * i);
  if constexpr (std::is_floating_point_v<T>)
    std::memcpy(&v, &bits, sizeof(T));
  else
    v = static_cast<T>(static_cast<std::make_unsigned_t<T>>(bits));
  return p + sizeof(T);
}

/// Header JSON object — shared verbatim between the JSONL first line and
/// the binary header block.
std::string header_to_json(const TraceHeader& header);
TraceHeader header_from_json(const std::string& text);

/// One event as a compact JSON object (default-valued fields omitted).
std::string event_to_json(const TraceEvent& ev);
/// Appends one binary event record (u8 kind, u16 payload length, payload)
/// to `out`; no allocation once `out` has the capacity.
void append_binary_event(std::string& out, const TraceEvent& ev);

/// Field-by-field comparison of two reports over the OnlineReport field
/// list (report_json.cpp), doubles bitwise. One line per mismatch, naming
/// the field ("sim.loads", "spans[3]", "spans.size"); empty when equal.
std::vector<std::string> report_mismatches(const OnlineReport& live,
                                           const OnlineReport& replay);

}  // namespace drhw::trace_detail
