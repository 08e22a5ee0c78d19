#include "obs/trace.hpp"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <stdexcept>

#include "common/crc32.hpp"
#include "common/json.hpp"

namespace ndpcr::obs {
namespace {

constexpr double kUsPerSecond = 1e6;

std::uint64_t us_of(double seconds) {
  if (!(seconds > 0.0)) return 0;
  return static_cast<std::uint64_t>(std::llround(seconds * kUsPerSecond));
}

std::string render_u64(std::uint64_t v) { return std::to_string(v); }

std::string render_f64(double v) {
  if (!std::isfinite(v)) return v > 0 ? "1e308" : (v < 0 ? "-1e308" : "0");
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  return buf;
}

std::vector<TraceEvent::RenderedArg> render_args(
    std::initializer_list<Arg> args) {
  std::vector<TraceEvent::RenderedArg> out;
  out.reserve(args.size());
  for (const Arg& a : args) {
    TraceEvent::RenderedArg r;
    r.key.assign(a.key);
    switch (a.kind) {
      case Arg::Kind::kU64:
        r.value = render_u64(a.u);
        r.numeric = true;
        break;
      case Arg::Kind::kF64:
        r.value = render_f64(a.f);
        r.numeric = true;
        break;
      case Arg::Kind::kText:
        r.value.assign(a.text);
        r.numeric = false;
        break;
    }
    out.push_back(std::move(r));
  }
  return out;
}

// Chrome trace pids: one process per clock domain so rows never mix
// timebases inside the viewer.
std::uint32_t pid_of(Clock clock) {
  switch (clock) {
    case Clock::kLogical: return 1;
    case Clock::kVirtual: return 2;
    case Clock::kWall: return 3;
  }
  return 1;
}

const char* process_name_of(Clock clock) {
  switch (clock) {
    case Clock::kLogical: return "data path (logical ticks)";
    case Clock::kVirtual: return "simulator (virtual time)";
    case Clock::kWall: return "wall clock";
  }
  return "?";
}

}  // namespace

// ---------------------------------------------------------------------------
// TraceBuffer

TraceBuffer::Span& TraceBuffer::Span::operator=(Span&& other) noexcept {
  if (this != &other) {
    close();
    buf_ = other.buf_;
    name_ = std::move(other.name_);
    cat_ = std::move(other.cat_);
    track_ = other.track_;
    other.buf_ = nullptr;
  }
  return *this;
}

void TraceBuffer::Span::close() {
  if (buf_ == nullptr) return;
  TraceBuffer* buf = buf_;
  buf_ = nullptr;
  buf->push(name_, cat_, Phase::kEnd, Clock::kLogical, track_, 0, {});
}

TraceBuffer::Span TraceBuffer::span(std::string_view name,
                                    std::string_view cat,
                                    std::uint32_t track,
                                    std::initializer_list<Arg> args) {
  if (!live_) return {};
  push(name, cat, Phase::kBegin, Clock::kLogical, track, 0, args);
  return Span(this, std::string(name), std::string(cat), track);
}

void TraceBuffer::instant(std::string_view name, std::string_view cat,
                          std::uint32_t track,
                          std::initializer_list<Arg> args) {
  if (!live_) return;
  push(name, cat, Phase::kInstant, Clock::kLogical, track, 0, args);
}

void TraceBuffer::instant_at(double t_seconds, std::string_view name,
                             std::string_view cat, std::uint32_t track,
                             std::initializer_list<Arg> args) {
  if (!live_) return;
  push(name, cat, Phase::kInstant, Clock::kVirtual, track, us_of(t_seconds),
       args);
}

void TraceBuffer::span_at(double t0_seconds, double t1_seconds,
                          std::string_view name, std::string_view cat,
                          std::uint32_t track,
                          std::initializer_list<Arg> args) {
  if (!live_) return;
  const std::uint64_t t0 = us_of(t0_seconds);
  std::uint64_t t1 = us_of(t1_seconds);
  if (t1 < t0) t1 = t0;
  push(name, cat, Phase::kBegin, Clock::kVirtual, track, t0, args);
  push(name, cat, Phase::kEnd, Clock::kVirtual, track, t1, {});
}

void TraceBuffer::emit(TraceEvent event) {
  if (!live_) return;
  events_.push_back(std::move(event));
}

void TraceBuffer::append(TraceBuffer&& other) {
  if (!live_ || other.events_.empty()) return;
  events_.reserve(events_.size() + other.events_.size());
  for (auto& ev : other.events_) events_.push_back(std::move(ev));
  other.events_.clear();
}

void TraceBuffer::push(std::string_view name, std::string_view cat,
                       Phase phase, Clock clock, std::uint32_t track,
                       std::uint64_t ts_us,
                       std::initializer_list<Arg> args) {
  TraceEvent ev;
  ev.name.assign(name);
  ev.cat.assign(cat);
  ev.phase = phase;
  ev.clock = clock;
  ev.track = track;
  ev.ts_us = ts_us;
  ev.args = render_args(args);
  emit(std::move(ev));
}

// ---------------------------------------------------------------------------
// Tracer

Tracer::Tracer(bool enabled)
    : enabled_(enabled),
      root_(enabled),
      epoch_(std::chrono::steady_clock::now()) {}

Tracer& Tracer::null() {
  static Tracer tracer(false);
  return tracer;
}

std::vector<TraceBuffer> Tracer::task_buffers(std::size_t n) const {
  if (!enabled_) return {};
  return std::vector<TraceBuffer>(n, TraceBuffer(true));
}

void Tracer::splice(std::vector<TraceBuffer>& parts) {
  if (!enabled_) return;
  for (TraceBuffer& part : parts) root_.append(std::move(part));
}

void Tracer::set_track_name(std::uint32_t track, std::string name) {
  if (!enabled_) return;
  track_names_[track] = std::move(name);
}

TraceBuffer::Span Tracer::span(std::string_view name, std::string_view cat,
                               std::uint32_t track,
                               std::initializer_list<Arg> args) {
  if (!enabled_) return {};
  return root_.span(name, cat, track, args);
}

void Tracer::instant(std::string_view name, std::string_view cat,
                     std::uint32_t track, std::initializer_list<Arg> args) {
  if (!enabled_) return;
  root_.instant(name, cat, track, args);
}

void Tracer::instant_at(double t_seconds, std::string_view name,
                        std::string_view cat, std::uint32_t track,
                        std::initializer_list<Arg> args) {
  if (!enabled_) return;
  root_.instant_at(t_seconds, name, cat, track, args);
}

void Tracer::span_at(double t0_seconds, double t1_seconds,
                     std::string_view name, std::string_view cat,
                     std::uint32_t track, std::initializer_list<Arg> args) {
  if (!enabled_) return;
  root_.span_at(t0_seconds, t1_seconds, name, cat, track, args);
}

Tracer::WallSpan& Tracer::WallSpan::operator=(WallSpan&& other) noexcept {
  if (this != &other) {
    close();
    tracer_ = other.tracer_;
    name_ = std::move(other.name_);
    cat_ = std::move(other.cat_);
    track_ = other.track_;
    t0_us_ = other.t0_us_;
    other.tracer_ = nullptr;
  }
  return *this;
}

void Tracer::WallSpan::close() {
  if (tracer_ == nullptr) return;
  Tracer* tracer = tracer_;
  tracer_ = nullptr;
  std::uint64_t t1 = tracer->wall_now_us();
  if (t1 < t0_us_) t1 = t0_us_;
  TraceEvent begin;
  begin.name = name_;
  begin.cat = cat_;
  begin.phase = Phase::kBegin;
  begin.clock = Clock::kWall;
  begin.track = track_;
  begin.ts_us = t0_us_;
  TraceEvent end = begin;
  end.phase = Phase::kEnd;
  end.ts_us = t1;
  tracer->root_.emit(std::move(begin));
  tracer->root_.emit(std::move(end));
}

Tracer::WallSpan Tracer::wall_span(std::string_view name,
                                   std::string_view cat,
                                   std::uint32_t track) {
  WallSpan span;
  if (!enabled_) return span;
  span.tracer_ = this;
  span.name_.assign(name);
  span.cat_.assign(cat);
  span.track_ = track;
  span.t0_us_ = wall_now_us();
  return span;
}

std::uint64_t Tracer::wall_now_us() const {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - epoch_)
          .count());
}

std::string Tracer::chrome_json() const {
  std::string out;
  out.reserve(256 + root_.events().size() * 96);
  out += "{\"traceEvents\":[";
  bool first = true;
  const auto comma = [&] {
    if (!first) out += ',';
    first = false;
  };

  // Metadata: process names per clock domain in use, thread (track)
  // names everywhere a named track has events.
  bool clock_used[3] = {false, false, false};
  for (const TraceEvent& ev : root_.events()) {
    clock_used[static_cast<int>(ev.clock)] = true;
  }
  for (const Clock clock :
       {Clock::kLogical, Clock::kVirtual, Clock::kWall}) {
    if (!clock_used[static_cast<int>(clock)]) continue;
    const std::uint32_t pid = pid_of(clock);
    comma();
    out += "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":";
    out += std::to_string(pid);
    out += ",\"tid\":0,\"args\":{\"name\":";
    out += json_escape(process_name_of(clock));
    out += "}}";
    for (const auto& [track, name] : track_names_) {
      comma();
      out += "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":";
      out += std::to_string(pid);
      out += ",\"tid\":";
      out += std::to_string(track);
      out += ",\"args\":{\"name\":";
      out += json_escape(name);
      out += "}}";
    }
  }

  // Events. Logical timestamps are export-order ticks: structure is the
  // signal, and ticks keep nesting visible in the viewer.
  std::uint64_t logical_tick = 0;
  for (const TraceEvent& ev : root_.events()) {
    const std::uint64_t ts =
        ev.clock == Clock::kLogical ? logical_tick++ : ev.ts_us;
    comma();
    out += "{\"name\":";
    out += json_escape(ev.name);
    if (!ev.cat.empty()) {
      out += ",\"cat\":";
      out += json_escape(ev.cat);
    }
    out += ",\"ph\":\"";
    switch (ev.phase) {
      case Phase::kBegin: out += 'B'; break;
      case Phase::kEnd: out += 'E'; break;
      case Phase::kInstant: out += 'i'; break;
    }
    out += "\",\"ts\":";
    out += std::to_string(ts);
    out += ",\"pid\":";
    out += std::to_string(pid_of(ev.clock));
    out += ",\"tid\":";
    out += std::to_string(ev.track);
    if (ev.phase == Phase::kInstant) out += ",\"s\":\"t\"";
    if (!ev.args.empty()) {
      out += ",\"args\":{";
      bool first_arg = true;
      for (const auto& arg : ev.args) {
        if (!first_arg) out += ',';
        first_arg = false;
        out += json_escape(arg.key);
        out += ':';
        out += arg.numeric ? arg.value : json_escape(arg.value);
      }
      out += '}';
    }
    out += '}';
  }
  out += "]}";
  return out;
}

std::uint32_t Tracer::fingerprint() const {
  Crc32 crc;
  const auto feed_u8 = [&](std::uint8_t v) { crc.update(&v, 1); };
  const auto feed_u32 = [&](std::uint32_t v) {
    std::uint8_t raw[4];
    for (int i = 0; i < 4; ++i) raw[i] = static_cast<std::uint8_t>(v >> (8 * i));
    crc.update(raw, sizeof raw);
  };
  const auto feed_u64 = [&](std::uint64_t v) {
    std::uint8_t raw[8];
    for (int i = 0; i < 8; ++i) raw[i] = static_cast<std::uint8_t>(v >> (8 * i));
    crc.update(raw, sizeof raw);
  };
  const auto feed_str = [&](std::string_view s) {
    feed_u64(s.size());
    crc.update(s.data(), s.size());
  };
  for (const TraceEvent& ev : root_.events()) {
    if (ev.clock == Clock::kWall) continue;  // never deterministic
    feed_u8(static_cast<std::uint8_t>(ev.phase));
    feed_u8(static_cast<std::uint8_t>(ev.clock));
    feed_u32(ev.track);
    feed_u64(ev.clock == Clock::kVirtual ? ev.ts_us : 0);
    feed_str(ev.name);
    feed_str(ev.cat);
    feed_u64(ev.args.size());
    for (const auto& arg : ev.args) {
      feed_str(arg.key);
      feed_str(arg.value);
      feed_u8(arg.numeric ? 1 : 0);
    }
  }
  return crc.value();
}

void Tracer::write(const std::string& path) const {
  const std::string body = chrome_json();
  if (path == "-") {
    std::fwrite(body.data(), 1, body.size(), stdout);
    std::fputc('\n', stdout);
    return;
  }
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) throw std::runtime_error("obs: cannot open trace file " + path);
  out.write(body.data(), static_cast<std::streamsize>(body.size()));
  out.put('\n');
  if (!out) throw std::runtime_error("obs: short write to " + path);
}

}  // namespace ndpcr::obs
