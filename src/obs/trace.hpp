#pragma once

// Deterministic tracing for the C/R stack (docs/OBSERVABILITY.md).
//
// A Tracer records nested spans and instant events and exports them as
// Chrome-trace-event JSON (loadable in Perfetto / chrome://tracing).
// Three clocks coexist in one trace, kept apart as separate trace pids:
//
//   kLogical - a tick counter assigned at export time from event order.
//              The data-path layers (MultilevelManager, chaos runner)
//              have no meaningful wall or virtual clock of their own;
//              their span *structure* is the signal.
//   kVirtual - simulator time in microseconds, supplied by the emitter
//              (NdpAgent pipeline stages, the cluster sims' failure and
//              recovery events).
//   kWall    - steady_clock time relative to the Tracer's epoch, for
//              bench harnesses. Wall events are excluded from the
//              fingerprint: they are never deterministic.
//
// Determinism contract (mirrors docs/ENGINE.md): events emitted from
// pool workers go to per-task TraceBuffers - one buffer per task index,
// nothing shared - and are spliced into the Tracer in index order after
// the batch barrier. Under that rule fingerprint() is bit-identical at
// any TaskPool size, which obs_test pins at pool sizes 1/2/8.
//
// Disabled cost: instrumented layers that get no Tracer bind to
// Tracer::null(), whose dead buffer drops every event; every emit
// helper checks enabled()/live() before building strings, so the hot
// path pays one predictable branch (micro_datapath's obs section
// measures the commit path with tracing off vs on).

#include <cstdint>
#include <chrono>
#include <initializer_list>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace ndpcr::obs {

enum class Phase : std::uint8_t { kBegin, kEnd, kInstant };
enum class Clock : std::uint8_t { kLogical, kVirtual, kWall };

// Lazily-rendered span/instant argument: cheap to construct even when
// tracing is off (no string formatting until an event is recorded).
struct Arg {
  enum class Kind : std::uint8_t { kU64, kF64, kText };
  std::string_view key;
  Kind kind = Kind::kU64;
  std::uint64_t u = 0;
  double f = 0.0;
  std::string_view text;
};

inline Arg u64(std::string_view key, std::uint64_t v) {
  Arg a;
  a.key = key;
  a.kind = Arg::Kind::kU64;
  a.u = v;
  return a;
}

inline Arg f64(std::string_view key, double v) {
  Arg a;
  a.key = key;
  a.kind = Arg::Kind::kF64;
  a.f = v;
  return a;
}

inline Arg str(std::string_view key, std::string_view v) {
  Arg a;
  a.key = key;
  a.kind = Arg::Kind::kText;
  a.text = v;
  return a;
}

struct TraceEvent {
  struct RenderedArg {
    std::string key;
    std::string value;   // raw JSON token when numeric, else plain text
    bool numeric = false;
  };

  std::string name;
  std::string cat;
  Phase phase = Phase::kInstant;
  Clock clock = Clock::kLogical;
  std::uint32_t track = 0;     // chrome tid: one row per track
  std::uint64_t ts_us = 0;     // kVirtual/kWall only; kLogical gets export ticks
  std::vector<RenderedArg> args;
};

// An ordered event list. Per-task buffers are plain TraceBuffers handed
// out by Tracer::task_buffers(); a dead buffer (live() == false) records
// nothing and costs one branch per emit call.
class TraceBuffer {
 public:
  explicit TraceBuffer(bool live = true) : live_(live) {}

  [[nodiscard]] bool live() const { return live_; }

  // RAII guard closing a span() with the matching kEnd event.
  class Span {
   public:
    Span() = default;
    Span(Span&& other) noexcept { *this = std::move(other); }
    Span& operator=(Span&& other) noexcept;
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;
    ~Span() { close(); }
    void close();

   private:
    friend class TraceBuffer;
    Span(TraceBuffer* buf, std::string name, std::string cat,
         std::uint32_t track)
        : buf_(buf), name_(std::move(name)), cat_(std::move(cat)),
          track_(track) {}
    TraceBuffer* buf_ = nullptr;
    std::string name_;
    std::string cat_;
    std::uint32_t track_ = 0;
  };

  // Nested span on the logical clock; destruction of the guard ends it.
  [[nodiscard]] Span span(std::string_view name, std::string_view cat,
                          std::uint32_t track = 0,
                          std::initializer_list<Arg> args = {});

  // Instant event on the logical clock.
  void instant(std::string_view name, std::string_view cat,
               std::uint32_t track = 0,
               std::initializer_list<Arg> args = {});

  // Instant event at an explicit virtual-clock time (seconds).
  void instant_at(double t_seconds, std::string_view name,
                  std::string_view cat, std::uint32_t track = 0,
                  std::initializer_list<Arg> args = {});

  // Completed span [t0, t1] (virtual seconds): a kBegin/kEnd pair with
  // explicit timestamps, for emitters that only know the interval once
  // it ends (the NDP drain stages).
  void span_at(double t0_seconds, double t1_seconds, std::string_view name,
               std::string_view cat, std::uint32_t track = 0,
               std::initializer_list<Arg> args = {});

  void emit(TraceEvent event);

  [[nodiscard]] const std::vector<TraceEvent>& events() const {
    return events_;
  }
  [[nodiscard]] bool empty() const { return events_.empty(); }

  // Splice another buffer's events onto the end of this one. The caller
  // is responsible for a deterministic splice order (task index order).
  void append(TraceBuffer&& other);

 private:
  void push(std::string_view name, std::string_view cat, Phase phase,
            Clock clock, std::uint32_t track, std::uint64_t ts_us,
            std::initializer_list<Arg> args);

  bool live_;
  std::vector<TraceEvent> events_;
};

// The tracer: a root TraceBuffer for serial emission, task buffers for
// parallel sections, track naming, and the exporters.
class Tracer {
 public:
  explicit Tracer(bool enabled = true);

  // Shared disabled instance (events are dropped): instrumented layers with
  // no tracer configured bind here so their guards stay one branch.
  static Tracer& null();

  [[nodiscard]] bool enabled() const { return enabled_; }

  // The serial-emission buffer; nullptr when disabled, so call sites
  // guard with `if (auto* rb = trace->root())`.
  [[nodiscard]] TraceBuffer* root() {
    return enabled_ ? &root_ : nullptr;
  }

  // One live buffer per task index (empty vector when disabled: the
  // parallel section then skips per-task emission entirely).
  [[nodiscard]] std::vector<TraceBuffer> task_buffers(std::size_t n) const;

  // Merge per-task buffers into the root in index order - the rule that
  // makes the trace TaskPool-size-invariant.
  void splice(std::vector<TraceBuffer>& parts);

  // Names a chrome tid row ("rank 3", "ndp.wire", ...). Idempotent.
  void set_track_name(std::uint32_t track, std::string name);

  // Convenience forwarders to the root buffer (no-ops when disabled).
  [[nodiscard]] TraceBuffer::Span span(std::string_view name,
                                       std::string_view cat,
                                       std::uint32_t track = 0,
                                       std::initializer_list<Arg> args = {});
  void instant(std::string_view name, std::string_view cat,
               std::uint32_t track = 0,
               std::initializer_list<Arg> args = {});
  void instant_at(double t_seconds, std::string_view name,
                  std::string_view cat, std::uint32_t track = 0,
                  std::initializer_list<Arg> args = {});
  void span_at(double t0_seconds, double t1_seconds, std::string_view name,
               std::string_view cat, std::uint32_t track = 0,
               std::initializer_list<Arg> args = {});

  // Wall-clock span for bench harnesses: records steady_clock times
  // relative to the tracer's construction epoch. Excluded from the
  // fingerprint (wall time is never deterministic).
  class WallSpan {
   public:
    WallSpan() = default;
    WallSpan(WallSpan&& other) noexcept { *this = std::move(other); }
    WallSpan& operator=(WallSpan&& other) noexcept;
    WallSpan(const WallSpan&) = delete;
    WallSpan& operator=(const WallSpan&) = delete;
    ~WallSpan() { close(); }
    void close();

   private:
    friend class Tracer;
    Tracer* tracer_ = nullptr;
    std::string name_;
    std::string cat_;
    std::uint32_t track_ = 0;
    std::uint64_t t0_us_ = 0;
  };
  [[nodiscard]] WallSpan wall_span(std::string_view name,
                                   std::string_view cat,
                                   std::uint32_t track = 0);

  [[nodiscard]] const std::vector<TraceEvent>& events() const {
    return root_.events();
  }

  // Chrome trace-event JSON: {"traceEvents": [...]}. Logical events get
  // sequential tick timestamps; clocks map to separate pids so mixed
  // timebases never share a row.
  [[nodiscard]] std::string chrome_json() const;

  // CRC32 over the deterministic event stream (names, categories,
  // phases, tracks, virtual timestamps, rendered args; wall events
  // skipped). Bit-identical across runs and TaskPool sizes.
  [[nodiscard]] std::uint32_t fingerprint() const;

  // Write chrome_json() to `path` ("-" = stdout). Throws
  // std::runtime_error on IO failure.
  void write(const std::string& path) const;

 private:
  std::uint64_t wall_now_us() const;

  bool enabled_;
  TraceBuffer root_;
  std::map<std::uint32_t, std::string> track_names_;
  std::chrono::steady_clock::time_point epoch_;
};

}  // namespace ndpcr::obs
