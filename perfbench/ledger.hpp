#pragma once

// Span recording and the per-layer ledger of the end-to-end benchmark.
//
// Spans are recorded from the benchmark's own code around every call into
// a library module; nothing inside the library is instrumented. Two kinds:
//
//   top-level spans  main thread, strictly sequential: one per call into a
//                    module (kernel iterations and construction, capture,
//                    commit, adopt, recover, restore, NDP host commit /
//                    pump, DES run)
//   store spans      any thread: every put/get the library issues against
//                    a partner or IO KvStore, recorded by TimedStore (the
//                    decorator installed through store_factory)
//
// The ledger reconciles an episode's wall time exactly: every store span
// is clipped to the top-level span it ran under; inside that span, time
// covered by k concurrent store spans is split k ways among their layers
// and the rest is the top-level span's self time. Time between top-level
// spans is `unattributed`. Self times plus unattributed therefore sum to
// the episode's run time by construction - what the ledger shows is where
// the time went, never more time than passed.
//
// The local NVM store has no virtual seam (NvmStore is not a KvStore), so
// its writes and verify readbacks stay inside the commit's self time.

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <optional>
#include <utility>
#include <vector>

#include "ckpt/stores.hpp"

namespace perfbench {

// Seconds on the steady clock since the first call.
inline double now_s() {
  using clock = std::chrono::steady_clock;
  static const clock::time_point epoch = clock::now();
  return std::chrono::duration<double>(clock::now() - epoch).count();
}

enum class Layer : std::uint8_t {
  kIterate,      // workloads: ProxyKernel::iterate
  kInit,         // workloads: kernel construction when ranks restart
  kCapture,      // ckpt: RegionRegistry capture (+ apply_delta)
  kCommit,       // ckpt: MultilevelManager::commit
  kAdopt,        // ckpt: manager construction with adopt_existing
  kRecover,      // ckpt: MultilevelManager::recover / NDP IO frame decode
  kRestore,      // ckpt: RegionRegistry::restore
  kHostCommit,   // ndp: NdpAgent::host_commit
  kPump,         // ndp: NdpAgent::pump
  kAnalyze,      // cluster: analyze_failures
  kStorePartner, // ckpt.store: partner-level KvStore op
  kStoreIo,      // ckpt.store: IO-level KvStore op
  kCount,
};

inline const char* layer_name(Layer layer) {
  static constexpr std::array<const char*, static_cast<int>(Layer::kCount)>
      names = {"workloads.iterate", "workloads.init",  "ckpt.capture",
               "ckpt.commit",       "ckpt.adopt",      "ckpt.recover",
               "ckpt.restore",      "ndp.host_commit", "ndp.pump",
               "cluster.analyze",   "ckpt.store.partner", "ckpt.store.io"};
  return names[static_cast<int>(layer)];
}

struct Span {
  Layer layer = Layer::kIterate;
  double t0 = 0.0;
  double t1 = 0.0;
  std::uint32_t track = 0;  // recording thread (0 = first to record)
  std::uint64_t bytes = 0;  // store spans: bytes put or returned
  bool get = false;         // store spans: get (else put)
  bool readback = false;    // store get issued inside a commit or drain
};

// Collects spans for one traced episode. Disabled recorders drop
// everything, so untraced episodes run the same code minus the pushes.
class Recorder {
 public:
  explicit Recorder(bool enabled) : enabled_(enabled) {}

  [[nodiscard]] bool enabled() const { return enabled_; }

  void top(Layer layer, double t0, double t1) {
    if (!enabled_) return;
    std::lock_guard<std::mutex> lock(mu_);
    top_.push_back(Span{layer, t0, t1, track(), 0, false, false});
  }

  void store_op(Layer layer, bool get, double t0, double t1,
                std::uint64_t bytes) {
    if (!enabled_) return;
    const bool readback = get && in_write_.load(std::memory_order_relaxed);
    std::lock_guard<std::mutex> lock(mu_);
    ops_.push_back(Span{layer, t0, t1, track(), bytes, get, readback});
  }

  // Gets issued while a commit or drain is in flight are that write's
  // verify readback.
  void set_in_write(bool on) {
    in_write_.store(on, std::memory_order_relaxed);
  }

  [[nodiscard]] const std::vector<Span>& top_spans() const { return top_; }
  [[nodiscard]] const std::vector<Span>& store_spans() const { return ops_; }

 private:
  static std::uint32_t track() {
    static std::atomic<std::uint32_t> next{0};
    thread_local const std::uint32_t id = next.fetch_add(1);
    return id;
  }

  bool enabled_;
  std::atomic<bool> in_write_{false};
  std::mutex mu_;  // guards top_ and ops_
  std::vector<Span> top_;
  std::vector<Span> ops_;
};

// RAII top-level span. Always measures (untraced episodes need the
// durations for the end-to-end metrics); records only when enabled.
class Timed {
 public:
  Timed(Recorder& rec, Layer layer) : rec_(rec), layer_(layer), t0_(now_s()) {}
  ~Timed() { stop(); }
  Timed(const Timed&) = delete;
  Timed& operator=(const Timed&) = delete;

  // Close the span early; returns its duration.
  double stop() {
    if (!open_) return dur_;
    open_ = false;
    const double t1 = now_s();
    dur_ = t1 - t0_;
    rec_.top(layer_, t0_, t1);
    return dur_;
  }

 private:
  Recorder& rec_;
  Layer layer_;
  double t0_;
  double dur_ = 0.0;
  bool open_ = true;
};

// Timing KvStore decorator. Forwards every operation to a store the
// benchmark owns - so level contents survive the manager's destruction at
// a simulated process kill - and records put/get spans.
class TimedStore final : public ndpcr::ckpt::KvStore {
 public:
  TimedStore(ndpcr::ckpt::KvStore& inner, Layer layer, Recorder& rec)
      : inner_(inner), layer_(layer), rec_(rec) {}

  ndpcr::ckpt::StoreStatus put(std::uint32_t rank, std::uint64_t id,
                               ndpcr::Bytes data) override {
    const std::uint64_t n = data.size();
    const double t0 = now_s();
    auto st = inner_.put(rank, id, std::move(data));
    rec_.store_op(layer_, false, t0, now_s(), n);
    return st;
  }
  [[nodiscard]] ndpcr::ckpt::StoreResult<ndpcr::Bytes> get(
      std::uint32_t rank, std::uint64_t id) const override {
    const double t0 = now_s();
    auto got = inner_.get(rank, id);
    rec_.store_op(layer_, true, t0, now_s(), got.ok() ? got->size() : 0);
    return got;
  }
  [[nodiscard]] bool contains(std::uint32_t rank,
                              std::uint64_t id) const override {
    return inner_.contains(rank, id);
  }
  [[nodiscard]] std::optional<std::uint64_t> newest_id(
      std::uint32_t rank) const override {
    return inner_.newest_id(rank);
  }
  [[nodiscard]] std::vector<std::uint64_t> list(
      std::uint32_t rank) const override {
    return inner_.list(rank);
  }
  void erase(std::uint32_t rank, std::uint64_t id) override {
    inner_.erase(rank, id);
  }
  void clear() override { inner_.clear(); }

 private:
  ndpcr::ckpt::KvStore& inner_;
  Layer layer_;
  Recorder& rec_;
};

// One traced episode reduced to per-layer seconds. `self[l]` are the
// ledger rows: they plus `unattributed` sum to `run`.
struct LedgerRows {
  std::array<double, static_cast<int>(Layer::kCount)> self{};
  double unattributed = 0.0;
  double run = 0.0;
};

// `run` is the episode's measured run time (its wall time minus the
// benchmark's own correctness checks, which are not top-level spans).
inline LedgerRows reconcile(const Recorder& rec, double run) {
  LedgerRows rows;
  rows.run = run;
  double covered_total = 0.0;
  for (const Span& top : rec.top_spans()) {
    const double dur = top.t1 - top.t0;
    covered_total += dur;
    // Store spans overlapping this top-level span, clipped to it, as
    // +1/-1 edges; sweep them to split covered time among active layers.
    std::vector<std::pair<double, int>> edges;  // (time, +layer+1 / -...)
    for (const Span& op : rec.store_spans()) {
      const double a = std::max(op.t0, top.t0);
      const double b = std::min(op.t1, top.t1);
      if (b <= a) continue;
      const int code = static_cast<int>(op.layer) + 1;
      edges.emplace_back(a, code);
      edges.emplace_back(b, -code);
    }
    std::sort(edges.begin(), edges.end());
    std::array<int, static_cast<int>(Layer::kCount)> active{};
    int n_active = 0;
    double prev = top.t0;
    double covered = 0.0;
    for (const auto& [t, code] : edges) {
      if (n_active > 0 && t > prev) {
        const double share = (t - prev) / n_active;
        for (int l = 0; l < static_cast<int>(Layer::kCount); ++l) {
          rows.self[l] += share * active[l];
        }
        covered += t - prev;
      }
      prev = t;
      const int l = (code > 0 ? code : -code) - 1;
      const int step = code > 0 ? 1 : -1;
      active[l] += step;
      n_active += step;
    }
    rows.self[static_cast<int>(top.layer)] += dur - covered;
  }
  rows.unattributed = run - covered_total;
  return rows;
}

}  // namespace perfbench
