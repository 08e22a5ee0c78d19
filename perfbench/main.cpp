// End-to-end checkpoint/restart benchmark (see README.md in this
// directory). One closed-loop process: proxy kernels step, capture,
// commit through the multilevel manager (or hand off to NDP agents), are
// killed, restart and resume, while a correctness oracle checks every
// restart against an uninterrupted run of the same seed.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--trace-out PATH]
//
// The last stdout line is one JSON object: {"correct", "attempted",
// "failed", "metrics"}. --trace 0 reports the end-to-end metrics from
// untraced episodes; --trace 1 interleaves traced and untraced episodes
// and reports the per-layer ledger, the standalone codec legs and the
// pool-scaling ratio. Exit code 1 on any correctness miss.

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "ckpt/multilevel.hpp"
#include "ckpt/nvm_store.hpp"
#include "ckpt/region.hpp"
#include "cluster/failure_analysis.hpp"
#include "common/crc32.hpp"
#include "common/rng.hpp"
#include "compress/chunked.hpp"
#include "delta/delta.hpp"
#include "exec/task_pool.hpp"
#include "ledger.hpp"
#include "ndp/agent.hpp"
#include "obs/trace.hpp"
#include "workloads/proxy_kernels.hpp"

namespace perfbench {
namespace {

using namespace ndpcr;

constexpr double kMiB = 1024.0 * 1024.0;
constexpr double kGiB = kMiB * 1024.0;
constexpr std::size_t kL = static_cast<std::size_t>(Layer::kCount);
// Hard stop for the episode loop, well inside the 180 s run budget.
constexpr double kMaxLoopSeconds = 120.0;

// ---------------------------------------------------------------- spec

enum class KillKind {
  kProcess,  // manager destroyed, rebuilt with adopt_existing
  kNode,     // fail_node: local NVM + hosted partner data lost
  kNdpNode,  // fail_node + NDP agent reset: restart from drained frames
};

const char* to_string(KillKind k) {
  switch (k) {
    case KillKind::kProcess: return "process";
    case KillKind::kNode: return "node";
    case KillKind::kNdpNode: return "ndp-node";
  }
  return "?";
}

struct Kill {
  std::uint32_t after_ckpt = 0;  // fires after this checkpoint (1-based)
  std::uint32_t lost_iters = 0;  // iterations run, then lost, before it
  KillKind kind = KillKind::kProcess;
  std::uint32_t victim = 0;
};

struct Spec {
  std::string name;
  std::uint32_t ranks = 8;
  std::size_t rank_bytes = 1u << 20;
  std::uint32_t checkpoints = 24;    // per episode
  std::uint32_t iters_between = 2;   // kernel iterations per checkpoint
  bool incremental_capture = false;  // capture_delta + apply_delta
  ckpt::MultilevelConfig mc;         // factories/pool filled per episode
  bool ndp = false;
  ndp::AgentConfig agent;
  bool des = false;
  cluster::FailureAnalysisConfig des_cfg;
  // Tail percentile of ckpt_ms, fixed per workload so it never flips
  // between runs; the loop runs until `min_ckpts` samples exist, which
  // leaves at least ten beyond it.
  double tail_pct = 90.0;
  std::size_t min_ckpts = 100;
  std::vector<Kill> kills;
};

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "full-nlz4", "delta-dedup", "ndp-drain", "failure-des"};
  return names;
}

// Kill points drawn once per run from the seed, so every episode of a run
// does identical work.
void add_kill(Spec& spec, Rng& rng, std::uint32_t after, KillKind kind) {
  Kill k;
  k.after_ckpt = after;
  k.lost_iters = 1 + static_cast<std::uint32_t>(
                         rng.next_below(spec.iters_between));
  k.kind = kind;
  k.victim = static_cast<std::uint32_t>(rng.next_below(spec.ranks));
  spec.kills.push_back(k);
}

Spec make_spec(const std::string& name, std::uint64_t seed) {
  Spec s;
  s.name = name;
  Rng rng(exec::sub_seed(seed, 0x6b696c6cull));
  if (name == "full-nlz4") {
    // Every checkpoint goes through nlz4 to IO, so the median and the
    // tail both read the compressing commit. (Local+XOR-only commits are
    // short pool sections whose wake-up latency swung the median by 25%
    // with host load; ndp-drain covers the local-only commit.)
    s.rank_bytes = 1u << 20;
    s.checkpoints = 12;
    s.mc.partner_scheme = ckpt::PartnerScheme::kXorGroup;
    s.mc.xor_group_size = 4;
    s.mc.io_every = 1;
    s.mc.io_codec = compress::CodecId::kLz4Style;
    s.mc.io_codec_level = 1;
    s.mc.io_chunk_bytes = 64u << 10;
    s.mc.nvm_capacity_bytes = 4 * (s.rank_bytes + (64u << 10));
    s.tail_pct = 90.0;
    s.min_ckpts = 100;
    add_kill(s, rng, 3, KillKind::kProcess);
    add_kill(s, rng, 6, KillKind::kNode);
    add_kill(s, rng, 9, KillKind::kProcess);
  } else if (name == "delta-dedup") {
    s.rank_bytes = 4u << 20;
    s.checkpoints = 10;
    s.incremental_capture = true;
    s.mc.partner_scheme = ckpt::PartnerScheme::kCopy;
    s.mc.io_every = 1;
    s.mc.delta.enabled = true;
    s.mc.delta.chain_length = 3;
    s.mc.delta.io_dedup = true;
    s.mc.nvm_capacity_bytes = 6 * (s.rank_bytes + (64u << 10));
    s.tail_pct = 80.0;
    s.min_ckpts = 50;
    add_kill(s, rng, 3, KillKind::kProcess);
    add_kill(s, rng, 5, KillKind::kNode);
    add_kill(s, rng, 8, KillKind::kProcess);
  } else if (name == "ndp-drain") {
    s.rank_bytes = 1u << 20;
    s.checkpoints = 24;
    s.mc.partner_every = 0;
    s.mc.io_every = 0;
    s.mc.nvm_capacity_bytes = 4 * (s.rank_bytes + (64u << 10));
    s.ndp = true;
    s.agent.uncompressed_capacity = 4 * (s.rank_bytes + (64u << 10));
    s.agent.compressed_capacity = 4 * s.rank_bytes;
    s.agent.codec = compress::CodecId::kLz4Style;
    s.agent.codec_level = 1;
    s.agent.chunk_bytes = 64u << 10;
    s.agent.compress_bw = 1e18;  // unbounded: pump time is real work
    s.agent.io_bw = 1e18;
    s.agent.delta_bw = 1e18;
    s.agent.delta_chain = 4;
    s.tail_pct = 90.0;
    s.min_ckpts = 100;
    add_kill(s, rng, 6, KillKind::kProcess);
    add_kill(s, rng, 12, KillKind::kNdpNode);
    add_kill(s, rng, 18, KillKind::kProcess);
  } else if (name == "failure-des") {
    // The DES, then a small XOR-partner application that loses a node
    // six times per episode.
    s.rank_bytes = 256u << 10;
    s.checkpoints = 16;
    s.mc.partner_scheme = ckpt::PartnerScheme::kXorGroup;
    s.mc.xor_group_size = 4;
    s.mc.io_every = 4;
    s.mc.io_codec = compress::CodecId::kLz4Style;
    s.mc.io_codec_level = 1;
    s.mc.io_chunk_bytes = 64u << 10;
    s.mc.nvm_capacity_bytes = 4 * (s.rank_bytes + (64u << 10));
    s.des = true;
    s.des_cfg.node_count = 1000000;
    s.des_cfg.distribution = cluster::FailureDistribution::kWeibull;
    s.des_cfg.weibull_shape = 0.7;
    s.des_cfg.cascade.probability = 0.05;
    s.des_cfg.engine = cluster::FailureEngine::kCalendar;
    s.des_cfg.target_failures = 1000000;
    s.des_cfg.seed = exec::sub_seed(seed, 0x646573ull);
    s.tail_pct = 95.0;
    s.min_ckpts = 200;
    for (const std::uint32_t after : {3u, 5u, 7u, 9u, 11u, 13u}) {
      add_kill(s, rng, after, KillKind::kNode);
    }
  } else {
    throw std::invalid_argument("unknown workload: " + name);
  }
  return s;
}

// ----------------------------------------------------------- helpers

using Kernels = std::vector<std::unique_ptr<workloads::ProxyKernel>>;

Kernels make_kernels(const Spec& s, std::uint64_t seed) {
  Kernels k;
  const auto& names = workloads::proxy_kernel_names();
  for (std::uint32_t r = 0; r < s.ranks; ++r) {
    k.push_back(workloads::make_proxy_kernel(
        names[r % names.size()], s.rank_bytes, exec::sub_seed(seed, r)));
  }
  return k;
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(const std::vector<double>& v) { return quantile(v, 0.5); }

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

void add(ckpt::DataPathStats& a, const ckpt::DataPathStats& b) {
  a.commits_full += b.commits_full;
  a.commits_delta += b.commits_delta;
  a.payload_bytes_in += b.payload_bytes_in;
  a.delta_input_bytes += b.delta_input_bytes;
  a.delta_encoded_bytes += b.delta_encoded_bytes;
  a.local_bytes_written += b.local_bytes_written;
  a.partner_bytes_written += b.partner_bytes_written;
  a.io_logical_bytes += b.io_logical_bytes;
  a.io_bytes_written += b.io_bytes_written;
  a.dedup_new_bytes += b.dedup_new_bytes;
  a.dedup_dup_bytes += b.dedup_dup_bytes;
  a.chain_links += b.chain_links;
  a.chain_replays += b.chain_replays;
}

struct HealthSums {
  std::uint64_t puts = 0;
  std::uint64_t put_retries = 0;
  std::uint64_t put_failures = 0;
  std::uint64_t verify_failures = 0;

  void add(const ckpt::HealthReport& h) {
    for (const ckpt::LevelHealth* l : {&h.local, &h.partner, &h.io}) {
      add(HealthSums{l->puts, l->put_retries, l->put_failures,
                     l->verify_failures});
    }
  }
  void add(const HealthSums& o) {
    puts += o.puts;
    put_retries += o.put_retries;
    put_failures += o.put_failures;
    verify_failures += o.verify_failures;
  }
};

// ------------------------------------------------------------ results

// What episodes measured. Vectors hold per-operation samples, scalars are
// totals; merge() folds another episode in, so one struct serves a single
// episode and a run's aggregate alike.
struct EpisodeStats {
  std::size_t episodes = 0;
  std::vector<double> setup_s;     // one per episode
  std::vector<double> run_s;       // one per episode
  std::vector<double> ckpt_ms;     // host-blocking time per checkpoint
  std::vector<double> restart_ms;  // kill -> every rank restored
  std::vector<double> commit_local_ms;
  std::vector<double> commit_io_ms;
  std::uint64_t state_bytes = 0;   // state checkpointed
  double blocking_s = 0.0;
  // State that reached the IO level, and the time spent delivering it
  // after capture: the IO-bound commits, or the NDP pump.
  std::uint64_t io_state_bytes = 0;
  double io_deliver_s = 0.0;
  std::uint64_t io_bytes = 0;        // bytes put to the IO store
  std::uint64_t captured_bytes = 0;
  std::uint64_t capture_skipped = 0;
  std::array<double, kL> span_s{};  // busy seconds per top-level layer
  // Store spans per level (0 partner, 1 IO).
  std::array<double, 2> put_s{};
  std::array<double, 2> get_s{};
  std::array<std::uint64_t, 2> ops{};
  std::array<std::uint64_t, 2> bytes{};
  double readback_s = 0.0;
  LedgerRows ledger;
  ckpt::DataPathStats data;
  ckpt::PipelineStats pipe;
  HealthSums health;
  std::array<std::uint64_t, 3> recovered{};  // ranks by level
  std::uint64_t chain_links = 0;
  ndp::AgentStats agent;  // summed over agents (counters only)
  cluster::FailureAnalysisResult des;  // last DES run
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;

  void merge(const EpisodeStats& e);
  // Per-episode mean of a total.
  [[nodiscard]] double per_ep(double total) const {
    return episodes ? total / static_cast<double>(episodes) : 0.0;
  }
  [[nodiscard]] double span(Layer l) const {
    return per_ep(span_s[static_cast<int>(l)]);
  }
};

void add(ndp::AgentStats& a, const ndp::AgentStats& b) {
  a.bytes_compressed += b.bytes_compressed;
  a.bytes_to_io += b.bytes_to_io;
  a.full_frames += b.full_frames;
  a.delta_frames += b.delta_frames;
  a.drains_skipped += b.drains_skipped;
  a.drain_put_failures += b.drain_put_failures;
}

void EpisodeStats::merge(const EpisodeStats& e) {
  auto cat = [](std::vector<double>& a, const std::vector<double>& b) {
    a.insert(a.end(), b.begin(), b.end());
  };
  episodes += e.episodes;
  cat(setup_s, e.setup_s);
  cat(run_s, e.run_s);
  cat(ckpt_ms, e.ckpt_ms);
  cat(restart_ms, e.restart_ms);
  cat(commit_local_ms, e.commit_local_ms);
  cat(commit_io_ms, e.commit_io_ms);
  state_bytes += e.state_bytes;
  blocking_s += e.blocking_s;
  io_state_bytes += e.io_state_bytes;
  io_deliver_s += e.io_deliver_s;
  io_bytes += e.io_bytes;
  captured_bytes += e.captured_bytes;
  capture_skipped += e.capture_skipped;
  for (std::size_t l = 0; l < kL; ++l) {
    span_s[l] += e.span_s[l];
    ledger.self[l] += e.ledger.self[l];
  }
  ledger.unattributed += e.ledger.unattributed;
  ledger.run += e.ledger.run;
  for (int i = 0; i < 2; ++i) {
    put_s[i] += e.put_s[i];
    get_s[i] += e.get_s[i];
    ops[i] += e.ops[i];
    bytes[i] += e.bytes[i];
  }
  readback_s += e.readback_s;
  add(data, e.data);
  pipe.merge(e.pipe);
  health.add(e.health);
  for (int i = 0; i < 3; ++i) recovered[i] += e.recovered[i];
  chain_links += e.chain_links;
  add(agent, e.agent);
  if (e.des.failures) des = e.des;
  attempted += e.attempted;
  failed += e.failed;
  errors.insert(errors.end(), e.errors.begin(), e.errors.end());
}

struct Reference {
  std::vector<std::uint64_t> fingerprints;  // uninterrupted final state
  std::optional<cluster::FailureAnalysisResult> des;
};

// ------------------------------------------------------------ episode

struct EpisodeOptions {
  bool traced = false;
  bool plain = false;  // the scaling leg: checkpoint loop only, no kills/DES
};

class Episode {
 public:
  Episode(const Spec& spec, std::uint64_t seed, const Reference& ref,
          exec::TaskPool& pool, EpisodeOptions opt)
      : spec_(spec), seed_(seed), ref_(ref), pool_(pool), opt_(opt),
        rec_(opt.traced) {}

  EpisodeStats run();

  [[nodiscard]] Recorder& recorder() { return rec_; }
  // The last two checkpoints' payloads (standalone codec legs).
  std::vector<Bytes> take_payloads() { return std::move(payloads_); }
  std::vector<Bytes> take_prev_payloads() { return std::move(prev_); }

 private:
  // Times the benchmark's own correctness checks so they can be taken out
  // of run_s.
  class CheckScope {
   public:
    explicit CheckScope(double& acc) : acc_(acc), t0_(now_s()) {}
    ~CheckScope() { acc_ += now_s() - t0_; }
    CheckScope(const CheckScope&) = delete;
    CheckScope& operator=(const CheckScope&) = delete;

   private:
    double& acc_;
    double t0_;
  };

  // A miss marks the operation in progress as failed; close_op() ends an
  // operation (checkpoint, restart, one rank's drain, DES run, end-of-
  // episode equivalence check) and counts it. A kernel step that fails
  // verify() counts against the operation that follows it.
  void fail(std::string why) {
    op_failed_ = true;
    if (st_.errors.size() < 8) st_.errors.push_back(std::move(why));
  }
  void close_op() {
    ++st_.attempted;
    if (op_failed_) ++st_.failed;
    op_failed_ = false;
  }
  void setup();
  std::unique_ptr<ckpt::MultilevelManager> make_manager(bool adopt);
  void fold_manager();
  void iterate(std::uint32_t n);
  void checkpoint();
  void pump();
  void kill_and_restart(const Kill& kill);
  void check_restart(const Kill& kill, std::uint64_t expect,
                     std::uint64_t got_id, const std::vector<Bytes>& restored,
                     const std::vector<ckpt::RecoveryLevel>& levels);
  std::optional<std::vector<Bytes>> ndp_restore(std::uint64_t& id_out);
  std::optional<Bytes> ndp_decode(std::uint32_t rank, std::uint64_t id,
                                  int depth);
  void run_des();

  const Spec& spec_;
  std::uint64_t seed_;
  const Reference& ref_;
  exec::TaskPool& pool_;
  EpisodeOptions opt_;
  Recorder rec_;
  EpisodeStats st_;
  double check_s_ = 0.0;
  bool op_failed_ = false;

  // Level contents that survive kills (the manager sees TimedStore views).
  std::vector<std::shared_ptr<ckpt::NvmStore>> nvm_;
  std::vector<std::unique_ptr<ckpt::KvStore>> partner_;
  std::unique_ptr<ckpt::KvStore> io_;
  std::unique_ptr<TimedStore> ndp_io_;
  std::vector<std::unique_ptr<ndp::NdpAgent>> agents_;
  std::unique_ptr<ckpt::MultilevelManager> mgr_;
  Kernels kernels_;
  std::vector<Bytes> payloads_;  // last captured (full) payloads
  std::vector<Bytes> prev_;      // the checkpoint before
  bool have_base_ = false;       // incremental capture has a base
  // Oracle: CRC of every committed payload and its iteration, by id.
  std::map<std::uint64_t, std::vector<std::uint32_t>> crcs_;
  std::map<std::uint64_t, std::uint64_t> iter_of_;
};

void Episode::setup() {
  const double t0 = now_s();
  kernels_ = make_kernels(spec_, seed_);
  for (std::uint32_t r = 0; r < spec_.ranks; ++r) {
    nvm_.push_back(std::make_shared<ckpt::NvmStore>(
        spec_.mc.nvm_capacity_bytes, spec_.mc.delta.nvm_dedup_block_bytes));
    partner_.push_back(std::make_unique<ckpt::KvStore>());
  }
  io_ = std::make_unique<ckpt::KvStore>();
  if (spec_.ndp) {
    ndp_io_ = std::make_unique<TimedStore>(*io_, Layer::kStoreIo, rec_);
    for (std::uint32_t r = 0; r < spec_.ranks; ++r) {
      ndp::AgentConfig ac = spec_.agent;
      ac.rank = r;
      agents_.push_back(std::make_unique<ndp::NdpAgent>(ac, *ndp_io_));
    }
  }
  mgr_ = make_manager(false);
  payloads_.resize(spec_.ranks);
  st_.setup_s.push_back(now_s() - t0);
}

std::unique_ptr<ckpt::MultilevelManager> Episode::make_manager(bool adopt) {
  ckpt::MultilevelConfig mc = spec_.mc;
  mc.node_count = spec_.ranks;
  mc.pool = &pool_;
  mc.adopt_existing = adopt;
  mc.nvm_factory = [this](std::uint32_t rank) { return nvm_[rank]; };
  mc.store_factory = [this](ckpt::StoreLevel level, std::uint32_t host)
      -> std::unique_ptr<ckpt::KvStore> {
    if (level == ckpt::StoreLevel::kPartner) {
      return std::make_unique<TimedStore>(*partner_[host],
                                          Layer::kStorePartner, rec_);
    }
    return std::make_unique<TimedStore>(*io_, Layer::kStoreIo, rec_);
  };
  return std::make_unique<ckpt::MultilevelManager>(mc);
}

// Fold the live manager's counters into the episode before it dies.
void Episode::fold_manager() {
  add(st_.data, mgr_->data_path());
  st_.pipe.merge(mgr_->pipeline());
  st_.health.add(mgr_->health());
}

void Episode::iterate(std::uint32_t n) {
  Timed t(rec_, Layer::kIterate);
  for (std::uint32_t i = 0; i < n; ++i) {
    for (auto& k : kernels_) k->iterate();
  }
  st_.span_s[static_cast<int>(Layer::kIterate)] += t.stop();
  CheckScope cs(check_s_);
  for (std::uint32_t r = 0; r < spec_.ranks; ++r) {
    if (!kernels_[r]->verify()) {
      fail("kernel verify() failed on rank " + std::to_string(r));
    }
  }
}

void Episode::checkpoint() {
  const double block0 = now_s();
  std::uint64_t state = 0;
  {
    Timed t(rec_, Layer::kCapture);
    prev_.swap(payloads_);
    payloads_.resize(spec_.ranks);
    for (std::uint32_t r = 0; r < spec_.ranks; ++r) {
      auto& reg = kernels_[r]->registry();
      if (spec_.incremental_capture && have_base_) {
        ckpt::DeltaCaptureStats ds;
        const Bytes delta = reg.capture_delta(&ds);
        payloads_[r] = ckpt::RegionRegistry::apply_delta(prev_[r], delta);
        st_.capture_skipped += ds.skipped_bytes;
      } else {
        payloads_[r] = reg.capture();
      }
      state += payloads_[r].size();
    }
    have_base_ = true;
    st_.span_s[static_cast<int>(Layer::kCapture)] += t.stop();
  }
  st_.captured_bytes += state;
  std::vector<ByteSpan> spans(payloads_.begin(), payloads_.end());
  const std::uint64_t io_before = mgr_->data_path().io_logical_bytes;
  std::uint64_t id = 0;
  double commit_s = 0.0;
  {
    rec_.set_in_write(true);
    Timed t(rec_, Layer::kCommit);
    id = mgr_->commit(spans);
    commit_s = t.stop();
    rec_.set_in_write(false);
    st_.span_s[static_cast<int>(Layer::kCommit)] += commit_s;
  }
  if (spec_.ndp) {
    Timed t(rec_, Layer::kHostCommit);
    for (std::uint32_t r = 0; r < spec_.ranks; ++r) {
      if (!agents_[r]->host_commit(id, payloads_[r])) {
        fail("host_commit refused on rank " + std::to_string(r));
      }
    }
    st_.span_s[static_cast<int>(Layer::kHostCommit)] += t.stop();
  }
  const double blocking = now_s() - block0;
  const bool to_io = mgr_->data_path().io_logical_bytes > io_before;
  st_.ckpt_ms.push_back(blocking * 1e3);
  st_.state_bytes += state;
  st_.blocking_s += blocking;
  (to_io ? st_.commit_io_ms : st_.commit_local_ms).push_back(commit_s * 1e3);
  if (to_io) {
    st_.io_state_bytes += state;
    st_.io_deliver_s += commit_s;
  }

  CheckScope cs(check_s_);
  if (id != (iter_of_.empty() ? 1 : iter_of_.rbegin()->first + 1)) {
    fail("checkpoint id " + std::to_string(id) + " out of sequence");
  }
  std::vector<std::uint32_t> crcs;
  for (const Bytes& p : payloads_) crcs.push_back(Crc32::compute(p));
  crcs_[id] = std::move(crcs);
  iter_of_[id] = kernels_[0]->iteration();
  close_op();
}

// Drain every agent's newest checkpoint to the IO store.
void Episode::pump() {
  double dur = 0.0;
  {
    rec_.set_in_write(true);
    Timed t(rec_, Layer::kPump);
    for (auto& agent : agents_) {
      for (int guard = 0; guard < 1000 && agent->busy(); ++guard) {
        agent->pump(1e9);
      }
    }
    dur = t.stop();
    rec_.set_in_write(false);
  }
  st_.span_s[static_cast<int>(Layer::kPump)] += dur;
  st_.io_deliver_s += dur;
  CheckScope cs(check_s_);
  const std::uint64_t want = iter_of_.rbegin()->first;
  for (std::uint32_t r = 0; r < spec_.ranks; ++r) {
    if (agents_[r]->busy() || agents_[r]->newest_on_io() != want) {
      fail("drain of checkpoint " + std::to_string(want) + " on rank " +
           std::to_string(r) + " did not land");
    } else {
      st_.io_state_bytes += payloads_[r].size();
    }
    close_op();
  }
}

// Decode rank/id from the drained NDFR frames, walking delta frames back
// to their full anchor.
std::optional<Bytes> Episode::ndp_decode(std::uint32_t rank,
                                         std::uint64_t id, int depth) {
  if (depth > 64) return std::nullopt;
  auto stored = ndp_io_->get(rank, id);
  if (!stored.ok()) return std::nullopt;
  const compress::ChunkedCodec codec(spec_.agent.codec,
                                     spec_.agent.codec_level,
                                     spec_.agent.chunk_bytes);
  auto frame = ndp::NdpAgent::parse_frame(codec.decompress(*stored));
  if (!frame) return std::nullopt;
  if (frame->kind == ckpt::PayloadKind::kFull) return std::move(frame->payload);
  ++st_.chain_links;
  const auto base = ndp_decode(rank, frame->base_id, depth + 1);
  if (!base) return std::nullopt;
  const delta::DeltaCodec dc(delta::DeltaCodec::stream_block_size(frame->payload));
  return dc.decode(*base, frame->payload);
}

std::optional<std::vector<Bytes>> Episode::ndp_restore(std::uint64_t& id_out) {
  std::uint64_t id = UINT64_MAX;
  for (std::uint32_t r = 0; r < spec_.ranks; ++r) {
    const auto newest = io_->newest_id(r);
    if (!newest) return std::nullopt;
    id = std::min(id, *newest);
  }
  std::vector<Bytes> out;
  for (std::uint32_t r = 0; r < spec_.ranks; ++r) {
    auto p = ndp_decode(r, id, 0);
    if (!p) return std::nullopt;
    out.push_back(std::move(*p));
  }
  id_out = id;
  return out;
}

void Episode::kill_and_restart(const Kill& kill) {
  iterate(kill.lost_iters);  // work the kill throws away
  const std::uint64_t last = iter_of_.rbegin()->first;
  // The kill: every rank's process dies with its in-memory state (and, for
  // a process kill, the manager). Tearing them down is not restart time.
  kernels_.clear();
  if (kill.kind == KillKind::kProcess) {
    fold_manager();
    mgr_.reset();
  }
  const double t0 = now_s();
  {
    // The restarted ranks initialize the application before restoring.
    Timed t(rec_, Layer::kInit);
    kernels_ = make_kernels(spec_, seed_);
    st_.span_s[static_cast<int>(Layer::kInit)] += t.stop();
  }
  std::uint64_t got_id = 0;
  std::vector<Bytes> restored;
  std::vector<ckpt::RecoveryLevel> levels;
  if (kill.kind == KillKind::kNdpNode) {
    mgr_->fail_node(kill.victim);
    agents_[kill.victim]->reset();
    Timed t(rec_, Layer::kRecover);
    auto r = ndp_restore(got_id);
    st_.span_s[static_cast<int>(Layer::kRecover)] += t.stop();
    if (r) restored = std::move(*r);
    levels.assign(spec_.ranks, ckpt::RecoveryLevel::kIo);
  } else {
    if (kill.kind == KillKind::kProcess) {
      Timed t(rec_, Layer::kAdopt);
      mgr_ = make_manager(true);
      st_.span_s[static_cast<int>(Layer::kAdopt)] += t.stop();
    } else {
      mgr_->fail_node(kill.victim);
    }
    Timed t(rec_, Layer::kRecover);
    auto r = mgr_->recover();
    st_.span_s[static_cast<int>(Layer::kRecover)] += t.stop();
    if (r) {
      got_id = r->checkpoint_id;
      restored = std::move(r->payloads);
      levels = std::move(r->levels);
    }
  }
  if (restored.size() == spec_.ranks) {
    Timed t(rec_, Layer::kRestore);
    for (std::uint32_t r = 0; r < spec_.ranks; ++r) {
      kernels_[r]->registry().restore(restored[r]);
    }
    st_.span_s[static_cast<int>(Layer::kRestore)] += t.stop();
  }
  st_.restart_ms.push_back((now_s() - t0) * 1e3);
  have_base_ = false;  // the next capture re-establishes a full base

  CheckScope cs(check_s_);
  check_restart(kill, last, got_id, restored, levels);
  close_op();
}

void Episode::check_restart(const Kill& kill, std::uint64_t expect,
                            std::uint64_t got_id,
                            const std::vector<Bytes>& restored,
                            const std::vector<ckpt::RecoveryLevel>& levels) {
  const std::string what = std::string(to_string(kill.kind)) + " restart";
  if (restored.size() != spec_.ranks) {
    fail(what + ": nothing recovered");
    return;
  }
  if (got_id != expect) {
    fail(what + " recovered checkpoint " + std::to_string(got_id) +
         ", expected " + std::to_string(expect));
    return;
  }
  const auto& crcs = crcs_.at(got_id);
  for (std::uint32_t r = 0; r < spec_.ranks; ++r) {
    if (Crc32::compute(restored[r]) != crcs[r]) {
      fail(what + ": rank " + std::to_string(r) +
           " payload CRC differs from the committed bytes");
    }
    if (kernels_[r]->iteration() != iter_of_.at(got_id)) {
      fail(what + ": rank " + std::to_string(r) + " resumed at the wrong "
           "iteration");
    }
    ++st_.recovered[static_cast<int>(levels[r])];
  }
}

void Episode::run_des() {
  Timed t(rec_, Layer::kAnalyze);
  cluster::FailureAnalysisResult res = cluster::analyze_failures(spec_.des_cfg);
  st_.span_s[static_cast<int>(Layer::kAnalyze)] += t.stop();
  CheckScope cs(check_s_);
  if (res.failures != res.local_recoverable + res.io_required) {
    fail("DES invariant failures == local + io violated");
  }
  const auto& want = *ref_.des;
  if (res.failures != want.failures ||
      res.local_recoverable != want.local_recoverable ||
      res.io_required != want.io_required ||
      res.events_processed != want.events_processed) {
    fail("DES counts differ from the first run of this seed");
  }
  st_.des = res;
  close_op();
}

EpisodeStats Episode::run() {
  setup();
  const double t0 = now_s();
  if (spec_.des && !opt_.plain) run_des();
  // Run to the reference's iteration count: a restart that rolls back
  // further than the last checkpoint costs extra checkpoints, not less
  // work.
  const std::uint64_t total =
      static_cast<std::uint64_t>(spec_.checkpoints) * spec_.iters_between;
  std::size_t next_kill = 0;
  for (std::uint32_t c = 1; kernels_[0]->iteration() < total; ++c) {
    iterate(spec_.iters_between);
    checkpoint();
    if (spec_.ndp) pump();
    while (!opt_.plain && next_kill < spec_.kills.size() &&
           spec_.kills[next_kill].after_ckpt == c) {
      kill_and_restart(spec_.kills[next_kill++]);
    }
    if (st_.failed != 0) break;
  }
  const double run_s = now_s() - t0 - check_s_;
  st_.episodes = 1;
  st_.run_s.push_back(run_s);

  {
    CheckScope cs(check_s_);
    for (std::uint32_t r = 0; r < spec_.ranks; ++r) {
      if (kernels_[r]->fingerprint() != ref_.fingerprints[r]) {
        fail("rank " + std::to_string(r) + " final state differs from "
             "the uninterrupted run");
      }
    }
    fold_manager();
    if (st_.health.put_failures + st_.health.verify_failures != 0) {
      fail("store health reports failed puts or verify mismatches");
    }
    for (const auto& a : agents_) add(st_.agent, a->stats());
    if (st_.agent.drain_put_failures != 0) fail("NDP drain puts failed");
    close_op();
    st_.io_bytes = st_.data.io_bytes_written + st_.agent.bytes_to_io;
    st_.chain_links += st_.data.chain_links;
    if (rec_.enabled()) {
      st_.ledger = reconcile(rec_, run_s);
      for (const Span& op : rec_.store_spans()) {
        const int lvl = op.layer == Layer::kStoreIo ? 1 : 0;
        const double d = op.t1 - op.t0;
        (op.get ? st_.get_s : st_.put_s)[lvl] += d;
        ++st_.ops[lvl];
        st_.bytes[lvl] += op.bytes;
        if (op.readback) st_.readback_s += d;
      }
    }
  }
  return st_;
}

Reference make_reference(const Spec& spec, std::uint64_t seed) {
  Reference ref;
  Kernels k = make_kernels(spec, seed);
  const std::uint64_t iters =
      static_cast<std::uint64_t>(spec.checkpoints) * spec.iters_between;
  for (std::uint64_t i = 0; i < iters; ++i) {
    for (auto& kernel : k) kernel->iterate();
  }
  for (auto& kernel : k) ref.fingerprints.push_back(kernel->fingerprint());
  if (spec.des) ref.des = cluster::analyze_failures(spec.des_cfg);
  return ref;
}

// ------------------------------------------------------------- output

// Named metrics in report order; printed as a table and as the JSON
// "metrics" object.
class Metrics {
 public:
  void put(std::string name, double value, std::string unit) {
    if (!std::isfinite(value)) value = 0.0;
    rows_.push_back(Row{std::move(name), value, std::move(unit)});
  }
  [[nodiscard]] std::string json() const {
    std::string out = "{";
    char buf[64];
    for (const Row& r : rows_) {
      std::snprintf(buf, sizeof buf, "%.17g", r.value);
      out += (out.size() > 1 ? ", \"" : "\"") + r.name +
             "\": {\"value\": " + buf + ", \"unit\": \"" + r.unit + "\"}";
    }
    return out + "}";
  }
  void print_table() const {
    for (const Row& r : rows_) {
      std::printf("  %-34s %16.6g %s\n", r.name.c_str(), r.value,
                  r.unit.c_str());
    }
  }

 private:
  struct Row {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Row> rows_;
};

double gib_s(std::uint64_t bytes, double seconds) {
  return seconds > 0 ? static_cast<double>(bytes) / kGiB / seconds : 0.0;
}

double mib_s(std::uint64_t bytes, double seconds) {
  return seconds > 0 ? static_cast<double>(bytes) / kMiB / seconds : 0.0;
}

void end_to_end(const Spec& spec, const EpisodeStats& a, Metrics& m) {
  const double q = spec.tail_pct / 100.0;
  const double tail = quantile(a.ckpt_ms, q);
  const auto beyond = std::count_if(a.ckpt_ms.begin(), a.ckpt_ms.end(),
                                    [&](double v) { return v > tail; });
  std::printf("ckpt_ms_tail = p%g of %zu checkpoint samples (%td beyond)\n",
              spec.tail_pct, a.ckpt_ms.size(), beyond);
  std::printf("restart_ms_p50 over %zu restarts; run_s/setup_s medians of "
              "%zu episodes; episode run_s:",
              a.restart_ms.size(), a.episodes);
  for (const double r : a.run_s) std::printf(" %.3f", r);
  std::printf("\n");
  m.put("run_s", median(a.run_s), "s");
  m.put("ckpt_ms_p50", median(a.ckpt_ms), "ms");
  m.put("ckpt_ms_tail", tail, "ms");
  m.put("ckpt_gib_s", gib_s(a.state_bytes, a.blocking_s), "GiB/s");
  m.put("restart_ms_p50", median(a.restart_ms), "ms");
  m.put("io_bytes_per_state_byte",
        a.state_bytes ? static_cast<double>(a.io_bytes) /
                            static_cast<double>(a.state_bytes)
                      : 0.0,
        "ratio");
  m.put("drain_mib_s", mib_s(a.io_state_bytes, a.io_deliver_s), "MiB/s");
  m.put("setup_s", median(a.setup_s), "s");
  m.put("peak_rss_mib", peak_rss_mib(), "MiB");
}

// Standalone codec legs on the run's own captured images: never part of
// the ledger, which holds in-run time only.
struct Standalone {
  double nlz4_t1 = 0, nlz4_tn = 0, decode = 0, ratio = 0;
  double delta_enc = 0, delta_dec = 0;
  std::uint64_t attempted = 0;  // round trips checked
  std::vector<std::string> errors;
};

template <typename Fn>
double rate_mib_s(std::uint64_t bytes_per_call, Fn&& fn) {
  // Repeat for at least 0.2 s; report the best of three such batches.
  double best = 0.0;
  for (int batch = 0; batch < 3; ++batch) {
    std::uint64_t done = 0;
    const double t0 = now_s();
    double t = 0.0;
    do {
      fn();
      done += bytes_per_call;
      t = now_s() - t0;
    } while (t < 0.2);
    best = std::max(best, mib_s(done, t));
  }
  return best;
}

Standalone standalone_legs(const std::vector<Bytes>& cur,
                           const std::vector<Bytes>& prev, unsigned nproc) {
  Standalone s;
  std::uint64_t raw = 0;
  for (const Bytes& p : cur) raw += p.size();
  const compress::ChunkedCodec c1(compress::CodecId::kLz4Style, 1, 64u << 10,
                                  1);
  const compress::ChunkedCodec cn(compress::CodecId::kLz4Style, 1, 64u << 10,
                                  nproc);
  std::vector<Bytes> packed;
  std::uint64_t packed_bytes = 0;
  for (const Bytes& p : cur) {
    packed.push_back(cn.compress(p));
    packed_bytes += packed.back().size();
    ++s.attempted;
    if (c1.decompress(packed.back()) != p) {
      s.errors.push_back("standalone nlz4 round trip differs");
    }
  }
  s.ratio = packed_bytes ? static_cast<double>(raw) /
                               static_cast<double>(packed_bytes)
                         : 0.0;
  s.nlz4_t1 = rate_mib_s(raw, [&] {
    for (const Bytes& p : cur) (void)c1.compress(p);
  });
  s.nlz4_tn = rate_mib_s(raw, [&] {
    for (const Bytes& p : cur) (void)cn.compress(p);
  });
  s.decode = rate_mib_s(raw, [&] {
    for (const Bytes& p : packed) (void)cn.decompress(p);
  });
  if (prev.size() == cur.size()) {
    const delta::DeltaCodec dc(4096);
    std::vector<Bytes> deltas;
    for (std::size_t r = 0; r < cur.size(); ++r) {
      deltas.push_back(dc.encode(prev[r], cur[r]));
      ++s.attempted;
      if (dc.decode(prev[r], deltas.back()) != cur[r]) {
        s.errors.push_back("standalone delta round trip differs");
      }
    }
    s.delta_enc = rate_mib_s(raw, [&] {
      for (std::size_t r = 0; r < cur.size(); ++r) {
        (void)dc.encode(prev[r], cur[r]);
      }
    });
    s.delta_dec = rate_mib_s(raw, [&] {
      for (std::size_t r = 0; r < cur.size(); ++r) {
        (void)dc.decode(prev[r], deltas[r]);
      }
    });
  }
  return s;
}

void per_layer(const Spec& spec, const EpisodeStats& t, const EpisodeStats& u,
               const Standalone& sa, double scaling, Metrics& m) {
  auto L = [&](Layer l) { return t.span(l); };
  auto S = [&](Layer l) {
    return t.per_ep(t.ledger.self[static_cast<int>(l)]);
  };
  auto cnt = [&](std::uint64_t v) { return t.per_ep(static_cast<double>(v)); };
  // Span totals per episode (busy time; store levels summed over threads).
  m.put("workloads.iterate_s", L(Layer::kIterate), "s");
  m.put("workloads.init_s", L(Layer::kInit), "s");
  m.put("ckpt.capture_s", L(Layer::kCapture), "s");
  m.put("ckpt.capture_gib_s", gib_s(t.captured_bytes, t.span_s[static_cast<int>(Layer::kCapture)]), "GiB/s");
  m.put("ckpt.capture_skipped_bytes", cnt(t.capture_skipped), "bytes");
  m.put("ckpt.restore_s", L(Layer::kRestore), "s");
  m.put("ckpt.commit_s", L(Layer::kCommit), "s");
  m.put("ckpt.commit_self_s", S(Layer::kCommit), "s");
  m.put("ckpt.commit_local_ms_p50", median(t.commit_local_ms), "ms");
  m.put("ckpt.commit_io_ms_p50", median(t.commit_io_ms), "ms");
  m.put("ckpt.adopt_s", L(Layer::kAdopt), "s");
  m.put("ckpt.recover_s", L(Layer::kRecover), "s");
  m.put("ckpt.recovered_local", cnt(t.recovered[0]), "ranks");
  m.put("ckpt.recovered_partner", cnt(t.recovered[1]), "ranks");
  m.put("ckpt.recovered_io", cnt(t.recovered[2]), "ranks");
  m.put("ckpt.chain_links", cnt(t.chain_links), "count");
  m.put("ckpt.data.local_bytes", cnt(t.data.local_bytes_written), "bytes");
  m.put("ckpt.data.partner_bytes", cnt(t.data.partner_bytes_written),
        "bytes");
  m.put("ckpt.data.io_logical_bytes", cnt(t.data.io_logical_bytes), "bytes");
  m.put("ckpt.data.io_bytes", cnt(t.data.io_bytes_written), "bytes");
  m.put("ckpt.delta_factor", t.data.delta_factor(), "ratio");
  m.put("ckpt.dedup_hit_rate", t.data.dedup_hit_rate(), "ratio");
  m.put("ckpt.writer.jobs", cnt(t.pipe.jobs), "count");
  m.put("ckpt.writer.inline_jobs", cnt(t.pipe.inline_jobs), "count");
  m.put("ckpt.writer.queue_peak", static_cast<double>(t.pipe.queue_peak),
        "count");
  m.put("ckpt.writer.enqueue_stalls", cnt(t.pipe.enqueue_stalls), "count");
  m.put("ckpt.health.puts", cnt(t.health.puts), "count");
  m.put("ckpt.health.put_retries", cnt(t.health.put_retries), "count");
  m.put("ckpt.health.verify_failures",
        static_cast<double>(t.health.verify_failures), "count");
  const char* lvl[2] = {"partner", "io"};
  for (int i = 0; i < 2; ++i) {
    const std::string p = std::string("ckpt.store.") + lvl[i];
    m.put(p + ".put_s", t.per_ep(t.put_s[i]), "s");
    m.put(p + ".get_s", t.per_ep(t.get_s[i]), "s");
    m.put(p + ".ops", cnt(t.ops[i]), "count");
    m.put(p + ".bytes", cnt(t.bytes[i]), "bytes");
  }
  m.put("ckpt.verify_readback_s", t.per_ep(t.readback_s), "s");
  m.put("compress.nlz4_mib_s.t1", sa.nlz4_t1, "MiB/s");
  m.put("compress.nlz4_mib_s.tN", sa.nlz4_tn, "MiB/s");
  m.put("compress.decode_mib_s", sa.decode, "MiB/s");
  m.put("compress.ratio", sa.ratio, "ratio");
  m.put("delta.encode_mib_s", sa.delta_enc, "MiB/s");
  m.put("delta.decode_mib_s", sa.delta_dec, "MiB/s");
  m.put("ndp.host_commit_s", L(Layer::kHostCommit), "s");
  m.put("ndp.pump_s", L(Layer::kPump), "s");
  m.put("ndp.bytes_compressed", cnt(t.agent.bytes_compressed), "bytes");
  m.put("ndp.bytes_to_io", cnt(t.agent.bytes_to_io), "bytes");
  m.put("ndp.full_frames", cnt(t.agent.full_frames), "count");
  m.put("ndp.delta_frames", cnt(t.agent.delta_frames), "count");
  m.put("ndp.drains_skipped", cnt(t.agent.drains_skipped), "count");
  m.put("exec.commit_scaling", scaling, "ratio");
  m.put("cluster.analyze_s", L(Layer::kAnalyze), "s");
  m.put("cluster.events_processed",
        static_cast<double>(t.des.events_processed), "count");
  m.put("cluster.failures_per_event",
        t.des.events_processed ? static_cast<double>(t.des.failures) /
                                     static_cast<double>(t.des.events_processed)
                               : 0.0,
        "ratio");
  m.put("cluster.p_local", t.des.p_local(), "ratio");
  m.put("obs.trace_overhead",
        median(u.run_s) > 0 ? median(t.run_s) / median(u.run_s) : 0.0,
        "ratio");
  // The ledger: these rows sum to ledger.run_s (per-episode means).
  double sum = t.per_ep(t.ledger.unattributed);
  for (std::size_t l = 0; l < kL; ++l) {
    const double v = t.per_ep(t.ledger.self[l]);
    sum += v;
    m.put(std::string("ledger.") + layer_name(static_cast<Layer>(l)) + "_s",
          v, "s");
  }
  m.put("ledger.unattributed_s", t.per_ep(t.ledger.unattributed), "s");
  m.put("ledger.run_s", t.per_ep(t.ledger.run), "s");
  std::printf("ledger: rows sum to %.6f s, traced run %.6f s per episode "
              "(%zu traced, %zu untraced episodes); %s\n",
              sum, t.per_ep(t.ledger.run), t.episodes, u.episodes,
              spec.name.c_str());
}

void write_chrome_trace(const std::string& path,
                        const std::vector<std::vector<Span>>& episodes) {
  obs::Tracer tracer;
  tracer.set_track_name(0, "main");
  for (const auto& spans : episodes) {
    for (const Span& s : spans) {
      tracer.span_at(s.t0, s.t1, layer_name(s.layer),
                     s.get ? (s.readback ? "readback" : "get") : "span",
                     s.track, {obs::u64("bytes", s.bytes)});
    }
  }
  std::ofstream out(path);
  out << tracer.chrome_json();
  if (!out) std::fprintf(stderr, "warning: could not write %s\n", path.c_str());
}

// ---------------------------------------------------------------- main

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_out;
};

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + k);
    const std::string v = argv[++i];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::stoull(v);
    else if (k == "--seconds") a.seconds = std::stod(v);
    else if (k == "--trace") a.trace = v != "0";
    else if (k == "--trace-out") a.trace_out = v;
    else throw std::invalid_argument("unknown flag " + k);
  }
  if (std::find(workload_names().begin(), workload_names().end(),
                a.workload) == workload_names().end()) {
    throw std::invalid_argument("--workload must be one of full-nlz4, "
                                "delta-dedup, ndp-drain, failure-des");
  }
  return a;
}

int run(const Args& args) {
  const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
  const Spec spec = make_spec(args.workload, args.seed);
  const Reference ref = make_reference(spec, args.seed);
  exec::TaskPool pool(nproc);
  std::printf("workload %s seed %llu: %u ranks x %zu KiB, %u checkpoints "
              "per episode, pool %u, closed loop\n",
              spec.name.c_str(), static_cast<unsigned long long>(args.seed),
              spec.ranks, spec.rank_bytes >> 10, spec.checkpoints, nproc);
  for (const Kill& k : spec.kills) {
    std::printf("  kill %-8s after checkpoint %u (victim rank %u, %u "
                "iterations lost)\n",
                to_string(k.kind), k.after_ckpt, k.victim, k.lost_iters);
  }

  // `legs`: the warm-up episode, the standalone legs and the scaling
  // leg's episodes, counted for correctness only.
  EpisodeStats untraced, traced, legs;
  // One discarded warm-up episode: it pages in the code, starts the pool
  // and grows the heap to the workload's working size, so the first timed
  // episode does not pay first-touch page faults the others do not.
  legs.merge(Episode(spec, args.seed, ref, pool, EpisodeOptions{}).run());
  std::vector<std::vector<Span>> trace_spans;
  std::vector<Bytes> cur, prev;
  const double t0 = now_s();
  auto enough = [&] {
    const double t = now_s() - t0;
    if (t > kMaxLoopSeconds) return true;
    if (t < args.seconds) return false;
    if (!args.trace) return untraced.ckpt_ms.size() >= spec.min_ckpts;
    return traced.episodes >= 3 && untraced.episodes >= 3;
  };
  for (std::size_t ep = 0; !enough(); ++ep) {
    // --trace 1 alternates untraced and traced episodes, so the overhead
    // ratio compares neighbours under the same machine conditions.
    const bool traced_ep = args.trace && ep % 2 == 1;
    Episode e(spec, args.seed, ref, pool, EpisodeOptions{traced_ep});
    const EpisodeStats st = e.run();
    if (traced_ep) {
      traced.merge(st);
      trace_spans.push_back(e.recorder().top_spans());
      const auto& ops = e.recorder().store_spans();
      trace_spans.back().insert(trace_spans.back().end(), ops.begin(),
                                ops.end());
      cur = e.take_payloads();
      prev = e.take_prev_payloads();
    } else {
      untraced.merge(st);
    }
  }

  Metrics m;
  if (args.trace) {
    const Standalone sa = standalone_legs(cur, prev, nproc);
    legs.attempted += sa.attempted;
    legs.failed += sa.errors.size();
    legs.errors.insert(legs.errors.end(), sa.errors.begin(), sa.errors.end());
    // exec.commit_scaling: the workload's checkpoint loop, no kills, at
    // pool 1 and pool nproc, interleaved; ratio of medians of ckpt_gib_s.
    exec::TaskPool pool1(1);
    std::vector<double> g1, gn;
    EpisodeOptions plain;
    plain.plain = true;
    for (int rep = 0; rep < 2; ++rep) {
      for (exec::TaskPool* p : {&pool1, &pool}) {
        Episode e(spec, args.seed, ref, *p, plain);
        const EpisodeStats st = e.run();
        (p == &pool1 ? g1 : gn).push_back(gib_s(st.state_bytes, st.blocking_s));
        legs.merge(st);
      }
    }
    const double scaling = median(g1) > 0 ? median(gn) / median(g1) : 0.0;
    per_layer(spec, traced, untraced, sa, scaling, m);
    if (!args.trace_out.empty()) write_chrome_trace(args.trace_out, trace_spans);
  } else {
    end_to_end(spec, untraced, m);
  }
  m.print_table();

  const std::uint64_t attempted =
      untraced.attempted + traced.attempted + legs.attempted;
  const std::uint64_t failed = untraced.failed + traced.failed + legs.failed;
  for (const EpisodeStats* a : {&untraced, &traced, &legs}) {
    for (const auto& err : a->errors) {
      std::fprintf(stderr, "FAIL: %s\n", err.c_str());
    }
  }
  const bool correct = failed == 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed), m.json().c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  // Keep freed image buffers inside the process. With glibc's defaults the
  // heap is trimmed and MiB buffers are unmapped, so the next checkpoint
  // or restart faults the pages in again. On a VM that reports free guest
  // pages to its host, that fault costs whatever the host's state makes it
  // cost (on a 4-vCPU KVM guest, ndp-drain's restart median moved by 70%
  // between identical sweeps). Fixed thresholds take that host state out
  // of the figures; the price is that page-fault costs of the library's
  // own allocations are not measured (see README.md).
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
  mallopt(M_TRIM_THRESHOLD, 1 << 30);
  try {
    return perfbench::run(perfbench::parse(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
