#include "ckpt/multilevel.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "exec/task_pool.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace ndpcr::ckpt {
namespace {

// Bounded retry for store operations: total tries per operation, and the
// virtual backoff before the first retry, growing x2 per retry. Backoff
// is accounted in the HealthReport, never slept, so fault schedules
// replay bit-identically at any speed.
constexpr std::uint32_t kMaxAttempts = 4;
constexpr double kBackoffSeconds = 0.01;
constexpr double kBackoffMultiplier = 2.0;

double backoff_for(std::uint32_t attempt) {
  // Virtual delay charged before retry `attempt` (1-based).
  return kBackoffSeconds *
         std::pow(kBackoffMultiplier, static_cast<double>(attempt - 1));
}

// Fold one task's private health delta into the level's counters. Always
// called in index order after the batch barrier, so every counter - the
// floating-point backoff sum included - is reduced in one fixed order and
// the totals are bit-identical at any thread count.
void merge_level(LevelHealth& into, const LevelHealth& delta) {
  into.puts += delta.puts;
  into.put_retries += delta.put_retries;
  into.put_failures += delta.put_failures;
  into.verify_failures += delta.verify_failures;
  into.quarantined += delta.quarantined;
  into.read_retries += delta.read_retries;
  into.backoff_seconds += delta.backoff_seconds;
}

// Parse + CRC-check raw image bytes; the image iff they are rank/id's
// checkpoint. Pure - safe from any task.
std::optional<CheckpointImage> parse_image(std::uint32_t rank,
                                           std::uint64_t id, ByteSpan raw) {
  try {
    CheckpointImage image = CheckpointImage::parse(raw);
    if (image.meta().rank != rank || image.meta().checkpoint_id != id) {
      return std::nullopt;
    }
    return image;
  } catch (const ImageError&) {
    return std::nullopt;
  }
}

// Recovery walks levels fastest to slowest; a chain is charged the
// deepest level any of its links came from.
RecoveryLevel deeper(RecoveryLevel a, RecoveryLevel b) {
  return static_cast<int>(a) >= static_cast<int>(b) ? a : b;
}

// Bound on delta links walked before recovery declares a chain cyclic or
// corrupt (base_id must strictly decrease, so this only trips on damage).
constexpr std::size_t kMaxChainLinks = 4096;

// What the executor needs to know about each level, indexed by
// RecoveryLevel: its health and byte counters and its trace names.
struct LevelDesc {
  LevelHealth HealthReport::*health;
  std::uint64_t DataPathStats::*written;
  const char* cat;     // event category
  const char* name;    // to_string(); also the start_level span
  const char* settle;  // finish_level span (root track)
  const char* put;     // per-job span
};
constexpr LevelDesc kLevels[] = {
    {&HealthReport::local, &DataPathStats::local_bytes_written,
     "ckpt.local", "local", "local_settle", "nvm_write"},
    {&HealthReport::partner, &DataPathStats::partner_bytes_written,
     "ckpt.partner", "partner", "partner_settle", "partner_put"},
    {&HealthReport::io, &DataPathStats::io_bytes_written, "ckpt.io", "io",
     "io_settle", "io_put"},
};

const LevelDesc& desc_of(RecoveryLevel level) {
  return kLevels[static_cast<int>(level)];
}

std::size_t total_bytes(const std::vector<Bytes>& images) {
  std::size_t n = 0;
  for (const Bytes& image : images) n += image.size();
  return n;
}

}  // namespace

const char* to_string(RecoveryLevel level) { return desc_of(level).name; }

const char* to_string(LevelState state) {
  switch (state) {
    case LevelState::kHealthy:
      return "healthy";
    case LevelState::kDegraded:
      return "degraded";
  }
  return "?";
}

void record_health(obs::MetricsRegistry& metrics, const HealthReport& report,
                   std::string_view prefix) {
  const auto level = [&](const char* name, const LevelHealth& h) {
    const std::string base = std::string(prefix) + "." + name + ".";
    metrics.counter(base + "puts").add(h.puts);
    metrics.counter(base + "put_retries").add(h.put_retries);
    metrics.counter(base + "put_failures").add(h.put_failures);
    metrics.counter(base + "verify_failures").add(h.verify_failures);
    metrics.counter(base + "quarantined").add(h.quarantined);
    metrics.counter(base + "read_retries").add(h.read_retries);
    metrics.counter(base + "degraded_commits").add(h.degraded_commits);
    metrics.counter(base + "repairs").add(h.repairs);
    metrics.gauge(base + "backoff_seconds").set(h.backoff_seconds);
    metrics.gauge(base + "degraded").set(h.degraded() ? 1.0 : 0.0);
  };
  level("local", report.local);
  level("partner", report.partner);
  level("io", report.io);
  const std::string base = std::string(prefix) + ".";
  metrics.counter(base + "commits").add(report.commits);
  metrics.counter(base + "degraded_commits").add(report.degraded_commits);
}

void record_data_path(obs::MetricsRegistry& metrics,
                      const DataPathStats& stats, std::string_view prefix) {
  const std::string base = std::string(prefix) + ".";
  metrics.counter(base + "commits_full").add(stats.commits_full);
  metrics.counter(base + "commits_delta").add(stats.commits_delta);
  metrics.counter(base + "payload_bytes_in").add(stats.payload_bytes_in);
  metrics.counter(base + "delta_input_bytes").add(stats.delta_input_bytes);
  metrics.counter(base + "delta_encoded_bytes")
      .add(stats.delta_encoded_bytes);
  metrics.counter(base + "local_bytes_written")
      .add(stats.local_bytes_written);
  metrics.counter(base + "partner_bytes_written")
      .add(stats.partner_bytes_written);
  metrics.counter(base + "io_logical_bytes").add(stats.io_logical_bytes);
  metrics.counter(base + "io_bytes_written").add(stats.io_bytes_written);
  metrics.counter(base + "dedup_new_bytes").add(stats.dedup_new_bytes);
  metrics.counter(base + "dedup_dup_bytes").add(stats.dedup_dup_bytes);
  metrics.counter(base + "chain_links").add(stats.chain_links);
  metrics.counter(base + "chain_replays").add(stats.chain_replays);
  metrics.gauge(base + "delta_factor").set(stats.delta_factor());
  metrics.gauge(base + "dedup_hit_rate").set(stats.dedup_hit_rate());
}

void record_pipeline(obs::MetricsRegistry& metrics,
                     const PipelineStats& stats, std::string_view prefix) {
  const std::string base = std::string(prefix) + ".";
  metrics.counter(base + "jobs").add(stats.jobs);
  metrics.counter(base + "inline_jobs").add(stats.inline_jobs);
  metrics.counter(base + "flushes").add(stats.flushes);
  // Wall-clock observations (scheduling-dependent): gauges, and excluded
  // from fingerprints the way wall-time trace events are.
  metrics.gauge(base + "queue_peak")
      .set(static_cast<double>(stats.queue_peak));
  metrics.gauge(base + "enqueue_stalls")
      .set(static_cast<double>(stats.enqueue_stalls));
}

MultilevelManager::MultilevelManager(const MultilevelConfig& config)
    : config_(config),
      trace_(config.trace ? config.trace : &obs::Tracer::null()) {
  if (config.node_count == 0) {
    throw std::invalid_argument("node_count must be positive");
  }
  if (config.partner_scheme == PartnerScheme::kXorGroup) {
    group_size_ = config.xor_group_size;
    if (config.xor_group_size == 0 ||
        (config.node_count > 1 &&
         config.xor_group_size >= config.node_count)) {
      // The parity host is the node after the group; a group spanning the
      // whole machine would host its own parity and tolerate nothing.
      throw std::invalid_argument(
          "xor_group_size must be in [1, node_count)");
    }
  }
  unsigned codec_threads = config.io_threads;
  if (codec_threads == 0) {
    codec_threads = config.pool ? config.pool->thread_count()
                                : exec::default_thread_count();
  }
  if (config.io_codec != compress::CodecId::kNull) {
    io_codec_.emplace(config.io_codec, config.io_codec_level,
                      config.io_chunk_bytes, codec_threads);
    io_codec_->warm(codec_threads);
  } else if (config.io_codec_adaptive) {
    // Online selection (docs/PERF.md): one pre-built codec per candidate,
    // so the per-commit probe choice costs a table lookup, never a codec
    // allocation. A static io_codec overrides adaptive entirely.
    adaptive_codecs_.reserve(compress::kCodecCandidates);
    for (std::size_t c = 0; c < compress::kCodecCandidates; ++c) {
      const compress::CodecChoice choice = compress::codec_candidate(c);
      adaptive_codecs_.push_back(std::make_unique<compress::ChunkedCodec>(
          choice.id, choice.level, config.io_chunk_bytes, codec_threads,
          choice.accelerate));
      adaptive_codecs_.back()->warm(codec_threads);
    }
  }
  if (config.delta.enabled) {
    if (config.delta.block_bytes == 0) {
      throw std::invalid_argument("delta.block_bytes must be positive");
    }
    delta_codec_.emplace(config.delta.block_bytes);
    prev_payload_.resize(config.node_count);
    delta_scratch_.warm(config.node_count);
  }
  if (config.delta.io_dedup) {
    io_dedup_.emplace(config.delta.cdc);  // throws on bad CDC parameters
  }
  local_.reserve(config.node_count);
  for (std::uint32_t n = 0; n < config.node_count; ++n) {
    if (config_.nvm_factory) {
      local_.push_back(config_.nvm_factory(n));
      if (!local_.back()) {
        throw std::invalid_argument("nvm_factory returned null");
      }
    } else {
      local_.push_back(std::make_shared<NvmStore>(
          config.nvm_capacity_bytes, config.delta.nvm_dedup_block_bytes));
    }
  }
  local_write_ops_.assign(config.node_count, 0);
  auto make_store = [&](StoreLevel level,
                        std::uint32_t host) -> std::unique_ptr<KvStore> {
    if (config_.store_factory) return config_.store_factory(level, host);
    return std::make_unique<KvStore>();
  };
  partner_space_.reserve(config.node_count);
  for (std::uint32_t n = 0; n < config.node_count; ++n) {
    partner_space_.push_back(make_store(StoreLevel::kPartner, n));
  }
  io_ = make_store(StoreLevel::kIo, 0);
  if (config.adopt_existing) adopt_existing_state();
  if (trace_->enabled()) {
    trace_->set_track_name(0, "ckpt.manager");
    for (std::uint32_t n = 0; n < config.node_count; ++n) {
      trace_->set_track_name(1 + n, "rank " + std::to_string(n));
    }
  }
}

void MultilevelManager::adopt_existing_state() {
  // Restart over surviving stores (docs/EQUIVALENCE.md): find the newest
  // checkpoint id any level still holds for any rank, so new commits
  // continue the id sequence instead of colliding with a previous life's
  // entries. Every key space the commit path writes under is scanned:
  // local NVM per rank, partner spaces (keyed by the group's first rank,
  // in [0, node_count)), and the IO store.
  std::uint64_t newest = 0;
  for (std::uint32_t rank = 0; rank < config_.node_count; ++rank) {
    if (const auto id = local_[rank]->newest_id()) {
      newest = std::max(newest, *id);
    }
    for (std::uint32_t host = 0; host < config_.node_count; ++host) {
      if (const auto id = partner_space_[host]->newest_id(rank)) {
        newest = std::max(newest, *id);
      }
    }
    if (const auto id = io_->newest_id(rank)) {
      newest = std::max(newest, *id);
    }
  }
  next_id_ = newest + 1;
  // Rebuild the dedup bookkeeping from the recipes that survived: without
  // this, the first post-restart commit would re-plan every block as new
  // (wasted IO) and a later release could never free shared blocks. The
  // block space itself (kDedupBlockRank) needs no scan - blocks a
  // surviving recipe does not reference are garbage, not state.
  if (!io_dedup_) return;
  for (std::uint32_t rank = 0; rank < config_.node_count; ++rank) {
    for (const std::uint64_t id : io_->list(rank)) {
      const StoreResult<Bytes> raw = io_->get(rank, id);
      if (!raw.ok()) continue;
      const auto parsed = DedupIndex::parse_recipe(ByteSpan(*raw));
      if (!parsed) continue;  // plain framed image, or torn: not a recipe
      io_dedup_->restore(parsed->refs, parsed->image_size, rank, id);
    }
  }
}

std::uint32_t MultilevelManager::group_first(std::uint32_t rank) const {
  return rank - rank % group_size_;
}

std::uint32_t MultilevelManager::parity_host(std::uint32_t rank) const {
  const std::uint32_t last =
      std::min(group_first(rank) + group_size_ - 1, config_.node_count - 1);
  return (last + 1) % config_.node_count;
}

namespace {

// Minimum bytes of estimated work one pool task should amortize. Below
// this, the fix for the committed-bench regressions applies: claims are
// batched (TaskPool grain) and tiny batches run inline - waking a pool
// for a few hundred KiB of memcpy/CRC costs more than the work
// (BENCH_datapath.json's null-codec 2-thread dip and the 8-thread
// recover collapse were exactly this overhead).
constexpr std::size_t kMinTaskBytes = 2ull << 20;

std::size_t grain_for(std::size_t n, std::size_t work_bytes) {
  if (n == 0 || work_bytes == 0) return 1;
  const std::size_t per_index = work_bytes / n;
  if (per_index >= kMinTaskBytes) return 1;
  if (per_index == 0) return n;
  return std::min(n, (kMinTaskBytes + per_index - 1) / per_index);
}

}  // namespace

void MultilevelManager::for_tasks(
    std::size_t n, const std::function<void(std::size_t)>& body,
    std::size_t work_bytes) const {
  if (exec::TaskPool::in_worker()) {
    // Already running as someone's task (the chaos suite executes whole
    // replicates on the pool): nested parallel_for is rejected, and the
    // per-index-slot structure makes inline execution bit-identical.
    for (std::size_t i = 0; i < n; ++i) body(i);
    return;
  }
  exec::TaskPool& pool =
      config_.pool ? *config_.pool : exec::global_pool();
  pool.parallel_for(n, body, grain_for(n, work_bytes));
}

PutOutcome MultilevelManager::put_once(KvStore* store, std::uint32_t rank,
                                       std::uint64_t id, const Bytes& data) {
  if (store) return verified_put_once(*store, rank, id, data);
  Bytes staged = data;
  if (config_.local_write_hook) {
    config_.local_write_hook(rank, local_write_ops_[rank]++, staged);
  }
  if (!local_[rank]->put(id, std::move(staged))) {
    // Capacity exhaustion is a configuration error, not a device fault.
    throw std::logic_error("local NVM cannot accept checkpoint " +
                           std::to_string(id));
  }
  const auto readback = local_[rank]->get(id);
  if (!readback || !std::equal(readback->begin(), readback->end(),
                               data.begin(), data.end())) {
    local_[rank]->erase(id);  // torn or flipped in place: quarantine
    return {.accepted = true, .verify_failed = true, .quarantined = true};
  }
  return {.ok = true, .accepted = true};
}

bool MultilevelManager::checked_put(KvStore* store, LevelHealth& health,
                                    std::uint32_t rank, std::uint64_t id,
                                    const Bytes& data, bool probe,
                                    TraceCtx tc) {
  const auto note = [&](const char* name) {
    if (tc.buf) {
      tc.buf->instant(name, tc.level, tc.track,
                      {obs::u64("rank", rank), obs::u64("id", id)});
    }
  };
  const std::uint32_t attempts = probe ? 1 : kMaxAttempts;
  for (std::uint32_t attempt = 0; attempt < attempts; ++attempt) {
    ++health.puts;
    if (attempt > 0) {
      ++health.put_retries;
      health.backoff_seconds += backoff_for(attempt);
      if (tc.buf) {
        tc.buf->instant("put_retry", tc.level, tc.track,
                        {obs::u64("rank", rank), obs::u64("id", id),
                         obs::u64("attempt", attempt)});
      }
    }
    const PutOutcome out = put_once(store, rank, id, data);
    if (out.ok) return true;
    if (!out.accepted) {
      if (out.put_permanent) break;  // outage: retries are futile
      continue;                      // transient: back off, retry
    }
    ++health.verify_failures;
    note("verify_fail");
    if (out.quarantined) {
      ++health.quarantined;
      note("quarantine");
    }
    // A transient readback *error* leaves the entry in place - it may be
    // intact - but unverified counts as failed, so the loop rewrites it.
  }
  ++health.put_failures;
  note("put_failed");
  return false;
}

std::optional<Bytes> MultilevelManager::checked_get(const KvStore& store,
                                                    LevelHealth& health,
                                                    std::uint32_t rank,
                                                    std::uint64_t id,
                                                    TraceCtx tc) const {
  for (std::uint32_t attempt = 0; attempt < kMaxAttempts; ++attempt) {
    StoreResult<Bytes> got = store.get(rank, id);
    if (got.ok()) return std::move(*got);
    if (!got.error().transient()) return std::nullopt;
    if (attempt + 1 < kMaxAttempts) {
      ++health.read_retries;
      health.backoff_seconds += backoff_for(attempt + 1);
      if (tc.buf) {
        tc.buf->instant("read_retry", tc.level, tc.track,
                        {obs::u64("rank", rank), obs::u64("id", id),
                         obs::u64("attempt", attempt + 1)});
      }
    }
  }
  return std::nullopt;
}

const compress::ChunkedCodec* MultilevelManager::find_codec(
    compress::CodecId id, int level) const {
  if (io_codec_ && io_codec_->id() == id && io_codec_->level() == level) {
    return &*io_codec_;
  }
  for (const auto& codec : adaptive_codecs_) {
    if (codec->id() == id && codec->level() == level) return codec.get();
  }
  return nullptr;
}

std::optional<Bytes> MultilevelManager::decode_io_stream(Bytes stored) const {
  const auto header = compress::ChunkedCodec::peek(ByteSpan(stored));
  if (!header) return stored;  // raw (null-codec) image bytes
  // Streams are self-describing: the container header names the codec
  // the writer chose (adaptive selection, or another life's static
  // config), so recovery never needs this manager's codec to match.
  try {
    if (const auto* codec = find_codec(header->id, header->level)) {
      return codec->decompress(ByteSpan(stored));
    }
    // Unfamiliar (older-config) stream: a transient decoder with the
    // manager's chunk geometry. make_codec validates id/level.
    const compress::ChunkedCodec codec(header->id, header->level,
                                       config_.io_chunk_bytes, 1);
    return codec.decompress(ByteSpan(stored));
  } catch (const compress::CodecError&) {
    return std::nullopt;
  }
}

bool MultilevelManager::run_job(LevelRun& run, std::size_t i,
                                const WriteJob& job, LevelHealth& health,
                                bool probe, TraceCtx tc) {
  obs::TraceBuffer::Span put;
  if (tc.buf) {
    put = tc.buf->span(desc_of(run.level).put, tc.level, tc.track,
                       {obs::u64("rank", job.rank),
                        obs::u64("bytes", job.bytes().size())});
  }
  std::size_t stored = 0;
  for (const auto& [key, block] : job.blocks) {
    if (!checked_put(job.store, health, kDedupBlockRank, key, block, probe,
                     tc)) {
      return false;
    }
    stored += block.size();
  }
  if (!checked_put(job.store, health, job.rank, job.id, job.bytes(), probe,
                   tc)) {
    return false;
  }
  if (job.admit) job.admit();
  run.ok[i] = 1;
  run.bytes[i] = stored + job.bytes().size();
  return true;
}

void MultilevelManager::start_level(LevelRun& run) {
  const LevelDesc& desc = desc_of(run.level);
  obs::TraceBuffer* rb = trace_->root();
  obs::TraceBuffer::Span phase;
  if (rb) {
    phase = rb->span(desc.name, desc.cat, 0,
                     {obs::u64("id", run.id), obs::u64("jobs", run.jobs)});
  }
  LevelHealth& health = health_.*desc.health;
  run.was_degraded = health.degraded();
  run.deltas.assign(run.jobs, LevelHealth{});
  run.ok.assign(run.jobs, 0);
  run.bytes.assign(run.jobs, 0);
  // The local level is never probed: every rank's own device is retried
  // in full on every commit.
  const bool probe =
      run.was_degraded && run.level != RecoveryLevel::kLocal;
  if (probe || run.order == JobOrder::kSerial) {
    // In order on this thread, accounted straight into the level (no
    // deltas: the float backoff sum keeps its per-put order). A probe makes
    // single attempts and stops at the first failure: proof enough.
    if (probe && rb) {
      rb->instant("probe", desc.cat, 0, {obs::u64("id", run.id)});
    }
    for (std::size_t i = 0; i < run.jobs; ++i) {
      const bool ok =
          run_job(run, i, run.plan(i, rb), health, probe, {rb, 0, desc.cat});
      if (!ok && probe) break;
    }
    return;
  }
  run.tbs = trace_->task_buffers(run.jobs);
  const auto buf_of = [&run](std::size_t i) {
    return run.tbs.empty() ? nullptr : &run.tbs[i];
  };
  if (run.order == JobOrder::kFanOut) {
    // Every job owns its device, health delta and trace buffer.
    for_tasks(run.jobs, [&](std::size_t i) {
      const WriteJob job = run.plan(i, buf_of(i));
      run_job(run, i, job, run.deltas[i],
              false, {buf_of(i), 1 + job.rank, desc.cat});
    }, run.work_bytes);
    return;
  }
  // kPipelined: plan job i here (rank i's compression) while the writer
  // thread runs job i-1's put. The writer runs jobs strictly in
  // submission order, so the device sees the serial op sequence. Inside
  // a pool worker, or with a zero-depth writer, jobs run inline.
  run.writer = std::make_unique<AsyncStageWriter>(
      exec::TaskPool::in_worker() ? 0 : config_.io_writer_depth);
  for (std::size_t i = 0; i < run.jobs; ++i) {
    run.writer->submit([this, &run, i, buf = buf_of(i),
                        job = run.plan(i, rb)] {
      run_job(run, i, job, run.deltas[i], false,
              {buf, 1 + job.rank, desc_of(run.level).cat});
    });
  }
}

void MultilevelManager::finish_level(LevelRun& run) {
  if (run.writer) {
    // Commit point: no settle, no trace splice until every write landed.
    run.writer->flush();
    pipeline_stats_.merge(run.writer->stats());
  }
  const LevelDesc& desc = desc_of(run.level);
  obs::TraceBuffer* rb = trace_->root();
  obs::TraceBuffer::Span phase;
  if (rb) phase = rb->span(desc.settle, desc.cat, 0, {obs::u64("id", run.id)});
  trace_->splice(run.tbs);
  LevelHealth& health = health_.*desc.health;
  std::uint64_t& written = data_stats_.*desc.written;
  bool level_ok = true;
  for (std::size_t i = 0; i < run.jobs; ++i) {
    merge_level(health, run.deltas[i]);
    written += run.bytes[i];  // zero unless the job succeeded
    level_ok = level_ok && run.ok[i];
  }
  // Any abandoned write degrades the level; a fully verified commit heals
  // a degraded one (counted as a repair). The local level is only ever
  // flagged - a rank without its local copy still has partner/io - and
  // never settled or healed.
  const bool settles = run.level != RecoveryLevel::kLocal;
  if (!level_ok) {
    health.state = LevelState::kDegraded;
  } else if (settles && health.degraded()) {
    health.state = LevelState::kHealthy;
    ++health.repairs;
  }
  if (settles && health.degraded()) ++health.degraded_commits;
  if (rb && run.was_degraded != health.degraded()) {
    rb->instant(health.degraded() ? "level_degraded" : "level_healed",
                desc.cat, 0, {obs::u64("id", run.id)});
  }
}

MultilevelManager::LevelRun MultilevelManager::plan_local(
    std::uint64_t id, const std::vector<Bytes>& images) {
  return {.level = RecoveryLevel::kLocal,
          .id = id,
          .jobs = config_.node_count,
          .order = JobOrder::kFanOut,
          .work_bytes = total_bytes(images),
          .plan = [id, &images](std::size_t rank, obs::TraceBuffer*) {
            return WriteJob{.rank = static_cast<std::uint32_t>(rank),
                            .id = id,
                            .borrowed = &images[rank]};
          }};
}

MultilevelManager::LevelRun MultilevelManager::plan_partner(
    std::uint64_t id, const std::vector<Bytes>& images) {
  // Parity hosts are distinct across groups, so groups encode and write
  // concurrently.
  LevelRun run{.level = RecoveryLevel::kPartner,
               .id = id,
               .jobs = (config_.node_count + group_size_ - 1) / group_size_,
               .order = JobOrder::kFanOut,
               .work_bytes = total_bytes(images)};
  run.plan = [this, id, &images](std::size_t g, obs::TraceBuffer* buf) {
    const auto first = static_cast<std::uint32_t>(g * group_size_);
    const std::uint32_t last =
        std::min(first + group_size_, config_.node_count);
    WriteJob job{.store = partner_space_[parity_host(first)].get(),
                 .rank = first,
                 .id = id};
    if (last - first == 1) {
      job.borrowed = &images[first];  // the parity of one image is itself
      return job;
    }
    // One parity buffer per group, zero-padded to its longest image.
    std::size_t width = 0;
    for (std::uint32_t r = first; r < last; ++r) {
      width = std::max(width, images[r].size());
    }
    obs::TraceBuffer::Span encode;
    if (buf) {
      encode = buf->span("xor_encode", "ckpt.partner", 1 + first,
                         {obs::u64("group", g), obs::u64("width", width)});
    }
    job.owned.assign(width, std::byte{0});
    for (std::uint32_t r = first; r < last; ++r) {
      xor_into(job.owned, images[r]);
    }
    return job;
  };
  return run;
}

MultilevelManager::LevelRun MultilevelManager::plan_io(
    std::uint64_t id, const std::vector<Bytes>& images) {
  data_stats_.io_logical_bytes += total_bytes(images);
  LevelRun run{.level = RecoveryLevel::kIo,
               .id = id,
               .jobs = config_.node_count,
               .order = io_dedup_ ? JobOrder::kSerial : JobOrder::kPipelined};
  // IO jobs are always planned on the committing thread: trace to root.
  run.plan = [this, id, &images](std::size_t i, obs::TraceBuffer*) {
    const auto rank = static_cast<std::uint32_t>(i);
    obs::TraceBuffer* rb = trace_->root();
    WriteJob job{.store = io_.get(), .rank = rank, .id = id};
    if (io_dedup_) {
      // The image becomes a recipe plus the content-addressed blocks no
      // prior image stored. The index is only updated once every block
      // and the recipe are durably in place, so a failed put leaves it
      // describing exactly what the store holds.
      DedupIndex::Plan plan = io_dedup_->plan(images[rank]);
      job.blocks = std::move(plan.new_blocks);
      for (auto& [key, block] : job.blocks) {
        if (io_codec_) block = io_codec_->compress(block);
      }
      // Recipes stay uncompressed: they are tiny and must be readable
      // before any codec state is known.
      job.owned = std::move(plan.recipe);
      job.admit = [this, rank, id, plan = std::move(plan)] {
        io_dedup_->admit(plan, rank, id);
        data_stats_.dedup_new_bytes += plan.new_bytes;
        data_stats_.dedup_dup_bytes += plan.dup_bytes;
        if (obs::TraceBuffer* root = trace_->root()) {
          root->instant("io_dedup_put", "ckpt.io", 0,
                        {obs::u64("rank", rank),
                         obs::u64("new_bytes", plan.new_bytes),
                         obs::u64("dup_bytes", plan.dup_bytes)});
        }
      };
      return job;
    }
    const compress::ChunkedCodec* codec = io_codec_ ? &*io_codec_ : nullptr;
    if (!codec && config_.io_codec_adaptive) {
      // Online selection: probe this rank's bytes and pick the candidate
      // codec. The stream records the choice in its container header, so
      // recovery is self-describing (decode_io_stream).
      compress::ProbeStats ps;
      const compress::CodecChoice choice =
          compress::choose_codec(ByteSpan(images[rank]), &ps);
      codec = find_codec(choice.id, choice.level);
      if (rb) {
        rb->instant("codec_choice", "ckpt.io", 0,
                    {obs::u64("rank", rank),
                     obs::u64("codec", static_cast<std::uint64_t>(choice.id)),
                     obs::u64("accel", choice.accelerate ? 1 : 0),
                     obs::u64("entropy_millibits",
                              static_cast<std::uint64_t>(
                                  ps.entropy_bits * 1000.0)),
                     obs::u64("match_permille",
                              static_cast<std::uint64_t>(
                                  ps.match_fraction * 1000.0))});
      }
    }
    if (!codec) {
      // Null codec: borrow the caller's image - `images` outlives the
      // writer's flush in commit() - instead of copying it.
      job.borrowed = &images[rank];
      return job;
    }
    // Chunks compress on the task pool (intra-image parallelism), then
    // assemble in chunk order.
    const std::size_t n = codec->chunk_count(images[rank].size());
    std::vector<Bytes> chunks(n);
    obs::TraceBuffer::Span cspan;
    if (rb) {
      cspan = rb->span("io_compress", "ckpt.io", 0,
                       {obs::u64("id", id), obs::u64("rank", rank),
                        obs::u64("chunks", n)});
    }
    std::vector<obs::TraceBuffer> ctbs = trace_->task_buffers(n);
    for_tasks(
        n,
        [&](std::size_t c) {
          chunks[c] = codec->compress_chunk(images[rank], c);
          if (!ctbs.empty()) {
            ctbs[c].instant("compress_chunk", "ckpt.io", 1 + rank,
                            {obs::u64("rank", rank), obs::u64("chunk", c),
                             obs::u64("out_bytes", chunks[c].size())});
          }
        },
        images[rank].size());
    trace_->splice(ctbs);
    job.owned = codec->assemble(images[rank].size(), chunks, 0, n);
    return job;
  };
  return run;
}

std::uint64_t MultilevelManager::commit(
    const std::vector<ByteSpan>& payloads) {
  if (payloads.size() != config_.node_count) {
    throw std::invalid_argument("one payload per rank required");
  }
  const std::uint64_t id = next_id_++;
  const bool to_partner =
      config_.partner_every > 0 && id % config_.partner_every == 0;
  const bool to_io = config_.io_every > 0 && id % config_.io_every == 0;
  // Delta commits encode against the previous committed checkpoint; a
  // full anchor is forced for the first commit and whenever the chain
  // reaches its configured length.
  const bool as_delta = delta_codec_.has_value() &&
                        config_.delta.chain_length > 0 && have_prev_ &&
                        links_since_full_ < config_.delta.chain_length;

  obs::TraceBuffer* rb = trace_->root();
  obs::TraceBuffer::Span commit_span;
  if (rb) {
    commit_span = rb->span("commit", "ckpt", 0,
                           {obs::u64("id", id),
                            obs::u64("partner", to_partner ? 1 : 0),
                            obs::u64("io", to_io ? 1 : 0),
                            obs::str("kind", as_delta ? "delta" : "full")});
  }

  // Serialize + CRC every rank's image in parallel (pure per-rank work:
  // each task owns its index's image slot, delta stats slot and a pooled
  // encoder scratch, so the fan-out is allocation-light and the stats
  // fold below runs serially in rank order).
  std::vector<Bytes> images(config_.node_count);
  std::vector<delta::DeltaStats> dstats(
      as_delta ? config_.node_count : 0);
  std::size_t payload_bytes = 0;
  for (const ByteSpan& p : payloads) payload_bytes += p.size();
  {
    obs::TraceBuffer::Span build;
    if (rb) {
      build = rb->span("image_build", "ckpt", 0,
                       {obs::u64("id", id),
                        obs::str("kind", as_delta ? "delta" : "full")});
    }
    std::vector<obs::TraceBuffer> tbs =
        trace_->task_buffers(config_.node_count);
    for_tasks(config_.node_count, [&](std::size_t rank) {
      CheckpointMeta meta;
      meta.app_id = config_.app_id;
      meta.rank = static_cast<std::uint32_t>(rank);
      meta.checkpoint_id = id;
      if (as_delta) {
        meta.kind = PayloadKind::kDelta;
        meta.base_id = id - 1;
        auto scratch = delta_scratch_.acquire();
        const Bytes stream = delta_codec_->encode(
            ByteSpan(prev_payload_[rank]), payloads[rank], *scratch,
            &dstats[rank]);
        images[rank] = CheckpointImage::build(meta, stream);
      } else {
        images[rank] = CheckpointImage::build(meta, payloads[rank]);
      }
      if (!tbs.empty()) {
        tbs[rank].instant("image", "ckpt",
                          1 + static_cast<std::uint32_t>(rank),
                          {obs::u64("rank", rank),
                           obs::u64("bytes", images[rank].size())});
      }
    }, payload_bytes);
    trace_->splice(tbs);
  }

  // Data-path accounting, serial in rank order.
  ++(as_delta ? data_stats_.commits_delta : data_stats_.commits_full);
  for (std::uint32_t rank = 0; rank < config_.node_count; ++rank) {
    data_stats_.payload_bytes_in += payloads[rank].size();
    if (as_delta) {
      data_stats_.delta_input_bytes += dstats[rank].input_bytes;
      data_stats_.delta_encoded_bytes += dstats[rank].encoded_bytes;
    }
  }

  ++health_.commits;
  if (to_partner && config_.node_count > 1) {
    LevelRun partner = plan_partner(id, images);
    start_level(partner);
    finish_level(partner);
  }
  // Pipelined IO (docs/PERF.md): the IO level's puts run on the async
  // writer while the next rank compresses, and its settle waits until
  // after the local-NVM fan-out, so the whole IO write train overlaps it.
  LevelRun io;
  if (to_io) {
    io = plan_io(id, images);
    start_level(io);
  }
  LevelRun local = plan_local(id, images);
  start_level(local);
  finish_level(local);
  if (to_io) finish_level(io);
  if (health_.any_degraded()) {
    ++health_.degraded_commits;
    if (rb) rb->instant("commit_degraded", "ckpt", 0, {obs::u64("id", id)});
  }

  // This commit's payloads become the next delta's reference (a copy: the
  // caller's spans die with the call). Per-rank copies are independent,
  // so the refresh fans out too.
  if (delta_codec_) {
    for_tasks(config_.node_count, [&](std::size_t rank) {
      prev_payload_[rank].assign(payloads[rank].begin(),
                                 payloads[rank].end());
    }, payload_bytes);
    have_prev_ = true;
    links_since_full_ = as_delta ? links_since_full_ + 1 : 0;
    if (rb) {
      rb->instant("chain_state", "ckpt", 0,
                  {obs::u64("id", id),
                   obs::u64("links_since_full", links_since_full_)});
    }
  }
  return id;
}

std::optional<CheckpointImage> MultilevelManager::fetch_partner(
    std::uint32_t rank, std::uint64_t id) const {
  if (config_.node_count < 2) return std::nullopt;
  const std::uint32_t first = group_first(rank);
  const std::uint32_t last =
      std::min(first + group_size_, config_.node_count);
  auto image = checked_get(*partner_space_[parity_host(rank)],
                           health_.partner, first, id,
                           {trace_->root(), 0, "ckpt.partner"});
  if (!image) return std::nullopt;
  // XOR out the survivors' local images (each no wider than the parity),
  // then trim the zero padding back to the image's framed size.
  for (std::uint32_t r = first; r < last; ++r) {
    if (r == rank) continue;
    const auto span = local_[r]->get(id);
    if (!span || span->size() > image->size()) return std::nullopt;
    xor_into(*image, *span);
  }
  try {
    const std::size_t size = CheckpointImage::framed_size(*image);
    if (size > image->size()) return std::nullopt;
    image->resize(size);
  } catch (const ImageError&) {
    return std::nullopt;
  }
  return parse_image(rank, id, *image);
}

void MultilevelManager::fail_node(std::uint32_t rank) {
  local_.at(rank)->clear();
  partner_space_.at(rank)->clear();
}

bool MultilevelManager::corrupt_local(std::uint32_t rank) {
  auto& store = *local_.at(rank);
  const auto id = store.newest_id();
  if (!id) return false;
  return store.corrupt_entry(*id, *id * 131 + rank);
}

bool MultilevelManager::corrupt_partner(std::uint32_t rank) {
  if (config_.node_count < 2) return false;
  // The group parity on the parity host, keyed by the group's first rank
  // (under kCopy: the rank's own copy on its partner).
  KvStore& store = *partner_space_.at(parity_host(rank));
  const std::uint32_t key = group_first(rank);
  const auto id = store.newest_id(key);
  if (!id) return false;
  return store.corrupt_entry(key, *id, *id * 137 + rank);
}

bool MultilevelManager::corrupt_io(std::uint32_t rank) {
  const auto id = io_->newest_id(rank);
  if (!id) return false;
  return io_->corrupt_entry(rank, *id, *id * 139 + rank);
}

std::optional<CheckpointImage> MultilevelManager::fetch_local(
    std::uint32_t rank, std::uint64_t id) const {
  const auto span = local_[rank]->get(id);
  if (!span) return std::nullopt;
  return parse_image(rank, id, *span);
}

std::optional<Bytes> MultilevelManager::fetch_io_raw(
    std::uint32_t rank, std::uint64_t id) const {
  obs::TraceBuffer* rb = trace_->root();
  const auto stored =
      checked_get(*io_, health_.io, rank, id, {rb, 0, "ckpt.io"});
  if (!stored) return std::nullopt;
  if (DedupIndex::is_recipe(*stored)) {
    // Recipe: reassemble from the content-addressed block space. Checked
    // even when dedup is off in this manager's config - the store may
    // hold recipes written before a restart reconfigured it.
    return DedupIndex::assemble(
        *stored, [&](const DedupIndex::BlockRef& ref) -> std::optional<Bytes> {
          auto block = checked_get(*io_, health_.io, kDedupBlockRank,
                                   ref.key, {rb, 0, "ckpt.io"});
          if (!block) return std::nullopt;
          // Raw blocks are arbitrary app bytes, so no container sniffing
          // with a null codec; with one set, peek also tolerates blocks a
          // previous life compressed differently.
          if (!io_codec_) return block;
          return decode_io_stream(std::move(*block));
        });
  }
  // Whole streams are self-describing (container header, or raw NDCI
  // image bytes); decode_io_stream dispatches on the recorded codec.
  return decode_io_stream(std::move(*stored));
}

std::optional<CheckpointImage> MultilevelManager::try_remote_rank(
    std::uint32_t rank, std::uint64_t id, RecoveryLevel& level_out) const {
  if (auto image = fetch_partner(rank, id)) {
    level_out = RecoveryLevel::kPartner;
    return image;
  }
  if (const auto raw = fetch_io_raw(rank, id)) {
    if (auto image = parse_image(rank, id, *raw)) {
      level_out = RecoveryLevel::kIo;
      return image;
    }
  }
  return std::nullopt;
}

std::optional<Bytes> MultilevelManager::resolve_payload(
    std::uint32_t rank, std::uint64_t id, bool local_only,
    RecoveryLevel& level_out, std::size_t& links_out) const {
  level_out = RecoveryLevel::kLocal;
  links_out = 0;
  // Walk base_id links back to the full anchor, collecting delta streams
  // newest-first. Every link is fetched independently (local first, then
  // partner/io unless `local_only`), so a single damaged link only fails
  // this id - the caller then tries an older checkpoint.
  std::vector<Bytes> links;
  Bytes base;
  RecoveryLevel deepest = RecoveryLevel::kLocal;
  std::uint64_t cur = id;
  for (;;) {
    if (links.size() >= kMaxChainLinks) return std::nullopt;
    RecoveryLevel level = RecoveryLevel::kLocal;
    std::optional<CheckpointImage> image = fetch_local(rank, cur);
    if (!image && !local_only) image = try_remote_rank(rank, cur, level);
    if (!image) return std::nullopt;
    deepest = deeper(deepest, level);
    if (image->meta().kind == PayloadKind::kFull) {
      base.assign(image->payload().begin(), image->payload().end());
      break;
    }
    // A delta must reference a strictly earlier checkpoint; anything else
    // is damage (peek'd headers are CRC-covered, but stay defensive).
    const std::uint64_t base_id = image->meta().base_id;
    if (base_id == 0 || base_id >= cur) return std::nullopt;
    links.emplace_back(image->payload().begin(), image->payload().end());
    cur = base_id;
  }
  // Replay forward, oldest link first. Each stream carries its block size
  // and its reference digest, so a chain spliced against the wrong base
  // throws instead of reconstructing garbage.
  try {
    for (std::size_t i = links.size(); i-- > 0;) {
      const delta::DeltaCodec codec(
          delta::DeltaCodec::stream_block_size(links[i]));
      base = codec.decode(ByteSpan(base), ByteSpan(links[i]));
    }
  } catch (const delta::DeltaError&) {
    return std::nullopt;
  }
  level_out = deepest;
  links_out = links.size();
  return base;
}

std::optional<MultilevelManager::Recovery> MultilevelManager::recover()
    const {
  obs::TraceBuffer* rb = trace_->root();
  obs::TraceBuffer::Span recover_span;
  if (rb) recover_span = rb->span("recover", "ckpt", 0);
  for (std::uint64_t id = next_id_; id-- > 1;) {
    obs::TraceBuffer::Span try_span;
    if (rb) {
      try_span = rb->span("try_checkpoint", "ckpt", 0, {obs::u64("id", id)});
    }

    // Phase 1: every rank resolves its payload - full image or whole
    // delta chain - from its own NVM in parallel. Pure local reads, no
    // fault-scheduled store operations, so the fan-out cannot perturb a
    // replay; chain stats come back through per-rank slots and fold
    // serially below.
    std::vector<std::optional<Bytes>> payload(config_.node_count);
    std::vector<std::size_t> links(config_.node_count, 0);
    std::vector<RecoveryLevel> levels(config_.node_count,
                                      RecoveryLevel::kLocal);
    std::size_t local_bytes = 0;
    for (std::uint32_t r = 0; r < config_.node_count; ++r) {
      if (const auto span = local_[r]->get(id)) local_bytes += span->size();
    }
    {
      std::vector<obs::TraceBuffer> tbs =
          trace_->task_buffers(config_.node_count);
      for_tasks(config_.node_count, [&](std::size_t rank) {
        RecoveryLevel level = RecoveryLevel::kLocal;
        payload[rank] =
            resolve_payload(static_cast<std::uint32_t>(rank), id,
                            /*local_only=*/true, level, links[rank]);
        if (!tbs.empty()) {
          tbs[rank].instant("local_probe", "ckpt.local",
                            1 + static_cast<std::uint32_t>(rank),
                            {obs::u64("rank", rank),
                             obs::u64("hit", payload[rank] ? 1 : 0),
                             obs::u64("links", links[rank])});
        }
      }, local_bytes);
      trace_->splice(tbs);
    }

    // Phase 2: ranks that missed locally fall back remote. Store reads
    // stay serial in rank order - partner/IO are shared fault-scheduled
    // devices whose op sequence is part of the deterministic replay - but
    // a directly-usable IO stream's decompress + parse (pure CPU work) is
    // handed to a decode stage, so rank r's decode overlaps rank r+1's
    // reads (the committed 8-thread recover collapse was this serialized;
    // docs/PERF.md). Delta heads, recipes and any damage fall back to the
    // fully-serial chain walk after the stage drains.
    bool ok = true;
    std::vector<std::optional<Bytes>> staged(config_.node_count);
    std::vector<obs::TraceBuffer> dtbs =
        trace_->task_buffers(config_.node_count);
    {
      AsyncStageWriter decode_stage(
          exec::TaskPool::in_worker() ? 0 : config_.io_writer_depth);
      for (std::uint32_t rank = 0; rank < config_.node_count && ok; ++rank) {
        if (payload[rank]) continue;
        // Serial remote head fetch: the partner level first. A delta head
        // is left to the chain walk below.
        if (const auto head = fetch_partner(rank, id)) {
          if (head->meta().kind == PayloadKind::kFull) {
            payload[rank] = Bytes(head->payload().begin(),
                                  head->payload().end());
            levels[rank] = RecoveryLevel::kPartner;
          }
          continue;
        }
        auto raw = checked_get(*io_, health_.io, rank, id, {rb, 0, "ckpt.io"});
        if (!raw) {
          // Nothing remote. A local delta head could still anchor a
          // mixed-level chain; otherwise this id is unrecoverable and -
          // exactly like the serial path - the sweep stops here.
          ok = fetch_local(rank, id).has_value();
          if (!ok && rb) {
            rb->instant("rank_unrecoverable", "ckpt", 0,
                        {obs::u64("rank", rank), obs::u64("id", id)});
          }
          continue;
        }
        if (DedupIndex::is_recipe(*raw)) continue;  // block fetches: serial
        decode_stage.submit([this, rank, id, raw = std::move(*raw), &staged,
                             &dtbs]() mutable {
          std::optional<Bytes> decoded = decode_io_stream(std::move(raw));
          if (!dtbs.empty()) {
            dtbs[rank].instant(
                "io_decode", "ckpt.io", 1 + rank,
                {obs::u64("rank", rank),
                 obs::u64("bytes", decoded ? decoded->size() : 0)});
          }
          if (!decoded) return;
          const auto image = parse_image(rank, id, ByteSpan(*decoded));
          if (image && image->meta().kind == PayloadKind::kFull) {
            staged[rank] = Bytes(image->payload().begin(),
                                 image->payload().end());
          }
        });
      }
      decode_stage.flush();
      pipeline_stats_.merge(decode_stage.stats());
    }
    trace_->splice(dtbs);
    // Decoded full images settle their ranks; whatever the fast paths
    // could not (delta heads, recipes, damage) walks the full serial chain
    // resolution, rank order.
    for (std::uint32_t rank = 0; rank < config_.node_count && ok; ++rank) {
      if (staged[rank]) {
        payload[rank] = std::move(staged[rank]);
        levels[rank] = RecoveryLevel::kIo;
      }
      if (!payload[rank]) {
        payload[rank] = resolve_payload(rank, id, /*local_only=*/false,
                                        levels[rank], links[rank]);
        ok = payload[rank].has_value();
      }
      if (!ok && rb) {
        rb->instant("rank_unrecoverable", "ckpt", 0,
                    {obs::u64("rank", rank), obs::u64("id", id)});
      }
    }
    if (!ok) continue;
    Recovery result{.checkpoint_id = id, .payloads = {}, .levels = levels};
    for (std::uint32_t rank = 0; rank < config_.node_count; ++rank) {
      data_stats_.chain_links += links[rank];
      if (links[rank] > 0) ++data_stats_.chain_replays;
      if (rb && levels[rank] != RecoveryLevel::kLocal) {
        rb->instant("rank_recovered", "ckpt", 0,
                    {obs::u64("rank", rank), obs::u64("id", id),
                     obs::str("level", to_string(levels[rank]))});
      }
      result.payloads.push_back(std::move(*payload[rank]));
    }
    if (rb) rb->instant("recovered", "ckpt", 0, {obs::u64("id", id)});
    return result;
  }
  if (rb) rb->instant("recovery_exhausted", "ckpt", 0);
  return std::nullopt;
}

const NvmStore& MultilevelManager::local_store(std::uint32_t rank) const {
  return *local_.at(rank);
}

NvmStore& MultilevelManager::local_store(std::uint32_t rank) {
  return *local_.at(rank);
}

}  // namespace ndpcr::ckpt
