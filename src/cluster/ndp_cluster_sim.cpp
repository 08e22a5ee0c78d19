#include "cluster/ndp_cluster_sim.hpp"

#include <algorithm>
#include <memory>
#include <optional>
#include <stdexcept>
#include <vector>

#include "ckpt/store_writer.hpp"
#include "ckpt/stores.hpp"
#include "common/rng.hpp"
#include "compress/chunked.hpp"
#include "faults/faulty_stores.hpp"
#include "ndp/agent.hpp"
#include "obs/trace.hpp"
#include "workloads/miniapp.hpp"

namespace ndpcr::cluster {

NdpClusterSim::NdpClusterSim(const NdpClusterConfig& config) : cfg_(config) {
  if (cfg_.node_count == 0 || cfg_.total_steps == 0) {
    throw std::invalid_argument("node_count and total_steps must be > 0");
  }
  if (cfg_.aggregate_io_bw <= 0 || cfg_.ndp_compress_bw <= 0) {
    throw std::invalid_argument("bandwidths must be positive");
  }
}

NdpClusterResult NdpClusterSim::run() {
  NdpClusterResult result;
  Rng rng(cfg_.seed);
  const auto n = cfg_.node_count;
  obs::Tracer& tracer =
      cfg_.trace != nullptr ? *cfg_.trace : obs::Tracer::null();
  if (tracer.enabled()) tracer.set_track_name(0, "cluster");

  auto make_rank = [&](std::uint32_t r) {
    return workloads::make_miniapp(cfg_.app, cfg_.state_bytes_per_rank,
                                   cfg_.seed * 977 + r);
  };
  std::vector<std::unique_ptr<workloads::MiniApp>> ranks;
  for (std::uint32_t r = 0; r < n; ++r) ranks.push_back(make_rank(r));

  // One shared IO store (the PFS), optionally decorated with a seeded
  // fault plan; each agent gets the paper's static per-node share of the
  // aggregate IO bandwidth.
  std::unique_ptr<ckpt::KvStore> io_store;
  if (cfg_.io_fault_rates.any()) {
    const std::uint64_t fault_seed =
        cfg_.fault_seed != 0 ? cfg_.fault_seed : cfg_.seed * 0x9E37 + 5;
    auto plan = std::make_shared<faults::FaultPlan>(fault_seed);
    plan->set_rates(faults::io_target(), cfg_.io_fault_rates);
    io_store = std::make_unique<faults::FaultyKvStore>(std::move(plan),
                                                       faults::io_target());
  } else {
    io_store = std::make_unique<ckpt::KvStore>();
  }
  ckpt::KvStore& io = *io_store;
  std::vector<std::unique_ptr<ndp::NdpAgent>> agents;
  for (std::uint32_t r = 0; r < n; ++r) {
    ndp::AgentConfig ac;
    ac.uncompressed_capacity = cfg_.nvm_capacity_bytes;
    ac.compressed_capacity = cfg_.nvm_capacity_bytes / 4;
    ac.codec = cfg_.codec;
    ac.codec_level = cfg_.codec_level;
    ac.chunk_bytes = cfg_.ndp_chunk_bytes;
    ac.compress_bw = cfg_.ndp_compress_bw;
    ac.io_bw = cfg_.aggregate_io_bw / n;
    ac.rank = r;
    ac.trace = cfg_.trace;
    ac.trace_track = 1 + 3 * r;  // track 0 is the simulation's own row
    agents.push_back(std::make_unique<ndp::NdpAgent>(ac, io));
  }
  // Agents ship ChunkedCodec containers to IO (the raw image when the
  // codec is null); unpack accordingly, treating anything corrupt as
  // missing.
  std::optional<compress::ChunkedCodec> codec;
  if (cfg_.codec != compress::CodecId::kNull) {
    codec.emplace(cfg_.codec, cfg_.codec_level);
  }
  auto unpack = [&](const Bytes& packed) -> std::optional<Bytes> {
    if (!codec) return packed;
    try {
      return codec->decompress(packed);
    } catch (const compress::CodecError&) {
      return std::nullopt;
    }
  };

  const double system_mttf = cfg_.node_mttf / static_cast<double>(n);
  double now = 0.0;
  double next_failure = rng.exponential(system_mttf);

  std::uint64_t step = 0;
  std::uint64_t high_water = 0;
  std::uint64_t ckpt_id = 0;

  // Newest checkpoint generation fully landed on IO across all ranks.
  // Consults the store, not agent memory (a reset agent forgets, the PFS
  // does not); drains may skip generations, so walk down from the
  // smallest per-rank newest until one is present everywhere.
  auto newest_common_on_io = [&]() -> std::uint64_t {
    std::uint64_t upper = ~0ull;
    for (std::uint32_t r = 0; r < n; ++r) {
      const auto newest = io.newest_id(r);
      if (!newest) return 0;
      upper = std::min(upper, *newest);
    }
    for (std::uint64_t g = upper; g > 0; --g) {
      bool everywhere = true;
      for (std::uint32_t r = 0; r < n && everywhere; ++r) {
        everywhere = io.contains(r, g);
      }
      if (everywhere) return g;
    }
    return 0;
  };

  auto pump_all = [&](double seconds) {
    for (auto& agent : agents) {
      // `now` was already advanced past this pump window; align each
      // agent's virtual clock with the window start so drain spans land
      // on the simulation timeline.
      agent->sync_clock(now - seconds);
      agent->pump(seconds);
    }
  };

  // Drains the agents abandoned (IO permanently down or retries
  // exhausted) fall back to a synchronous host write - verified, with its
  // own small retry budget - so a flaky PFS costs host time instead of
  // losing the generation.
  auto collect_fallbacks = [&] {
    for (std::uint32_t r = 0; r < n; ++r) {
      auto fallback = agents[r]->take_host_fallback();
      if (!fallback) continue;
      bool landed = false;
      for (int attempt = 0; attempt < 3 && !landed; ++attempt) {
        const ckpt::PutOutcome out = ckpt::verified_put_once(
            io, r, fallback->checkpoint_id, fallback->compressed);
        if (out.put_permanent) break;
        landed = out.ok;
      }
      if (landed) {
        now += static_cast<double>(fallback->compressed.size()) /
               (cfg_.aggregate_io_bw / n);
        ++result.host_fallback_writes;
        tracer.instant_at(now, "host_fallback_write", "cluster", 0,
                          {obs::u64("rank", r),
                           obs::u64("id", fallback->checkpoint_id)});
      } else {
        ++result.host_fallback_drops;
        tracer.instant_at(now, "host_fallback_drop", "cluster", 0,
                          {obs::u64("rank", r),
                           obs::u64("id", fallback->checkpoint_id)});
      }
    }
  };

  auto handle_failure = [&] {
    ++result.failures;
    next_failure = now + rng.exponential(system_mttf);
    const bool transient = rng.next_double() < cfg_.p_local_recovery;
    tracer.instant_at(now, "failure", "cluster", 0,
                      {obs::u64("step", step),
                       obs::u64("transient", transient ? 1 : 0)});

    if (transient) {
      // NVM (and pipelines) survive; roll back to the newest committed
      // generation, which every rank still holds locally.
      if (ckpt_id == 0) {
        ++result.scratch_restarts;
        tracer.instant_at(now, "scratch_restart", "cluster", 0,
                          {obs::u64("steps_lost", step)});
        for (std::uint32_t r = 0; r < n; ++r) ranks[r] = make_rank(r);
        result.steps_rerun += step;
        step = 0;
        return;
      }
      now += cfg_.local_restore_time;
      std::uint64_t restored_step = 0;
      for (std::uint32_t r = 0; r < n; ++r) {
        auto image = agents[r]->restore_local(ckpt_id);
        if (!image) {
          // Evicted locally (drain fell behind and the buffer cycled):
          // fall back to the IO copy if it made it there.
          const auto packed = io.get(r, ckpt_id);
          if (!packed) {
            image.reset();
          } else {
            image = unpack(*packed);
          }
        }
        if (!image) {
          // This generation is gone for rank r; a real system would walk
          // back further - count it as an IO-era rollback below.
          break;
        }
        ranks[r]->restore(*image);
        restored_step = ranks[r]->step_count();
        if (r == n - 1) {
          ++result.local_recoveries;
          result.steps_rerun += step - restored_step;
          tracer.instant_at(now, "local_recovery", "cluster", 0,
                            {obs::u64("id", ckpt_id),
                             obs::u64("to_step", restored_step)});
          step = restored_step;
          return;
        }
      }
      // Fall through to an IO recovery if local restore failed mid-way.
    }

    // Node loss (or failed local recovery): the victim's NVM is gone;
    // everyone rolls back to the newest generation fully on IO.
    const auto victim = static_cast<std::uint32_t>(rng.next_below(n));
    agents[victim]->reset();

    // Fetch a complete generation *before* restoring any rank: with a
    // faulty store, restoring ranks one by one could leave the app half
    // rolled back when a later rank's read fails. Reads retry transient
    // errors; a corrupt or unreadable copy walks the target down.
    struct Generation {
      std::vector<Bytes> images;
      std::size_t victim_packed = 0;  // compressed bytes read for victim
    };
    auto fetch_generation =
        [&](std::uint64_t target) -> std::optional<Generation> {
      Generation gen;
      gen.images.resize(n);
      for (std::uint32_t r = 0; r < n; ++r) {
        if (auto local = agents[r]->restore_local(target)) {
          gen.images[r] = std::move(*local);
          continue;
        }
        auto packed = io.get(r, target);
        for (int attempt = 1;
             attempt < 4 && !packed.ok() && packed.error().transient();
             ++attempt) {
          packed = io.get(r, target);
        }
        if (!packed.ok()) return std::nullopt;
        auto image = unpack(*packed);
        if (!image) return std::nullopt;
        gen.images[r] = std::move(*image);
        if (r == victim) gen.victim_packed = packed->size();
      }
      return gen;
    };

    std::uint64_t target = newest_common_on_io();
    std::optional<Generation> gen;
    while (target > 0 && !(gen = fetch_generation(target))) --target;
    if (target == 0) {
      ++result.scratch_restarts;
      tracer.instant_at(now, "scratch_restart", "cluster", 0,
                        {obs::u64("steps_lost", step)});
      for (std::uint32_t r = 0; r < n; ++r) ranks[r] = make_rank(r);
      result.steps_rerun += step;
      step = 0;
      return;
    }
    // Coordinated restore time: the compressed read through the victim's
    // IO share dominates.
    now += std::max(cfg_.local_restore_time,
                    static_cast<double>(gen->victim_packed) /
                        (cfg_.aggregate_io_bw / n));
    std::uint64_t restored_step = 0;
    for (std::uint32_t r = 0; r < n; ++r) {
      ranks[r]->restore(gen->images[r]);
      restored_step = ranks[r]->step_count();
    }
    ++result.io_recoveries;
    result.steps_rerun += step - restored_step;
    tracer.instant_at(now, "io_recovery", "cluster", 0,
                      {obs::u64("id", target), obs::u64("victim", victim),
                       obs::u64("to_step", restored_step)});
    step = restored_step;
  };

  while (step < cfg_.total_steps) {
    // Compute burst: the app advances while every NDP pumps.
    const std::uint64_t burst = std::min<std::uint64_t>(
        cfg_.steps_per_checkpoint, cfg_.total_steps - step);
    bool failed = false;
    for (std::uint64_t s = 0; s < burst; ++s) {
      now += cfg_.step_time;
      pump_all(cfg_.step_time);
      collect_fallbacks();
      if (now >= next_failure) {
        failed = true;
        break;
      }
      for (auto& rank : ranks) rank->step();
      ++step;
      if (step > high_water) {
        high_water = step;
        result.compute_seconds += cfg_.step_time;
      }
    }
    if (failed) {
      handle_failure();
      continue;
    }
    if (step >= cfg_.total_steps) break;

    // Coordinated local commit: the host owns the NVM (no pumping).
    now += cfg_.local_commit_time;
    ++ckpt_id;
    tracer.instant_at(now, "local_commit", "cluster", 0,
                      {obs::u64("id", ckpt_id), obs::u64("step", step)});
    for (std::uint32_t r = 0; r < n; ++r) {
      // If the agent's buffer is wedged behind a locked drain, let the
      // drain finish first (the host stall the paper describes).
      while (!agents[r]->host_commit(ckpt_id, ranks[r]->checkpoint())) {
        agents[r]->sync_clock(now);
        const double drained = agents[r]->pump(cfg_.step_time);
        now += drained > 0 ? drained : cfg_.step_time;
      }
    }
    ++result.checkpoints;
    collect_fallbacks();
  }

  result.io_checkpoints = newest_common_on_io();
  result.virtual_seconds = now;
  for (const auto& agent : agents) {
    result.drain_put_retries += agent->stats().drain_put_retries;
    result.drain_put_failures += agent->stats().drain_put_failures;
    result.io_put_attempts += agent->stats().io_put_attempts;
    result.io_verify_failures += agent->stats().io_verify_failures;
    result.io_quarantined += agent->stats().io_quarantined;
    result.host_fallbacks += agent->stats().host_fallbacks;
  }

  result.state_verified = true;
  for (auto& rank : ranks) {
    if (rank->step_count() != ranks[0]->step_count()) {
      result.state_verified = false;
    }
    const auto digest = rank->state_digest();
    const Bytes image = rank->checkpoint();
    rank->restore(image);
    if (rank->state_digest() != digest) result.state_verified = false;
  }
  return result;
}

}  // namespace ndpcr::cluster
