#include <gtest/gtest.h>

#include <vector>

#include "common/rng.hpp"
#include "compress/chunked.hpp"
#include "exec/task_pool.hpp"
#include "ndp/agent.hpp"

namespace ndpcr::ndp {
namespace {

Bytes compressible_image(std::size_t size, std::uint64_t seed) {
  Rng rng(seed);
  Bytes data(size);
  for (auto& b : data) b = static_cast<std::byte>(rng.next_below(4));
  return data;
}

// Reference implementation of the drain's virtual-time model. Overlap
// mode: chunk j's write starts once it is compressed AND the wire is
// free (W_j = max(C_j, W_{j-1}) + w_j); serial mode compresses the whole
// image first and then writes (sum of stages). The container header and
// size table ride on the first write.
double pipeline_model_seconds(const compress::ChunkedCodec& codec,
                              const Bytes& image, double compress_bw,
                              double io_bw, bool overlap) {
  const std::size_t k = codec.chunk_count(image.size());
  double compress_front = 0.0;
  double write_front = 0.0;
  double total = 0.0;
  for (std::size_t j = 0; j < k; ++j) {
    const double c =
        static_cast<double>(codec.chunk_extent(image.size(), j).second) /
        compress_bw;
    double bytes =
        static_cast<double>(codec.compress_chunk(image, j).size());
    if (j == 0) {
      bytes += static_cast<double>(compress::ChunkedCodec::header_bytes(k));
    }
    const double w = bytes / io_bw;
    compress_front += c;
    write_front = std::max(compress_front, write_front) + w;
    total += c + w;
  }
  return overlap ? write_front : total;
}

AgentConfig test_config() {
  AgentConfig cfg;
  cfg.uncompressed_capacity = 1 << 20;
  cfg.compressed_capacity = 1 << 20;
  cfg.compress_bw = 1e6;  // 1 MB/s: visible virtual durations
  cfg.io_bw = 0.5e6;
  return cfg;
}

TEST(NdpAgent, DrainsCommittedCheckpointToIo) {
  ckpt::KvStore io;
  NdpAgent agent(test_config(), io);
  const Bytes image = compressible_image(100 * 1024, 1);
  ASSERT_TRUE(agent.host_commit(1, image));
  EXPECT_TRUE(agent.busy());
  EXPECT_FALSE(agent.newest_on_io().has_value());

  // Pump in pieces: completion only after the full drain duration.
  agent.pump(0.01);
  EXPECT_FALSE(agent.newest_on_io().has_value());
  agent.pump(1e6);
  ASSERT_TRUE(agent.newest_on_io().has_value());
  EXPECT_EQ(agent.newest_on_io().value(), 1u);
  EXPECT_FALSE(agent.busy());

  // The IO copy is the chunked-container image and round-trips.
  const auto packed = io.get(0, 1);
  ASSERT_TRUE(packed.has_value());
  EXPECT_LT(packed->size(), image.size() / 2);
  const compress::ChunkedCodec codec(compress::CodecId::kDeflateStyle, 1);
  EXPECT_EQ(codec.decompress(*packed), image);
}

TEST(NdpAgent, VirtualTimeMatchesPipelineModel) {
  ckpt::KvStore io;
  AgentConfig cfg = test_config();
  cfg.chunk_bytes = 32 * 1024;  // several chunks: real pipelining
  NdpAgent agent(cfg, io);
  const Bytes image = compressible_image(200 * 1024, 2);
  const compress::ChunkedCodec codec(cfg.codec, cfg.codec_level,
                                     cfg.chunk_bytes);
  ASSERT_GT(codec.chunk_count(image.size()), 1u);
  ASSERT_TRUE(agent.host_commit(1, image));
  const double consumed = agent.pump(1e9);
  EXPECT_NEAR(consumed,
              pipeline_model_seconds(codec, image, cfg.compress_bw,
                                     cfg.io_bw, /*overlap=*/true),
              1e-9);
  // The landed bytes are the container, bit-exact.
  ASSERT_TRUE(io.get(0, 1).has_value());
  EXPECT_EQ(io.get(0, 1).value(), codec.compress(image));
}

TEST(NdpAgent, OverlapBeatsSerialOnMultiChunkImage) {
  AgentConfig cfg = test_config();
  cfg.chunk_bytes = 32 * 1024;
  const Bytes image = compressible_image(200 * 1024, 12);
  const compress::ChunkedCodec codec(cfg.codec, cfg.codec_level,
                                     cfg.chunk_bytes);

  ckpt::KvStore overlap_io;
  NdpAgent overlap_agent(cfg, overlap_io);
  ASSERT_TRUE(overlap_agent.host_commit(1, image));
  const double overlapped = overlap_agent.pump(1e9);

  cfg.overlap = false;
  ckpt::KvStore serial_io;
  NdpAgent serial_agent(cfg, serial_io);
  ASSERT_TRUE(serial_agent.host_commit(1, image));
  const double serial = serial_agent.pump(1e9);

  EXPECT_NEAR(serial,
              pipeline_model_seconds(codec, image, cfg.compress_bw,
                                     cfg.io_bw, /*overlap=*/false),
              1e-9);
  EXPECT_LT(overlapped, serial);
  // Same bytes on the wire either way.
  EXPECT_EQ(overlap_io.get(0, 1).value(), serial_io.get(0, 1).value());
}

TEST(NdpAgent, SerialModeSumsStages) {
  ckpt::KvStore io;
  AgentConfig cfg = test_config();
  cfg.overlap = false;
  NdpAgent agent(cfg, io);
  const Bytes image = compressible_image(100 * 1024, 3);
  ASSERT_TRUE(agent.host_commit(1, image));
  const double consumed = agent.pump(1e9);
  const double compress_time = static_cast<double>(image.size()) / 1e6;
  const double write_time =
      static_cast<double>(io.get(0, 1)->size()) / 0.5e6;
  EXPECT_NEAR(consumed, compress_time + write_time, 1e-9);
}

TEST(NdpAgent, AlwaysDrainsNewestAndSkipsSuperseded) {
  ckpt::KvStore io;
  NdpAgent agent(test_config(), io);
  ASSERT_TRUE(agent.host_commit(1, compressible_image(50 * 1024, 4)));
  // While 1 drains, 2 and 3 arrive; 2 is superseded by 3.
  ASSERT_TRUE(agent.host_commit(2, compressible_image(50 * 1024, 5)));
  ASSERT_TRUE(agent.host_commit(3, compressible_image(50 * 1024, 6)));
  agent.pump(1e9);
  EXPECT_EQ(agent.newest_on_io().value(), 3u);
  EXPECT_EQ(agent.stats().drains_completed, 2u);  // 1 and 3
  EXPECT_EQ(agent.stats().drains_skipped, 1u);    // 2
  EXPECT_TRUE(io.contains(0, 1));
  EXPECT_FALSE(io.contains(0, 2));
  EXPECT_TRUE(io.contains(0, 3));
}

TEST(NdpAgent, LockedCheckpointSurvivesEvictionPressure) {
  ckpt::KvStore io;
  AgentConfig cfg = test_config();
  cfg.uncompressed_capacity = 220 * 1024;  // two 100 KiB images + slack
  NdpAgent agent(cfg, io);
  const Bytes img = compressible_image(100 * 1024, 7);
  ASSERT_TRUE(agent.host_commit(1, img));   // drain of 1 starts, locks it
  ASSERT_TRUE(agent.host_commit(2, img));   // fits alongside
  // 3 would need to evict 1 (locked) - the host must stall.
  EXPECT_FALSE(agent.host_commit(3, img));
  // After the drain completes, 1 unlocks and can be evicted.
  agent.pump(1e9);
  EXPECT_TRUE(agent.host_commit(3, img));
}

TEST(NdpAgent, ResetAbortsDrainAndClearsNvm) {
  ckpt::KvStore io;
  NdpAgent agent(test_config(), io);
  ASSERT_TRUE(agent.host_commit(1, compressible_image(100 * 1024, 8)));
  agent.pump(0.01);
  agent.reset();
  EXPECT_FALSE(agent.busy());
  EXPECT_EQ(agent.stats().drains_aborted, 1u);
  EXPECT_FALSE(agent.newest_on_io().has_value());
  EXPECT_EQ(agent.uncompressed_partition().count(), 0u);
  // The agent keeps working after the reset.
  ASSERT_TRUE(agent.host_commit(2, compressible_image(100 * 1024, 9)));
  agent.pump(1e9);
  EXPECT_EQ(agent.newest_on_io().value(), 2u);
}

TEST(NdpAgent, RestoreLocalPrefersUncompressed) {
  ckpt::KvStore io;
  NdpAgent agent(test_config(), io);
  const Bytes image = compressible_image(60 * 1024, 10);
  ASSERT_TRUE(agent.host_commit(1, image));
  // Before the drain finishes: restore from the uncompressed partition.
  EXPECT_EQ(agent.restore_local(1).value(), image);
  agent.pump(1e9);
  // Still restorable after the drain (and via the compressed partition if
  // the uncompressed copy is later evicted).
  EXPECT_EQ(agent.restore_local(1).value(), image);
  EXPECT_FALSE(agent.restore_local(99).has_value());
}

TEST(NdpAgent, UncompressedModeStreamsRawImage) {
  ckpt::KvStore io;
  AgentConfig cfg = test_config();
  cfg.codec = compress::CodecId::kNull;
  NdpAgent agent(cfg, io);
  const Bytes image = compressible_image(50 * 1024, 11);
  ASSERT_TRUE(agent.host_commit(1, image));
  const double consumed = agent.pump(1e9);
  EXPECT_NEAR(consumed, static_cast<double>(image.size()) / cfg.io_bw, 1e-9);
  EXPECT_EQ(io.get(0, 1).value(), image);
}

TEST(NdpAgent, PumpIdleConsumesNothing) {
  ckpt::KvStore io;
  NdpAgent agent(test_config(), io);
  EXPECT_DOUBLE_EQ(agent.pump(100.0), 0.0);
  EXPECT_DOUBLE_EQ(agent.stats().busy_seconds, 0.0);
}

TEST(NdpAgent, InvalidConfigThrows) {
  ckpt::KvStore io;
  AgentConfig cfg = test_config();
  cfg.io_bw = 0;
  EXPECT_THROW(NdpAgent(cfg, io), std::invalid_argument);
}

// Offload contract (section 4.2): host_commit only stores the image and
// notifies the NDP; the delta encode, the framing and the compression all
// happen inside pump(). However the pump is driven - one call, tiny
// slices, or from inside a TaskPool task where the chunk batch runs
// inline - the drained IO entries are the same bytes.
enum class PumpMode { kWhole, kSlices, kInWorker };

std::vector<Bytes> offload_run(const AgentConfig& cfg, PumpMode mode) {
  constexpr std::uint64_t kCheckpoints = 6;
  std::vector<Bytes> drained;
  const auto body = [&] {
    ckpt::KvStore io;
    NdpAgent agent(cfg, io);
    Bytes image = compressible_image(80 * 1024, 21);
    for (std::uint64_t id = 1; id <= kCheckpoints; ++id) {
      // Consecutive images differ in a few places, so delta frames ship.
      for (std::size_t i = 0; i < 64; ++i) {
        image[(id * 4099 + i * 997) % image.size()] ^= std::byte{0x5a};
      }
      const AgentStats before = agent.stats();
      ASSERT_TRUE(agent.host_commit(id, image));
      EXPECT_TRUE(agent.busy());
      EXPECT_EQ(agent.stats().full_frames, before.full_frames);
      EXPECT_EQ(agent.stats().delta_frames, before.delta_frames);
      EXPECT_EQ(agent.stats().bytes_compressed, before.bytes_compressed);
      if (mode == PumpMode::kSlices) {
        for (int guard = 0; guard < 10'000'000 && agent.busy(); ++guard) {
          agent.pump(1e-5);
        }
      } else {
        agent.pump(1e9);
      }
      ASSERT_FALSE(agent.busy());
      ASSERT_EQ(agent.newest_on_io(), id);
      drained.push_back(io.get(0, id).value());
    }
    if (cfg.delta_chain > 0) {
      EXPECT_GT(agent.stats().delta_frames, 0u);
    }
  };
  if (mode == PumpMode::kInWorker) {
    exec::TaskPool pool(2);
    pool.parallel_for(1, [&](std::size_t) {
      EXPECT_TRUE(exec::TaskPool::in_worker());
      body();
    });
  } else {
    body();
  }
  return drained;
}

AgentConfig offload_config(std::uint32_t delta_chain) {
  AgentConfig cfg = test_config();
  cfg.codec = compress::CodecId::kLz4Style;
  cfg.chunk_bytes = 16 * 1024;  // several chunks per image
  cfg.delta_chain = delta_chain;
  cfg.delta_bw = 4e6;
  return cfg;
}

TEST(NdpAgentOffload, HostCommitDoesNoDrainWork) {
  for (const std::uint32_t chain : {0u, 3u}) {
    ckpt::KvStore io;
    NdpAgent agent(offload_config(chain), io);
    ASSERT_TRUE(agent.host_commit(1, compressible_image(80 * 1024, 22)));
    EXPECT_TRUE(agent.busy());
    EXPECT_EQ(agent.stats().full_frames + agent.stats().delta_frames, 0u);
    EXPECT_EQ(agent.stats().bytes_compressed, 0u);
    agent.pump(1e9);
    EXPECT_EQ(agent.newest_on_io(), 1u);
    EXPECT_GT(agent.stats().bytes_compressed, 0u);
    EXPECT_EQ(agent.stats().full_frames, chain > 0 ? 1u : 0u);
  }
}

TEST(NdpAgentOffload, DrainedBytesIndependentOfPumpDriving) {
  for (const std::uint32_t chain : {0u, 3u}) {
    const AgentConfig cfg = offload_config(chain);
    const std::vector<Bytes> whole = offload_run(cfg, PumpMode::kWhole);
    ASSERT_EQ(whole.size(), 6u);
    EXPECT_EQ(offload_run(cfg, PumpMode::kSlices), whole) << chain;
    EXPECT_EQ(offload_run(cfg, PumpMode::kInWorker), whole) << chain;
  }
}

}  // namespace
}  // namespace ndpcr::ndp
