// Cross-commit pins of the multilevel data path's observable behaviour.
//
// The other invariance suites compare a run against itself at another
// pool size or writer depth; these compare against literal constants, so
// a refactor of MultilevelManager's level-write path that changes any
// store op sequence, health counter (virtual backoff included, bit for
// bit), byte-movement counter or recovery outcome fails here even when it
// changes every pool size the same way.
//
// The chaos grid covers both partner schemes (copy, and XOR groups of 3
// over 4 nodes, which leaves one group of a single member),
// three IO codecs, the full / delta-chain / delta+dedup commit paths and
// three fault regimes. Each constant folds one scheme x payload-mode cell
// (9 runs: codec x fault regime) and must hold at pools 1 and 4. Pool 1
// drives each run from the test thread, so IO puts go through the async
// writer; pool 4 runs the cell as a chaos suite, where every run is a
// pool task and each level executes inline. One constant thus covers the
// pipelined and the inline execution of every level.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "ckpt/multilevel.hpp"
#include "compress/codec.hpp"
#include "exec/task_pool.hpp"
#include "faults/chaos.hpp"
#include "harness/equivalence.hpp"

namespace ndpcr {
namespace {

enum class Mode { kFull, kDelta, kDedup };
enum class Regime { kClean, kSeededFaults, kIoOutage };

faults::ChaosConfig grid_config(ckpt::PartnerScheme scheme,
                                compress::CodecId codec, Mode mode,
                                Regime regime, std::uint64_t seed) {
  faults::ChaosConfig cfg;
  cfg.seed = seed;
  cfg.scheme = scheme;
  cfg.node_count = 4;  // XOR: groups {0,1,2} and {3}
  cfg.xor_group_size = 3;
  cfg.commits = 12;
  cfg.io_codec = codec;
  cfg.io_chunk_bytes = 2048;  // two chunks per rank image
  if (mode != Mode::kFull) {
    cfg.delta_chain = 3;
    cfg.sparse_updates = true;
    cfg.io_dedup = mode == Mode::kDedup;
  }
  switch (regime) {
    case Regime::kClean:
      cfg.rates = {0.0, 0.0, 0.0, 0.0};
      break;
    case Regime::kSeededFaults:
      // Heavy enough that retries run out: the partner and IO levels
      // degrade, get probed and heal.
      cfg.rates = {0.2, 0.1, 0.1, 0.02};
      break;
    case Regime::kIoOutage:
      cfg.rates = {0.0, 0.0, 0.0, 0.0};
      cfg.io_outage = true;
      break;
  }
  return cfg;
}

// One scheme x mode cell: every codec x fault regime, seeds in grid order.
std::vector<faults::ChaosConfig> cell_configs(ckpt::PartnerScheme scheme,
                                              Mode mode) {
  const compress::CodecId codecs[] = {compress::CodecId::kNull,
                                      compress::CodecId::kLz4Style,
                                      compress::CodecId::kDeflateStyle};
  const Regime regimes[] = {Regime::kClean, Regime::kSeededFaults,
                            Regime::kIoOutage};
  std::vector<faults::ChaosConfig> configs;
  std::uint64_t seed = 0x5eed;
  for (const compress::CodecId codec : codecs) {
    for (const Regime regime : regimes) {
      configs.push_back(grid_config(scheme, codec, mode, regime, ++seed));
    }
  }
  return configs;
}

std::uint32_t checked_fingerprint(
    const std::vector<faults::ChaosReport>& reports) {
  for (const faults::ChaosReport& r : reports) {
    EXPECT_EQ(r.violations, 0u)
        << (r.violation_notes.empty() ? "(no note)"
                                      : r.violation_notes.front());
  }
  return faults::suite_fingerprint(reports);
}

struct Cell {
  ckpt::PartnerScheme scheme;
  Mode mode;
  std::uint32_t fingerprint;
};

constexpr Cell kChaosCells[] = {
    {ckpt::PartnerScheme::kCopy, Mode::kFull, 0x99261b2fu},
    {ckpt::PartnerScheme::kCopy, Mode::kDelta, 0x454e8657u},
    {ckpt::PartnerScheme::kCopy, Mode::kDedup, 0x4d7816e3u},
    {ckpt::PartnerScheme::kXorGroup, Mode::kFull, 0x1801cb65u},
    {ckpt::PartnerScheme::kXorGroup, Mode::kDelta, 0x8366b988u},
    {ckpt::PartnerScheme::kXorGroup, Mode::kDedup, 0x071e89a8u},
};

TEST(DatapathPin, ChaosGridFingerprintsAtPools1And4) {
  exec::TaskPool one(1);
  exec::TaskPool four(4);
  std::uint64_t retries = 0;
  std::uint64_t quarantined = 0;
  std::uint64_t repairs = 0;
  for (const Cell& cell : kChaosCells) {
    const char* scheme =
        cell.scheme == ckpt::PartnerScheme::kCopy ? "copy" : "xor";
    std::vector<faults::ChaosConfig> configs =
        cell_configs(cell.scheme, cell.mode);
    // Pool 1, one run at a time: the manager fans out on the pool and
    // pipelines IO puts through its writer thread.
    std::vector<faults::ChaosReport> serial;
    for (faults::ChaosConfig cfg : configs) {
      cfg.pool = &one;
      serial.push_back(faults::run_chaos(cfg));
      const ckpt::HealthReport& h = serial.back().health;
      retries += h.local.put_retries + h.partner.put_retries +
                 h.io.put_retries;
      quarantined += h.local.quarantined + h.partner.quarantined +
                     h.io.quarantined;
      repairs += h.partner.repairs + h.io.repairs;
    }
    EXPECT_EQ(checked_fingerprint(serial), cell.fingerprint)
        << scheme << " mode " << static_cast<int>(cell.mode) << " pool 1";
    // Pool 4, runs as pool tasks: every level executes inline.
    for (faults::ChaosConfig& cfg : configs) cfg.pool = &four;
    EXPECT_EQ(checked_fingerprint(faults::run_chaos_suite(configs, four)),
              cell.fingerprint)
        << scheme << " mode " << static_cast<int>(cell.mode) << " pool 4";
  }
  // The grid reaches the self-healing paths the constants pin.
  EXPECT_GT(retries, 0u);
  EXPECT_GT(quarantined, 0u);
  EXPECT_GT(repairs, 0u);
}

// The `ndpcr equiv` defaults: cg on 3 nodes, every crash point.
TEST(DatapathPin, EquivalenceSweepFingerprints) {
  struct Sweep {
    harness::PayloadMode mode;
    std::uint32_t fingerprint;
  };
  const Sweep sweeps[] = {{harness::PayloadMode::kFull, 0x74f0b3bbu},
                          {harness::PayloadMode::kDelta, 0x74f0b3bbu},
                          {harness::PayloadMode::kDedup, 0x8fc9be63u}};
  for (const Sweep& s : sweeps) {
    harness::EquivalenceConfig config;
    config.kernel = "cg";
    config.mode = s.mode;
    config.node_count = 3;
    const harness::SweepReport report = harness::run_sweep(config);
    EXPECT_EQ(report.failures, 0u) << harness::to_string(s.mode);
    EXPECT_EQ(report.fingerprint, s.fingerprint)
        << harness::to_string(s.mode);
  }
}

}  // namespace
}  // namespace ndpcr
