#include <gtest/gtest.h>

#include "study/compression_study.hpp"

namespace ndpcr::study {
namespace {

TEST(PaperConstants, Table2AveragesMatchThePaper) {
  // The paper's "Average" row: factors 72.8 ... 64.8, speeds 110.1 ... 441.9.
  EXPECT_NEAR(paper_average_factor(0), 0.728, 0.002);  // gzip(1)
  EXPECT_NEAR(paper_average_factor(1), 0.747, 0.002);  // gzip(6)
  EXPECT_NEAR(paper_average_factor(2), 0.755, 0.002);  // bzip2(1)
  EXPECT_NEAR(paper_average_factor(3), 0.763, 0.002);  // bzip2(9)
  EXPECT_NEAR(paper_average_factor(4), 0.806, 0.002);  // xz(1)
  EXPECT_NEAR(paper_average_factor(5), 0.833, 0.002);  // xz(6)
  EXPECT_NEAR(paper_average_factor(6), 0.648, 0.002);  // lz4(1)

  EXPECT_NEAR(paper_average_speed_mbps(0), 110.1, 0.5);
  EXPECT_NEAR(paper_average_speed_mbps(6), 441.9, 1.0);
}

TEST(PaperConstants, PerAppGzip1Factors) {
  EXPECT_DOUBLE_EQ(paper_gzip1_factor("comd"), 0.842);
  EXPECT_DOUBLE_EQ(paper_gzip1_factor("minismac"), 0.350);
  EXPECT_DOUBLE_EQ(paper_gzip1_factor("phpccg"), 0.891);
  EXPECT_THROW(paper_gzip1_factor("lammps"), std::out_of_range);
}

TEST(PaperConstants, SevenRowsSevenCodecs) {
  EXPECT_EQ(paper_table2().size(), 7u);
  EXPECT_THROW(paper_average_factor(7), std::out_of_range);
}

TEST(Study, RunsOnSmallInputsAndRoundTrips) {
  StudyConfig cfg;
  cfg.bytes_per_app = 96 * 1024;
  cfg.checkpoints_per_app = 1;
  cfg.steps_between_checkpoints = 1;
  cfg.apps = {"comd", "minismac"};
  cfg.codecs = {{compress::CodecId::kLz4Style, 1, "nlz4(1)"},
                {compress::CodecId::kDeflateStyle, 1, "ngzip(1)"}};
  const StudyResults results = run_compression_study(cfg);
  ASSERT_EQ(results.rows.size(), 4u);  // 2 apps x 2 codecs

  for (const auto& m : results.rows) {
    EXPECT_GT(m.input_bytes, 0u);
    EXPECT_GT(m.compressed_bytes, 0u);
    EXPECT_GT(m.compress_bw, 0.0);
    EXPECT_GT(m.decompress_bw, 0.0);
    EXPECT_LT(m.factor, 1.0);
  }

  // The Table 2 shape: comd compresses far better than minismac.
  const auto* comd = results.find("comd", "ngzip(1)");
  const auto* smac = results.find("minismac", "ngzip(1)");
  ASSERT_NE(comd, nullptr);
  ASSERT_NE(smac, nullptr);
  EXPECT_GT(comd->factor, smac->factor + 0.2);

  EXPECT_EQ(results.find("comd", "nxz(9)"), nullptr);
}

TEST(Study, AveragesAggregateAcrossApps) {
  StudyConfig cfg;
  cfg.bytes_per_app = 64 * 1024;
  cfg.checkpoints_per_app = 1;
  cfg.apps = {"hpccg", "minimd"};
  cfg.codecs = {{compress::CodecId::kLz4Style, 1, "nlz4(1)"}};
  const StudyResults results = run_compression_study(cfg);
  const double avg = results.average_factor("nlz4(1)");
  const double a = results.find("hpccg", "nlz4(1)")->factor;
  const double b = results.find("minimd", "nlz4(1)")->factor;
  EXPECT_DOUBLE_EQ(avg, (a + b) / 2.0);
  EXPECT_GT(results.average_compress_bw("nlz4(1)"), 0.0);
  EXPECT_THROW(EXPECT_GT(results.average_factor("nope"), 0.0),
               std::out_of_range);
}

TEST(Study, StrongerCodecsCompressBetter) {
  // Family ordering on the same checkpoint data: nxz >= ngzip >= nlz4.
  StudyConfig cfg;
  cfg.bytes_per_app = 128 * 1024;
  cfg.checkpoints_per_app = 1;
  cfg.apps = {"minife"};
  cfg.codecs = {{compress::CodecId::kLz4Style, 1, "nlz4(1)"},
                {compress::CodecId::kDeflateStyle, 6, "ngzip(6)"},
                {compress::CodecId::kXzStyle, 6, "nxz(6)"}};
  const StudyResults results = run_compression_study(cfg);
  const double lz4 = results.find("minife", "nlz4(1)")->factor;
  const double gzip = results.find("minife", "ngzip(6)")->factor;
  const double xz = results.find("minife", "nxz(6)")->factor;
  EXPECT_GE(gzip, lz4);
  EXPECT_GE(xz, gzip - 0.02);  // allow a hair of slack
  // And the speed ordering is the reverse.
  const double lz4_bw = results.find("minife", "nlz4(1)")->compress_bw;
  const double xz_bw = results.find("minife", "nxz(6)")->compress_bw;
  EXPECT_GT(lz4_bw, xz_bw);
}

}  // namespace
}  // namespace ndpcr::study
