#include "exp/artifact.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "policies/factory.hpp"
#include "trace/workload.hpp"
#include "support/temp_dir.hpp"

namespace pulse::exp {
namespace {

class ArtifactTest : public ::testing::Test {
 protected:
  sim::EnsembleResult small_ensemble() {
    trace::WorkloadConfig config;
    config.function_count = 4;
    config.duration = 300;
    const auto workload = trace::build_azure_like_workload(config);
    const auto zoo = models::ModelZoo::builtin();
    sim::EnsembleConfig ec;
    ec.runs = 5;
    return sim::run_ensemble(zoo, workload.trace,
                             [] { return policies::make_policy("pulse"); }, ec);
  }

  test::ScopedTempDir tmp_;
  // Not created here: write_artifact_files must create its output directory.
  std::filesystem::path dir_ = tmp_.path() / "artifacts";
};

TEST_F(ArtifactTest, WritesThreeFilesWithArtifactNames) {
  const auto ensemble = small_ensemble();
  const ArtifactFiles files = write_artifact_files(dir_, "technique", ensemble);
  EXPECT_EQ(files.service_time.filename(),
            "technique_servicetime_sliding_with_memory_constraint_T1.txt");
  EXPECT_EQ(files.keepalive_cost.filename(),
            "technique_keepalive_cost_sliding_with_memory_constraint_T1.txt");
  EXPECT_EQ(files.accuracy.filename(),
            "technique_accuracy_sliding_with_memory_constraint_T1.txt");
  EXPECT_TRUE(std::filesystem::exists(files.service_time));
  EXPECT_TRUE(std::filesystem::exists(files.keepalive_cost));
  EXPECT_TRUE(std::filesystem::exists(files.accuracy));
}

TEST_F(ArtifactTest, OneLinePerRunRoundTrip) {
  const auto ensemble = small_ensemble();
  const ArtifactFiles files = write_artifact_files(dir_, "pulse", ensemble);

  const auto service = read_artifact_metric(files.service_time);
  const auto cost = read_artifact_metric(files.keepalive_cost);
  const auto accuracy = read_artifact_metric(files.accuracy);
  ASSERT_EQ(service.size(), ensemble.runs.size());
  ASSERT_EQ(cost.size(), ensemble.runs.size());
  ASSERT_EQ(accuracy.size(), ensemble.runs.size());
  for (std::size_t i = 0; i < ensemble.runs.size(); ++i) {
    EXPECT_NEAR(service[i], ensemble.runs[i].total_service_time_s, 1e-6);
    EXPECT_NEAR(cost[i], ensemble.runs[i].total_keepalive_cost_usd, 1e-9);
    EXPECT_NEAR(accuracy[i], ensemble.runs[i].average_accuracy_pct(), 1e-6);
  }
}

TEST_F(ArtifactTest, AveragesMatchEnsembleAggregates) {
  const auto ensemble = small_ensemble();
  const ArtifactFiles files = write_artifact_files(dir_, "pulse", ensemble);
  const auto cost = read_artifact_metric(files.keepalive_cost);
  double sum = 0.0;
  for (double v : cost) sum += v;
  EXPECT_NEAR(sum / static_cast<double>(cost.size()), ensemble.mean_keepalive_cost_usd(),
              1e-9);
}

TEST_F(ArtifactTest, ReadMalformedThrows) {
  const auto path = dir_ / "bad.txt";
  std::filesystem::create_directories(dir_);
  std::ofstream(path) << "1.5\nnot-a-number\n";
  EXPECT_THROW(read_artifact_metric(path), std::runtime_error);
}

TEST_F(ArtifactTest, ReadMissingThrows) {
  EXPECT_THROW(read_artifact_metric(dir_ / "nope.txt"), std::runtime_error);
}

}  // namespace
}  // namespace pulse::exp
