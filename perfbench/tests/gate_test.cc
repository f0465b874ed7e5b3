// The correctness gate passes on a faithful deployment and fails, naming
// the check, when the index gives a wrong answer.
#include <gtest/gtest.h>

#include <vector>

#include "designs.h"
#include "gate.h"

namespace perfbench {
namespace {

constexpr uint64_t kKeys = 20'000;

const Workload& PointUniform() { return *FindWorkload("point_uniform"); }

TEST(GateTest, PassesOnTheClosedFormDataset) {
  const std::vector<btree::KV> data = ycsb::GenerateDataset(kKeys);
  for (Design design : kDesigns) {
    Deployment d = Deploy(design, PointUniform(), data);
    EXPECT_EQ(CheckDeployment(d, PointUniform(), kKeys, 7, 0), "")
        << DesignName(design);
  }
}

TEST(GateTest, FailsOnAWrongValue) {
  std::vector<btree::KV> data = ycsb::GenerateDataset(kKeys);
  data[12'345].value += 1;  // key 12345*8 now answers 12346
  for (Design design : kDesigns) {
    Deployment d = Deploy(design, PointUniform(), data);
    const std::string error = CheckDeployment(d, PointUniform(), kKeys, 7, 0);
    EXPECT_NE(error.find("wrong value"), std::string::npos)
        << DesignName(design) << ": " << error;
  }
}

TEST(GateTest, FailsOnAMissingKey) {
  std::vector<btree::KV> data = ycsb::GenerateDataset(kKeys);
  data.erase(data.begin() + 777);
  Deployment d = Deploy(Design::kFg, PointUniform(), data);
  const std::string error = CheckDeployment(d, PointUniform(), kKeys, 7, 0);
  EXPECT_NE(error.find("missed a preloaded key"), std::string::npos) << error;
}

TEST(GateTest, FailsOnFailedOperations) {
  const std::vector<btree::KV> data = ycsb::GenerateDataset(kKeys);
  Deployment d = Deploy(Design::kHybrid, PointUniform(), data);
  EXPECT_NE(CheckDeployment(d, PointUniform(), kKeys, 7, 3), "");
}

}  // namespace
}  // namespace perfbench
