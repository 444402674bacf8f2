// Tests for common/epoch_stamps.h: first-touch detection per epoch,
// growth across collections of different sizes, and the 32-bit epoch wrap.

#include "common/epoch_stamps.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

namespace pigeonring {
namespace {

TEST(EpochStampsTest, TouchIsTrueOncePerRecordPerEpoch) {
  EpochStamps stamps;
  stamps.NextEpoch(4);
  EXPECT_TRUE(stamps.Touch(2));
  EXPECT_FALSE(stamps.Touch(2));
  EXPECT_TRUE(stamps.Touch(0));
  stamps.NextEpoch(4);
  EXPECT_TRUE(stamps.Touch(2));
  EXPECT_TRUE(stamps.Touch(0));
  EXPECT_FALSE(stamps.Touch(0));
}

TEST(EpochStampsTest, GrowsStampsAndCompanionArraysButNeverShrinks) {
  EpochStamps stamps;
  std::vector<uint64_t> ruled_out;
  std::vector<uint8_t> decided;
  stamps.NextEpoch(10, ruled_out, decided);
  EXPECT_EQ(ruled_out.size(), 10u);
  EXPECT_EQ(decided.size(), 10u);
  EXPECT_TRUE(stamps.Touch(9));

  // A smaller collection probed later reuses the larger arrays.
  stamps.NextEpoch(3, ruled_out, decided);
  EXPECT_EQ(ruled_out.size(), 10u);
  EXPECT_TRUE(stamps.Touch(2));

  // A larger one grows them, and its new records start untouched.
  stamps.NextEpoch(25, ruled_out, decided);
  EXPECT_EQ(ruled_out.size(), 25u);
  EXPECT_EQ(decided.size(), 25u);
  for (int id = 0; id < 25; ++id) EXPECT_TRUE(stamps.Touch(id)) << id;
}

// Crosses 2^32 epochs. Before the wrap, record 0 is stamped at every epoch
// and record 1 at the last one; records 2 and 3 are never stamped, so their
// stamps stay 0. A counter that wrapped to 0 without zeroing would treat
// records 2 and 3 as already touched in the first epoch after the wrap,
// and every old stamp would come back to life 2^32 epochs after it was
// written.
TEST(EpochStampsTest, WrapPastTwoToTheThirtyTwoForgetsEveryOldStamp) {
  EpochStamps stamps(UINT32_MAX - 3);
  for (int query = 0; query < 3; ++query) {  // epochs 2^32 - 3 .. 2^32 - 1
    stamps.NextEpoch(4);
    EXPECT_TRUE(stamps.Touch(0));
  }
  EXPECT_TRUE(stamps.Touch(1));

  stamps.NextEpoch(4);  // epoch 2^32: wraps
  for (int id = 0; id < 4; ++id) {
    EXPECT_TRUE(stamps.Touch(id)) << "record " << id;
    EXPECT_FALSE(stamps.Touch(id)) << "record " << id;
  }

  // Counting goes on as before: each later epoch starts untouched.
  for (int query = 0; query < 3; ++query) {
    stamps.NextEpoch(4);
    for (int id = 0; id < 4; ++id) EXPECT_TRUE(stamps.Touch(id));
  }
}

}  // namespace
}  // namespace pigeonring
