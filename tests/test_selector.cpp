#include "collectives/selector.hpp"

#include <gtest/gtest.h>

namespace tarr::collectives {
namespace {

TEST(Selector, SmallMessagesUseRecursiveDoubling) {
  EXPECT_EQ(select_allgather_algo(4096, 1),
            AllgatherAlgo::RecursiveDoubling);
  EXPECT_EQ(select_allgather_algo(4096, 16 * 1024),
            AllgatherAlgo::RecursiveDoubling);
}

TEST(Selector, LargeMessagesUseRing) {
  EXPECT_EQ(select_allgather_algo(4096, 32 * 1024), AllgatherAlgo::Ring);
  EXPECT_EQ(select_allgather_algo(4096, 256 * 1024), AllgatherAlgo::Ring);
  EXPECT_EQ(select_allgather_algo(6, 1 << 20), AllgatherAlgo::Ring);
}

TEST(Selector, NonPow2SmallUsesBruck) {
  EXPECT_EQ(select_allgather_algo(6, 64), AllgatherAlgo::Bruck);
  EXPECT_EQ(select_allgather_algo(1000, 1024), AllgatherAlgo::Bruck);
}

TEST(Selector, BoundaryIsExclusive) {
  EXPECT_EQ(select_allgather_algo(64, kRdMaxMsg - 1),
            AllgatherAlgo::RecursiveDoubling);
  EXPECT_EQ(select_allgather_algo(64, kRdMaxMsg), AllgatherAlgo::Ring);
}

TEST(CollectiveNames, ToString) {
  EXPECT_STREQ(to_string(AllgatherAlgo::RecursiveDoubling),
               "recursive-doubling");
  EXPECT_STREQ(to_string(AllgatherAlgo::Ring), "ring");
  EXPECT_STREQ(to_string(AllgatherAlgo::Bruck), "bruck");
  EXPECT_STREQ(to_string(OrderFix::InitComm), "initComm");
  EXPECT_STREQ(to_string(OrderFix::EndShuffle), "endShfl");
  EXPECT_STREQ(to_string(OrderFix::None), "none");
  EXPECT_STREQ(to_string(IntraAlgo::Linear), "linear");
  EXPECT_STREQ(to_string(IntraAlgo::Binomial), "binomial");
}

}  // namespace
}  // namespace tarr::collectives
