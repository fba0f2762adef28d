// Tests for the table renderer and the experiment generators (the artifacts
// behind the figure/table benches).
#include <gtest/gtest.h>

#include "analysis/experiments.hpp"
#include "analysis/table.hpp"

namespace ftdb::analysis {
namespace {

TEST(Table, RendersAlignedColumns) {
  Table t({"a", "long_header"});
  t.add_row({"1", "2"});
  t.add_row({"333", "4"});
  const std::string out = t.render();
  EXPECT_NE(out.find("| a   | long_header |"), std::string::npos);
  EXPECT_NE(out.find("| 333 | 4           |"), std::string::npos);
  EXPECT_NE(out.find("|-----|"), std::string::npos);
}

TEST(Table, WrongCellCountThrows) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"1"}), std::invalid_argument);
}

TEST(Formatters, Basics) {
  EXPECT_EQ(fmt_u64(1234), "1234");
  EXPECT_EQ(fmt_double(1.5, 2), "1.50");
  EXPECT_EQ(fmt_ratio(2.0, 1), "2.0x");
  EXPECT_EQ(fmt_probability(0.5L, 3), "0.500");
}

TEST(Figure1, DescribesB24) {
  const std::string fig = figure1_debruijn_b24();
  EXPECT_NE(fig.find("nodes=16"), std::string::npos);
  EXPECT_NE(fig.find("max_degree=4"), std::string::npos);
  EXPECT_NE(fig.find("graph B_2_4"), std::string::npos);
}

TEST(Figure2, DescribesB124) {
  const std::string fig = figure2_ft_debruijn_b124();
  EXPECT_NE(fig.find("nodes=17"), std::string::npos);
  EXPECT_NE(fig.find("max_degree=8"), std::string::npos);
}

TEST(Figure3, MarksFaultAndRelabels) {
  const std::string fig = figure3_reconfiguration(8);
  EXPECT_NE(fig.find("node 8: FAULTY"), std::string::npos);
  // Node 9 hosts logical 8 = [1,0,0,0]_2 after the fault at 8.
  EXPECT_NE(fig.find("node 9: logical 8"), std::string::npos);
  EXPECT_NE(fig.find("style=solid"), std::string::npos);
}

TEST(Figure4, ListsAllNineBuses) {
  const std::string fig = figure4_bus_implementation();
  EXPECT_NE(fig.find("buses=9"), std::string::npos);
  EXPECT_NE(fig.find("bus 0: driver 0"), std::string::npos);
  EXPECT_NE(fig.find("bus 8: driver 8"), std::string::npos);
}

TEST(Figure5, ReconfigurationSurvives) {
  for (std::uint32_t fault = 0; fault < 9; ++fault) {
    const std::string fig = figure5_bus_reconfiguration(fault);
    EXPECT_NE(fig.find("survives = yes"), std::string::npos) << "fault " << fault;
    EXPECT_EQ(fig.find("MISSING"), std::string::npos) << "fault " << fault;
  }
}

TEST(Table1, SPNodeCountsDwarfOurs) {
  const Table t = table1_comparison_base2(3, 6, 3);
  ASSERT_GT(t.num_rows(), 0u);
  for (std::size_t i = 0; i < t.num_rows(); ++i) {
    const auto& row = t.row(i);
    const std::uint64_t ours = std::stoull(row[3]);
    const std::uint64_t sp = std::stoull(row[5]);
    EXPECT_GT(sp, ours);
  }
}

TEST(Table2, CoversBases2Through5) {
  const Table t = table2_comparison_basem(3, 2);
  EXPECT_EQ(t.num_rows(), 4u * 2u);
  EXPECT_EQ(t.row(0)[0], "2");
  EXPECT_EQ(t.row(t.num_rows() - 1)[0], "5");
}

TEST(Table3, EveryRowWithinBound) {
  const Table t = table3_degree_bounds(4, 3);
  ASSERT_GT(t.num_rows(), 0u);
  for (std::size_t i = 0; i < t.num_rows(); ++i) {
    EXPECT_EQ(t.row(i).back(), "yes") << "row " << i;
  }
}

TEST(Table4, EveryInstanceTolerant) {
  const Table t = table4_tolerance_verification();
  ASSERT_GT(t.num_rows(), 0u);
  for (std::size_t i = 0; i < t.num_rows(); ++i) {
    EXPECT_EQ(t.row(i).back(), "yes") << "row " << i;
  }
}

}  // namespace
}  // namespace ftdb::analysis
