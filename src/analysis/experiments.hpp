// Generators for the paper's figures and tables (the experiment index in
// DESIGN.md). Each returns the finished artifact as text so the bench
// binaries stay trivial and the integration tests can assert on content.
#pragma once

#include <cstdint>
#include <string>

#include "analysis/table.hpp"

namespace ftdb::analysis {

// --- Figures (Section III/V examples) --------------------------------------

/// FIG1: adjacency + DOT of B_{2,4} (paper Fig. 1).
std::string figure1_debruijn_b24();

/// FIG2: adjacency + DOT of B^1_{2,4} (paper Fig. 2).
std::string figure2_ft_debruijn_b124();

/// FIG3: relabeling of B^1_{2,4} after the fault at `faulty_node`, listing
/// the new labels and the edges used post-reconfiguration (paper Fig. 3).
std::string figure3_reconfiguration(std::uint32_t faulty_node = 8);

/// FIG4: the bus implementation of B^1_{2,3} — every bus with its driver and
/// member block (paper Fig. 4).
std::string figure4_bus_implementation();

/// FIG5: bus reconfiguration after one fault in B^1_{2,3} (paper Fig. 5).
std::string figure5_bus_reconfiguration(std::uint32_t faulty_node = 4);

// --- Tables (Section I comparison and the corollaries) ---------------------

/// TAB1: base-2 comparison, ours (N+k nodes, degree 4k+4) vs
/// Samatham–Pradhan (N^{log2(2k+1)} nodes, degree 4k+2).
Table table1_comparison_base2(unsigned h_min = 3, unsigned h_max = 10, unsigned k_max = 4);

/// TAB2: base-m comparison for m in {2,3,4,5}.
Table table2_comparison_basem(unsigned h = 4, unsigned k_max = 4);

/// TAB3: measured max degree vs the corollary bounds across constructions.
Table table3_degree_bounds(unsigned h = 5, unsigned k_max = 5);

/// TAB4: tolerance verification summary: every C(N+k, k) fault set
/// enumerated for small instances, the pairwise proof (ft/tolerance.hpp)
/// for large ones.
Table table4_tolerance_verification();

}  // namespace ftdb::analysis
