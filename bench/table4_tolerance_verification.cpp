// TAB4: tolerance verification for Theorems 1-2 and the shuffle-exchange
// construction — exhaustive over all C(N+k, k) fault sets where feasible,
// the pairwise proof otherwise. Every row must report "yes".
#include <iostream>

#include "analysis/experiments.hpp"

int main() {
  std::cout << "Table 4: (k,G)-tolerance verification\n\n";
  std::cout << ftdb::analysis::table4_tolerance_verification().render();
  return 0;
}
