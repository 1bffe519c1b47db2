// Fixture (negative control): allocation and I/O in a function no dispatch
// root can reach. Must produce zero findings — the hot rules police the
// hot set, not the whole tree.
#include <iostream>
#include <vector>

struct TopologyBuilder {
  std::vector<int> nodes;

  void construct() {
    nodes.push_back(1);
    nodes.push_back(2);
    std::cout << "built " << nodes.size() << " nodes\n";
  }
};
