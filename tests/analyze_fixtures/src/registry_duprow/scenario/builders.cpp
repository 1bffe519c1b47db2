// Fixture: a key-table row declared twice for one kind -> registry-
// discipline. The second row comes from a shared named table; the same row
// name in another kind's table is no duplicate.
#include <string>
#include <vector>

enum class KeyType { kCount, kRate };
using enum KeyType;
struct Key {
  std::string name;
  KeyType type;
  const char* def;
  std::string doc;
};
using KeyTable = std::vector<Key>;
KeyTable join(KeyTable a, const KeyTable& b);
struct KindSet {
  void add(const char* key, const char* help, KeyTable keys, int build);
};
struct Registry {
  KindSet topologies;
};

void register_topologies(Registry& r) {
  const KeyTable links = {{"link_rate", kRate, "100Mbps", "every link"}};
  r.topologies.add(
      "ring", "a ring",
      join({{"n", kCount, "4", "nodes"}, {"link_rate", kRate, "1Gbps", "x"}},
           links),
      0);
  r.topologies.add("line", "a line",
                   join({{"n", kCount, "2", "nodes"}}, links), 1);
}
