// Fixture: a builder reads a key its kind's table does not declare ->
// registry-discipline, once. The read sits in the constructor of the class
// the registration makes; every other read, in the call and in a shared
// table's helper, is declared and stays silent.
#include <memory>
#include <string>
#include <vector>

enum class KeyType { kCount, kTime };
using enum KeyType;
struct Key {
  std::string name;
  KeyType type;
  const char* def;
  std::string doc;
};
using KeyTable = std::vector<Key>;
KeyTable join(KeyTable a, const KeyTable& b);
struct Args {
  bool has(const std::string& key) const;
  template <typename T>
  T get_count(const std::string& key) const;
  long get_time(const std::string& key) const;
};
struct KindSet {
  template <typename B>
  void add(const char* key, const char* help, KeyTable keys, B build);
};
struct Registry {
  KindSet traffic_models;
};

long rto_of(const Args& a) { return a.get_time("min_rto"); }

class Flows {
 public:
  explicit Flows(const Args& a)
      : count_(a.get_count<int>("count")), rto_(rto_of(a)) {
    if (a.has("names")) named_ = true;  // declared nowhere
  }

 private:
  int count_;
  long rto_;
  bool named_ = false;
};

void register_traffic(Registry& r) {
  const KeyTable shared = {{"min_rto", kTime, "10ms", "RTO floor"}};
  r.traffic_models.add(
      "flows", "a few flows",
      join({{"count", kCount, "1", "flows"}}, shared),
      [](const Args& a) { return std::make_unique<Flows>(a); });
  r.traffic_models.add(
      "counted", "flows with a count",
      {{"count", kCount, "1", "flows"}, {"min_rto", kTime, "", "floor"}},
      [](const Args& a) {
        (void)a.get_count<int>("count");
        return 0;
      });
}
