// Fixture: a metric's record function reads an argument its table does
// not declare -> registry-discipline, once. The declared reads stay
// silent.
#include <string>
#include <vector>

enum class KeyType { kCount };
using enum KeyType;
struct Key {
  std::string name;
  KeyType type;
  const char* def;
  std::string doc;
};
using KeyTable = std::vector<Key>;
struct Args {
  template <typename T>
  T get_count(const std::string& key) const;
};
struct Context {
  void record(const std::string& name, double value);
};
struct MetricBuilder {
  void (*record)(const Args&, Context&);
};
struct KindSet {
  void add(const char* key, const char* help, KeyTable keys,
           MetricBuilder build);
};
struct Registry {
  KindSet metrics;
};

void register_metrics(Registry& r) {
  r.metrics.add(
      "loss_ratio", "queue a's loss over queue b's",
      {{"a", kCount, nullptr, "numerator"}, {"b", kCount, nullptr, "denom"}},
      {.record = [](const Args& a, Context& ctx) {
         ctx.record("loss_ratio",
                    a.get_count<int>("a") + a.get_count<int>("c"));
       }});
  r.metrics.add(
      "queue_pair", "two queues' indices",
      {{"a", kCount, nullptr, "first"}, {"b", kCount, nullptr, "second"}},
      {.record = [](const Args& a, Context& ctx) {
         ctx.record("a", a.get_count<int>("a"));
         ctx.record("b", a.get_count<int>("b"));
       }});
}
