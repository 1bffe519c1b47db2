// Fixture: the same scheduler key registered twice -> registry-discipline.
// The topology of the same name is another kind and is no duplicate.
struct KindSet {
  void add(const char* key, const char* help, int keys, int kind);
};
struct Registry {
  KindSet topologies;
  KindSet schedulers;
};

void register_schedulers(Registry& r) {
  r.topologies.add("stripe", "a striped fabric", 0, 7);
  r.schedulers.add("stripe", "lowest-numbered subflow with window space", 0,
                   0);
  r.schedulers.add("stripe", "prefer the smallest srtt", 0, 1);
}
