// Fixture: the same scheduler key registered twice -> registry-discipline.
// The topology of the same name is another kind and is no duplicate.
struct Registry {
  void add_topology(const char* key, const char* help, int kind);
  void add_scheduler(const char* key, const char* help, int kind);
};

void register_schedulers(Registry& r) {
  r.add_topology("stripe", "a striped fabric", 7);
  r.add_scheduler("stripe", "lowest-numbered subflow with window space", 0);
  r.add_scheduler("stripe", "prefer the smallest srtt", 1);
}
