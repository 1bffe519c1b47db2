// Fixture: a scheduler registered outside scenario/builders.cpp ->
// registry-discipline.
struct KindSet {
  void add(const char* key, const char* help, int keys, int kind);
};
struct Registry {
  KindSet schedulers;
};

void register_extra_schedulers(Registry& r) {
  r.schedulers.add("round_robin", "rotate across subflows", 0, 4);
}
