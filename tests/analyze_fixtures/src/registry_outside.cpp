// Fixture: a scheduler registered outside scenario/builders.cpp ->
// registry-discipline.
struct Registry {
  void add_scheduler(const char* key, const char* help, int kind);
};

void register_extra_schedulers(Registry& r) {
  r.add_scheduler("round_robin", "rotate across subflows", 4);
}
