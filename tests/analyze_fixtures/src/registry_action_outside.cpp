// Fixture: a fault action registered outside scenario/builders.cpp ->
// registry-discipline.
enum class Action { kDown, kFlap };
struct KindSet {
  void add(const char* key, const char* help, int keys, Action build);
};
struct Registry {
  KindSet fault_actions;
};

void register_extra_actions(Registry& r) {
  r.fault_actions.add("flap", "down, then up again", 0, Action::kFlap);
}
