// Fixture: a scheduler key that is not lowercase -> registry-discipline.
struct Registry {
  void add_scheduler(const char* key, const char* help, int kind);
};

void register_schedulers(Registry& r) {
  r.add_scheduler("Stripe", "lowest-numbered subflow with window space", 0);
}
