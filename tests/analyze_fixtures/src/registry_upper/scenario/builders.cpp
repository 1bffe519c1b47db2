// Fixture: a scheduler key that is not lowercase -> registry-discipline.
struct KindSet {
  void add(const char* key, const char* help, int keys, int kind);
};
struct Registry {
  KindSet schedulers;
};

void register_schedulers(Registry& r) {
  r.schedulers.add("Stripe", "lowest-numbered subflow with window space", 0,
                   0);
}
