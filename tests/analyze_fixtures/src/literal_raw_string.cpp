// Fixture (negative control): rule patterns inside a raw string, which
// may hold unescaped quotes.
const char* describe_pool() {
  return R"doc(a "quoted" new Packet; then free(p); and "rand()")doc";
}
