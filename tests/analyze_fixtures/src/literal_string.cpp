// Fixture (negative control): rule patterns inside a string literal.
const char* describe_jitter() {
  return "draws with rand(), times with std::chrono, asserts with assert(x)";
}
