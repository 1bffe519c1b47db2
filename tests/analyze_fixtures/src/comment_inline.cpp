// Fixture (negative control): a rule pattern inside a block comment.
int roll_once(int seed) {
  /* never call rand() here */
  return seed * 31 + 7;
}
