// Seeded R3 fixture: untyped throw, process abort and an untyped parse
// in library code. Never compiled -- sas_lint.py --self-test only.

void fails_without_the_taxonomy(bool broken, const std::string& text) {
  if (broken) {
    throw std::runtime_error("untyped failure loses the exit code");
  }
  const unsigned long long value = std::stoull(text);
  if (value == 0) abort();
}
