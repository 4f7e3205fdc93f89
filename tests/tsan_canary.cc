// A planted data race: two threads bump one unsynchronized counter. Under
// ThreadSanitizer (-DSOFTDB_SANITIZE=thread, TSAN_OPTIONS=halt_on_error=1)
// the race is reported and the process exits non-zero, which shows that a
// sanitizer job running the real suites fails on a report. Any other build
// exits 0. Not registered with ctest.

#include <thread>

int main() {
  int counter = 0;
  auto bump = [&counter] {
    for (int i = 0; i < 1000; ++i) ++counter;
  };
  std::thread a(bump);
  std::thread b(bump);
  a.join();
  b.join();
  return counter > 0 ? 0 : 1;
}
