// LLONG_MIN / -1 overflows: the profiling interpreter must refuse it with a
// runtime error (exit 2), the way it refuses a division by zero.
int main() {
  int a = -9223372036854775807 - 1;
  int b = -1;
  return a / b;
}
