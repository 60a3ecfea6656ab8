// An affine subscript evaluated at the first and last values of an
// induction variable that spans all of long long, on a branch that never
// runs. The section of a[k] needs its lower bound clamped from LLONG_MIN by
// whole strides; 2 * k overflows at both ends, so a[2 * k] has no section.
int a[16];
int main() {
  int s = 0;
  if (a[0] > 0) {
    for (int k = -9223372036854775807 - 1; k < 9223372036854775807; k = k + 4) {
      s = s + a[k];
      a[2 * k] = s;
    }
  }
  return s;
}
