// The same overflowing division on a branch that never runs: constant
// propagation (--flow-mode live) sees two constants and must decline to fold
// the quotient instead of trapping.
int x[4];
int main() {
  int a = -9223372036854775807 - 1;
  int b = -1;
  int q = 0;
  if (x[0] > 0) {
    q = a / b;
  }
  return q;
}
