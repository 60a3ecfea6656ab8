// Loop headers at the edges of int on a branch that never runs: the static
// trip count must decline them instead of overflowing. Negating the folded
// LLONG_MIN step, normalizing `<= LLONG_MAX`, and the distance from LLONG_MIN
// to LLONG_MAX each overflow a long long. The last loop has a trip count
// (2^62), and its last induction value must come out without overflow too.
int x[4];
int main() {
  int s = 0;
  if (x[0] > 0) {
    for (int i = 0; i > -4; i = i - (-9223372036854775807 - 1)) {
      s = s + 1;
    }
    for (int j = 0; j <= 9223372036854775807; j = j + 1) {
      s = s + 1;
    }
    for (int k = -9223372036854775807 - 1; k < 9223372036854775807; k = k + 1) {
      s = s + 1;
    }
    for (int m = -9223372036854775807 - 1; m < 9223372036854775807; m = m + 4) {
      s = s + 1;
    }
  }
  return s;
}
