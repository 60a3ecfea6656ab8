// LLONG_MIN % -1 in a loop bound on a branch that never runs: the static
// trip count must decline to fold the bound instead of trapping.
int x[4];
int main() {
  int s = 0;
  if (x[0] > 0) {
    for (int i = 0; i < (-9223372036854775807 - 1) % -1 + 4; i = i + 1) {
      s = s + i;
    }
  }
  return s;
}
