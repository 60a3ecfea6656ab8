// Parallelized by hetpar for platform A: 1x100 + 1x250 + 2x500 MHz
// (heterogeneous OpenMP-extension annotations; see DESIGN.md)

int src[4096];
int mid[4096];
int dst[4096];

int main() {
  #pragma hetpar parallel_for iterations(404, 762, 1465, 1465) classes(arm_100, arm_250, arm_500, arm_500)
  for (int i = 0; (i < 4096); i = (i + 1)) {
    src[i] = (((i * 13) + 7) % 101);
  }
  #pragma hetpar parallel_for iterations(422, 771, 1451, 1452) classes(arm_100, arm_250, arm_500, arm_500)
  for (int i_1 = 0; (i_1 < 4096); i_1 = (i_1 + 1)) {
    mid[i_1] = ((src[i_1] * src[i_1]) + 3);
  }
  #pragma hetpar parallel_for iterations(407, 777, 1456, 1456) classes(arm_100, arm_250, arm_500, arm_500)
  for (int i_2 = 0; (i_2 < 4096); i_2 = (i_2 + 1)) {
    dst[i_2] = ((mid[i_2] / 2) + src[i_2]);
  }
  int sum = 0;
  #pragma hetpar parallel_for iterations(446, 1451, 1451, 748) classes(arm_100, arm_500, arm_500, arm_250)
  for (int i_3 = 0; (i_3 < 4096); i_3 = (i_3 + 1)) {
    sum = (sum + dst[i_3]);
  }
  return sum;
}

