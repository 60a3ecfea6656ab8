/* An array far past sema's storage limit (16 GB in the interpreter):
   hetparc must reject it with a located diagnostic, not allocate it. */
int small[4];
int huge[2000000000];

int main() {
  huge[1] = small[0];
  return huge[1];
}
