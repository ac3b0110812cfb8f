/* Native harness for one emitted kernel.

   The emitted assembly addresses its globals absolutely from
   GLOBAL_BASE (the backend's global_base), prints through print_i64,
   jumps to exit_function / __ferrum_detect when a checker fires, and
   uses the callee-saved registers as spares without saving them.  The
   harness maps the global region, stubs the three symbols, and calls
   the kernel's renamed main through a trampoline that saves rbx, rbp
   and r12-r15.

   Protocol (one process per kernel, driven over stdin/stdout): on
   start the kernel runs once and the harness prints "out V1 V2 ...".
   Then, per input line:
     "cal US"   calibrate a batch of back-to-back calls lasting about US
                microseconds; prints "calls K"
     "time N"   time N batches of K calls; prints "batch NS1 NS2 ..."
                in ns per call
   End of input exits 0.  A call whose output differs from the first
   call's exits 4; a checker firing exits 3. */
#define _GNU_SOURCE
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/mman.h>
#include <time.h>
#include <unistd.h>

#ifndef GLOBAL_BASE
#error "compile with -DGLOBAL_BASE=<backend global base>"
#endif
#define REGION_BYTES (1 << 20)
#define MAX_OUT 4096

static int64_t out[MAX_OUT];
static int nout;

void print_i64(int64_t v) {
  if (nout < MAX_OUT) out[nout] = v;
  nout++;
}

static void detected(void) {
  static const char msg[] = "checker fired in a fault-free run\n";
  (void)!write(2, msg, sizeof msg - 1);
  _exit(3);
}

void exit_function(void) { detected(); }
void __ferrum_detect(void) { detected(); }

void ferrum_call(void);
__asm__(".text\n"
        ".globl ferrum_call\n"
        "ferrum_call:\n"
        "\tpushq %rbx\n\tpushq %rbp\n\tpushq %r12\n"
        "\tpushq %r13\n\tpushq %r14\n\tpushq %r15\n"
        "\tsubq $8, %rsp\n"
        "\tcall ferrum_kernel\n"
        "\taddq $8, %rsp\n"
        "\tpopq %r15\n\tpopq %r14\n\tpopq %r13\n"
        "\tpopq %r12\n\tpopq %rbp\n\tpopq %rbx\n"
        "\tret\n");

static int64_t ref[MAX_OUT];
static int nref;

static double now_ns(void) {
  struct timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return (double)ts.tv_sec * 1e9 + (double)ts.tv_nsec;
}

static int call_matches(void) {
  nout = 0;
  ferrum_call();
  return nout == nref && memcmp(out, ref, sizeof(int64_t) * (size_t)nref) == 0;
}

static int batch_ok(long calls) {
  for (long i = 0; i < calls; i++) {
    nout = 0;
    ferrum_call();
  }
  return nout == nref && memcmp(out, ref, sizeof(int64_t) * (size_t)nref) == 0;
}

int main(void) {
  void *want = (void *)(uintptr_t)GLOBAL_BASE;
  void *got = mmap(want, REGION_BYTES, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS | MAP_FIXED_NOREPLACE, -1, 0);
  if (got != want) {
    perror("mmap at the global base");
    return 2;
  }
  nout = 0;
  ferrum_call();
  if (nout > MAX_OUT) {
    fprintf(stderr, "too many outputs: %d\n", nout);
    return 2;
  }
  nref = nout;
  memcpy(ref, out, sizeof(int64_t) * (size_t)nref);
  printf("out");
  for (int i = 0; i < nref; i++) printf(" %lld", (long long)ref[i]);
  printf("\n");
  fflush(stdout);
  long calls = 1;
  char line[128];
  while (fgets(line, sizeof line, stdin)) {
    double us;
    int n;
    if (sscanf(line, "cal %lf", &us) == 1) {
      double t0 = now_ns(), t = t0;
      calls = 0;
      while (t - t0 < us * 1e3) {
        if (!call_matches()) return 4;
        calls++;
        t = now_ns();
      }
      printf("calls %ld\n", calls);
    } else if (sscanf(line, "time %d", &n) == 1) {
      printf("batch");
      for (int b = 0; b < n; b++) {
        double s = now_ns();
        int ok = batch_ok(calls);
        double e = now_ns();
        if (!ok) return 4;
        printf(" %.3f", (e - s) / (double)calls);
      }
      printf("\n");
    } else {
      fprintf(stderr, "bad command: %s", line);
      return 2;
    }
    fflush(stdout);
  }
  return 0;
}
