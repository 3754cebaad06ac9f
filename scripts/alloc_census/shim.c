// LD_PRELOAD allocation shim of scripts/alloc_census.sh.
//
// Counts every heap allocation the process makes (malloc, calloc, the
// aligned allocators, realloc of a null pointer) and records the call stack
// of each in a fixed table of distinct stacks, so a census costs no memory
// that grows with the run. At exit it writes the table to stderr, one line
// per stack:
//
//   census <count> <module>+0x<offset> <module>+0x<offset> ...
//
// innermost frame first (return addresses), then one summary line:
//
//   census-total <allocations> <allocations whose stack did not fit>
//
// resolve.py turns the offsets into sites with addr2line. Frees are not
// tracked.
#define _GNU_SOURCE
#include <dlfcn.h>
#include <execinfo.h>
#include <stddef.h>
#include <stdint.h>
#include <stdio.h>
#include <string.h>

extern void* __libc_malloc(size_t size);
extern void* __libc_calloc(size_t n, size_t size);
extern void* __libc_realloc(void* p, size_t size);
extern void* __libc_memalign(size_t align, size_t size);

enum { kDepth = 12, kSlots = 1 << 16 };

struct Stack {
  uint64_t count;
  int depth;
  void* pc[kDepth];
};

static struct Stack table[kSlots];
static uint64_t total;
static uint64_t dropped;
static int busy;  // backtrace() and stdio allocate too; those are not counted

static void record(void) {
  if (busy) return;
  busy = 1;
  ++total;
  void* raw[kDepth + 2];
  // Skip record() and the intercepted entry point.
  const int got = backtrace(raw, kDepth + 2) - 2;
  void** pc = raw + 2;
  const int depth = got < 0 ? 0 : got;
  uint64_t h = 1469598103934665603ull;
  for (int i = 0; i < depth; ++i) {
    h = (h ^ (uint64_t)(uintptr_t)pc[i]) * 1099511628211ull;
  }
  for (uint64_t probe = 0; probe < kSlots; ++probe) {
    struct Stack* s = &table[(h + probe) & (kSlots - 1)];
    if (s->count == 0) {
      s->count = 1;
      s->depth = depth;
      memcpy(s->pc, pc, sizeof(void*) * (size_t)depth);
      busy = 0;
      return;
    }
    if (s->depth == depth &&
        memcmp(s->pc, pc, sizeof(void*) * (size_t)depth) == 0) {
      ++s->count;
      busy = 0;
      return;
    }
  }
  ++dropped;
  busy = 0;
}

void* malloc(size_t size) {
  record();
  return __libc_malloc(size);
}

void* calloc(size_t n, size_t size) {
  record();
  return __libc_calloc(n, size);
}

void* realloc(void* p, size_t size) {
  if (p == NULL) record();
  return __libc_realloc(p, size);
}

void* memalign(size_t align, size_t size) {
  record();
  return __libc_memalign(align, size);
}

void* aligned_alloc(size_t align, size_t size) {
  record();
  return __libc_memalign(align, size);
}

int posix_memalign(void** out, size_t align, size_t size) {
  record();
  void* p = __libc_memalign(align, size);
  if (p == NULL) return 12;  // ENOMEM
  *out = p;
  return 0;
}

__attribute__((constructor)) static void warm_unwinder(void) {
  // The first backtrace() loads the unwinder, which allocates.
  void* pc[1];
  busy = 1;
  backtrace(pc, 1);
  busy = 0;
}

__attribute__((destructor)) static void dump(void) {
  busy = 1;
  for (size_t i = 0; i < kSlots; ++i) {
    const struct Stack* s = &table[i];
    if (s->count == 0) continue;
    fprintf(stderr, "census %llu", (unsigned long long)s->count);
    for (int k = 0; k < s->depth; ++k) {
      Dl_info info;
      if (dladdr(s->pc[k], &info) != 0 && info.dli_fname != NULL) {
        fprintf(stderr, " %s+0x%lx", info.dli_fname,
                (unsigned long)((uintptr_t)s->pc[k] -
                                (uintptr_t)info.dli_fbase));
      } else {
        fprintf(stderr, " ?+0x%lx", (unsigned long)(uintptr_t)s->pc[k]);
      }
    }
    fputc('\n', stderr);
  }
  fprintf(stderr, "census-total %llu %llu\n", (unsigned long long)total,
          (unsigned long long)dropped);
}
