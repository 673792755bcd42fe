// hostprof: an LD_PRELOAD sampler of the interrupted program counter.
//
// A POSIX timer on CLOCK_MONOTONIC fires SIGPROF at the main thread (the thread that loaded
// this library) 4000 times a second (kHz). The handler stores the interrupted PC in a
// preallocated buffer; nothing else runs in signal context. At exit the library writes
// /proc/self/maps and the samples to HOSTPROF_OUT, and symbolize.py turns them into a
// per-function (or per-line) report.
//
// Build and run (see README.md):
//   cc -O2 -shared -fPIC -o hostprof.so tools/hostprof/hostprof.c -lrt
//   HOSTPROF_OUT=prof.out LD_PRELOAD=$PWD/hostprof.so ./program args...
//
// Limits: the timer counts wall time, not CPU time, and only the main thread is sampled.
// The library does nothing unless HOSTPROF_OUT is set, and it clears HOSTPROF_OUT and
// LD_PRELOAD at load, so processes the program starts are not sampled.
#define _GNU_SOURCE
#include <signal.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/mman.h>
#include <sys/syscall.h>
#include <time.h>
#include <ucontext.h>
#include <unistd.h>

enum { kHz = 4000 };
// Room for about 17 minutes at kHz; later samples are counted as dropped. Untouched pages
// cost nothing: only the samples actually taken become resident.
static const size_t kCapacity = (size_t)1 << 22;

static uintptr_t* g_samples;
static volatile size_t g_count;  // written only by the handler, on the one sampled thread
static timer_t g_timer;
static char g_out[4096];

static void OnTick(int sig, siginfo_t* info, void* context) {
  (void)sig;
  (void)info;
  const ucontext_t* uc = (const ucontext_t*)context;
#if defined(__x86_64__)
  uintptr_t pc = (uintptr_t)uc->uc_mcontext.gregs[REG_RIP];
#elif defined(__aarch64__)
  uintptr_t pc = (uintptr_t)uc->uc_mcontext.pc;
#else
#error "hostprof: unsupported architecture"
#endif
  if (g_count < kCapacity) {
    g_samples[g_count] = pc;
  }
  g_count++;
}

__attribute__((constructor)) static void HostprofStart(void) {
  const char* out = getenv("HOSTPROF_OUT");
  if (out == NULL || *out == '\0' || strlen(out) >= sizeof(g_out)) {
    return;
  }
  strcpy(g_out, out);
  unsetenv("HOSTPROF_OUT");
  unsetenv("LD_PRELOAD");
  void* buffer = mmap(NULL, kCapacity * sizeof(uintptr_t), PROT_READ | PROT_WRITE,
                      MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  if (buffer == MAP_FAILED) {
    perror("hostprof: mmap");
    return;
  }
  g_samples = (uintptr_t*)buffer;

  struct sigaction sa;
  memset(&sa, 0, sizeof(sa));
  sa.sa_sigaction = OnTick;
  sa.sa_flags = SA_SIGINFO | SA_RESTART;
  sigemptyset(&sa.sa_mask);
  if (sigaction(SIGPROF, &sa, NULL) != 0) {
    perror("hostprof: sigaction");
    return;
  }
  struct sigevent sev;
  memset(&sev, 0, sizeof(sev));
  sev.sigev_notify = SIGEV_THREAD_ID;
  sev.sigev_signo = SIGPROF;
  sev._sigev_un._tid = (pid_t)syscall(SYS_gettid);  // the loading (main) thread
  if (timer_create(CLOCK_MONOTONIC, &sev, &g_timer) != 0) {
    perror("hostprof: timer_create");
    return;
  }
  struct itimerspec period;
  memset(&period, 0, sizeof(period));
  long period_ns = 1000000000L / kHz;
  period.it_interval.tv_sec = period_ns / 1000000000L;
  period.it_interval.tv_nsec = period_ns % 1000000000L;
  period.it_value = period.it_interval;
  if (timer_settime(g_timer, 0, &period, NULL) != 0) {
    perror("hostprof: timer_settime");
  }
}

__attribute__((destructor)) static void HostprofStop(void) {
  if (g_samples == NULL) {
    return;
  }
  timer_delete(g_timer);
  signal(SIGPROF, SIG_IGN);
  FILE* out = fopen(g_out, "w");
  if (out == NULL) {
    perror("hostprof: open output");
    return;
  }
  size_t kept = g_count < kCapacity ? g_count : kCapacity;
  fprintf(out, "hostprof 1 hz %d samples %zu dropped %zu\nmaps\n", kHz, kept, g_count - kept);
  FILE* maps = fopen("/proc/self/maps", "r");
  if (maps != NULL) {
    char line[4096 + 256];
    while (fgets(line, sizeof(line), maps) != NULL) {
      fputs(line, out);
    }
    fclose(maps);
  }
  fputs("pcs\n", out);
  for (size_t i = 0; i < kept; ++i) {
    fprintf(out, "%lx\n", (unsigned long)g_samples[i]);
  }
  fclose(out);
}
