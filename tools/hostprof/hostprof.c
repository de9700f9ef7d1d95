/* LD_PRELOAD sampling profiler for the unmodified benchmark binary.
 *
 * ITIMER_PROF raises SIGPROF every 1/HOSTPROF_HZ s (default 250) of CPU
 * time; the handler stores the interrupted instruction pointer. At exit
 * the samples are written to $HOSTPROF_OUT (default hostprof.out) after
 * a copy of /proc/self/maps, for fold.py to symbolise, and followed by
 * the count of samples that came after the buffer was full.
 *
 *   cc -O2 -shared -fPIC -o hostprof.so hostprof.c
 */
#define _GNU_SOURCE
#include <signal.h>
#include <stdio.h>
#include <stdlib.h>
#include <sys/time.h>
#include <ucontext.h>

#define MAX_SAMPLES (1u << 20)
static unsigned long samples[MAX_SAMPLES];
static unsigned long taken;

static void on_prof(int sig, siginfo_t *info, void *uc) {
    (void)sig, (void)info;
    unsigned long i = __atomic_fetch_add(&taken, 1, __ATOMIC_RELAXED);
    if (i < MAX_SAMPLES)
        samples[i] = ((ucontext_t *)uc)->uc_mcontext.gregs[REG_RIP];
}

static void dump(void) {
    struct itimerval off = {{0, 0}, {0, 0}};
    setitimer(ITIMER_PROF, &off, NULL);
    const char *path = getenv("HOSTPROF_OUT");
    FILE *out = fopen(path ? path : "hostprof.out", "w");
    FILE *maps = fopen("/proc/self/maps", "r");
    if (!out || !maps)
        return;
    char line[4096];
    while (fgets(line, sizeof line, maps))
        fputs(line, out);
    fputs("--samples--\n", out);
    unsigned long n = taken < MAX_SAMPLES ? taken : MAX_SAMPLES;
    for (unsigned long i = 0; i < n; i++)
        fprintf(out, "%lx\n", samples[i]);
    fprintf(out, "--dropped--\n%lu\n", taken - n);
    fclose(out);
    if (taken > n)
        fprintf(stderr, "hostprof: buffer full, %lu of %lu samples dropped\n", taken - n, taken);
}

__attribute__((constructor)) static void start(void) {
    const char *hz_env = getenv("HOSTPROF_HZ");
    long hz = hz_env ? atol(hz_env) : 0;
    if (hz <= 0 || hz > 10000)
        hz = 250;
    struct sigaction sa = {0};
    sa.sa_sigaction = on_prof;
    sa.sa_flags = SA_SIGINFO | SA_RESTART;
    sigaction(SIGPROF, &sa, NULL);
    struct itimerval every = {{0, 1000000 / hz}, {0, 1000000 / hz}};
    setitimer(ITIMER_PROF, &every, NULL);
    atexit(dump);
}
