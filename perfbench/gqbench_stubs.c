/* Process-lifecycle and clock primitives the OCaml Unix library lacks:
   the monotonic clock the harness times with (its own, so a change to
   the program's clock cannot move the benchmark's), and
   PR_SET_PDEATHSIG, so a spawned daemon dies with the harness even if
   the harness is killed outright. */

#define _GNU_SOURCE
#include <time.h>
#include <unistd.h>
#include <signal.h>
#include <caml/mlvalues.h>
#include <caml/alloc.h>
#ifdef __linux__
#include <sys/prctl.h>
#endif

value gqbench_now_ns(value unit)
{
  struct timespec ts;
  (void)unit;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return caml_copy_int64((int64_t)ts.tv_sec * 1000000000LL + ts.tv_nsec);
}

/* Called in the forked child before exec: ask for SIGKILL when the
   parent dies, then close the race where it died before the request. */
value gqbench_die_with_parent(value parent)
{
#ifdef __linux__
  prctl(PR_SET_PDEATHSIG, SIGKILL);
#endif
  if (getppid() != Int_val(parent)) _exit(126);
  return Val_unit;
}
