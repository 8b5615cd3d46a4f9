/* Process accounting for the benchmark driver. OCaml's Unix library has
   no getrusage, so a spawned child's own CPU time is read here from
   wait4(2) when it is reaped. */

#define _GNU_SOURCE
#include <errno.h>
#include <sys/resource.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <time.h>

#include <caml/alloc.h>
#include <caml/fail.h>
#include <caml/memory.h>
#include <caml/mlvalues.h>
#include <caml/signals.h>

/* e2e_wait4 : int -> int * float * float
   Blocks until [pid] exits and returns (status, user CPU s, system CPU s).
   status is the exit code, or -signal when the child was killed. */
CAMLprim value e2e_wait4(value vpid)
{
  CAMLparam1(vpid);
  CAMLlocal3(res, utime, stime);
  int status = 0;
  struct rusage ru;
  pid_t r;
  do {
    caml_enter_blocking_section();
    r = wait4(Int_val(vpid), &status, 0, &ru);
    caml_leave_blocking_section();
  } while (r < 0 && errno == EINTR);
  if (r < 0) caml_failwith("wait4");
  /* Allocate the boxed floats before the tuple: Store_field may take a
     field address before evaluating an allocating argument. */
  utime = caml_copy_double(ru.ru_utime.tv_sec + ru.ru_utime.tv_usec / 1e6);
  stime = caml_copy_double(ru.ru_stime.tv_sec + ru.ru_stime.tv_usec / 1e6);
  res = caml_alloc_tuple(3);
  Store_field(res, 0,
              Val_int(WIFEXITED(status) ? WEXITSTATUS(status)
                      : WIFSIGNALED(status) ? -WTERMSIG(status) : -1));
  Store_field(res, 1, utime);
  Store_field(res, 2, stime);
  CAMLreturn(res);
}

/* e2e_monotonic : unit -> float — seconds on CLOCK_MONOTONIC, so a
   wall-clock step cannot bend a latency sample. */
CAMLprim value e2e_monotonic(value unit)
{
  struct timespec ts;
  (void)unit;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return caml_copy_double(ts.tv_sec + ts.tv_nsec / 1e9);
}
