/* Monotonic nanosecond clock: CLOCK_MONOTONIC never steps backwards when
   the wall clock is adjusted (NTP, manual changes), so latencies and the
   solver budget measured with it cannot go negative or spike. */
#include <time.h>
#include <caml/mlvalues.h>

value rbgp_clock_monotonic_ns(value unit)
{
  struct timespec ts;
  (void)unit;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return Val_long((intnat)ts.tv_sec * 1000000000 + (intnat)ts.tv_nsec);
}
