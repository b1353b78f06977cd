/* Pin the calling thread to the CPU it is running on, so that a child
   process started afterwards inherits the same single CPU.  Returns the
   CPU, or -1 where the system does not allow it. */

#define _GNU_SOURCE
#include <sched.h>
#include <caml/mlvalues.h>

value perfbench_pin_to_current_cpu(value unit)
{
  (void)unit;
#ifdef __linux__
  int cpu = sched_getcpu();
  cpu_set_t set;
  if (cpu < 0) return Val_int(-1);
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  if (sched_setaffinity(0, sizeof set, &set) != 0) return Val_int(-1);
  return Val_int(cpu);
#else
  return Val_int(-1);
#endif
}
