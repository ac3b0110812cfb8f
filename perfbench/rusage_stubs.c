/* Peak resident set size, in KiB, of this process and of the largest
   of its waited-for descendants (getrusage is not in OCaml's Unix). */
#include <sys/resource.h>
#include <caml/alloc.h>
#include <caml/memory.h>
#include <caml/mlvalues.h>

value perfbench_maxrss_kib(value unit) {
  CAMLparam1(unit);
  CAMLlocal1(res);
  struct rusage self, kids;
  getrusage(RUSAGE_SELF, &self);
  getrusage(RUSAGE_CHILDREN, &kids);
  res = caml_alloc_tuple(2);
  Store_field(res, 0, Val_long(self.ru_maxrss));
  Store_field(res, 1, Val_long(kids.ru_maxrss));
  CAMLreturn(res);
}
