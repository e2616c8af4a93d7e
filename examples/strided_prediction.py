#!/usr/bin/env python3
"""The Figure 3 address-table state machine, step by step, plus a
table-size sweep on a strided workload (the Figure 5a experiment in
miniature).

Run:  python examples/strided_prediction.py
"""

from repro.compiler.driver import compile_source
from repro.sim.executor import Executor
from repro.sim.machine import EarlyGenConfig, SelectionMode
from repro.sim.pipeline import speedup
from repro.sim.predictors import FUNCTIONING, TableEntry

SOURCE = """
int a[512]; int b[512]; int c[512]; int d[512];
struct link { int v; struct link *next; };
struct link *ring;

int main() {
    int i; int r; int s = 0;
    for (i = 0; i < 512; i++) { a[i] = i; b[i] = 2 * i; }
    for (i = 0; i < 24; i++) {
        struct link *n = (struct link *) malloc(sizeof(struct link));
        n->v = i;
        n->next = ring;
        ring = n;
    }
    for (r = 0; r < 8; r++) {
        struct link *p = ring;
        for (i = 0; i < 512; i++) {
            c[i] = a[i] + b[i];
            d[i] = a[i] - b[i];
            s += c[i] ^ d[i];
            /* pointer chasing interleaved with the streams: in
               hardware-only mode these loads pollute the table */
            if (p) { s += p->v; p = p->next; }
        }
    }
    print_int(s & 16777215);
    return 0;
}
"""


def walk_state_machine() -> None:
    print("Figure 3 state machine on the address stream "
          "100, 104, 108, 112, 200, 204, 208:")
    entry = TableEntry(tag=0, ca=100)
    print(f"  allocate(100)    -> PA={entry.pa} ST={entry.st} "
          f"STC={entry.stc} (functioning)")
    for ca in (104, 108, 112, 200, 204, 208):
        predicted = entry.predict()
        verdict = "hit " if predicted == ca else "miss"
        entry.update(ca)
        state = "functioning" if entry.state == FUNCTIONING else "learning"
        shown = predicted if predicted is not None else "--"
        print(f"  access {ca}: predicted {str(shown):>6s} [{verdict}]  "
              f"-> PA={entry.pa} ST={entry.st} STC={entry.stc} ({state})")
    print()


def sweep_table_sizes() -> None:
    result = compile_source(SOURCE)
    trace = Executor(result.program).run().trace
    print("table-size sweep on a 4-stream strided kernel "
          "(compiler vs hardware allocation):")
    print(f"  {'entries':>8s} {'hw-only':>9s} {'compiler':>9s}")
    for entries in (4, 8, 32, 128):
        hw, _, _ = speedup(
            trace, EarlyGenConfig(entries, 0, SelectionMode.HARDWARE)
        )
        cc, _, _ = speedup(
            trace, EarlyGenConfig(entries, 0, SelectionMode.COMPILER)
        )
        print(f"  {entries:8d} {hw:8.3f}x {cc:8.3f}x")
    print()
    print("with compiler support only the ld_p loads compete for table")
    print("entries, so the smallest tables degrade more gracefully; once")
    print("the table has slack, hardware-only allocation catches up by")
    print("also predicting loads outside the PD class.")


def main() -> None:
    walk_state_machine()
    sweep_table_sizes()


if __name__ == "__main__":
    main()
