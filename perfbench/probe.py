"""Host-speed probe: how fast this CPU runs Python code, moment by moment.

Run as ``python3 perfbench/probe.py LOG``.  The benchmark starts it on the
CPU that its passes are pinned to and stops it when they end.  Every
``PERIOD_S`` it runs a fixed pure-Python kernel and appends one line to
LOG: the kernel's start on the ``time.perf_counter`` clock (shared by all
processes of the machine) and the CPU time the kernel took.

On a shared host the same work takes from one to about two times as long,
in spells of a few seconds (another tenant on the same physical core), so
the passes' wall times drift with the host, not with the program.  The
kernel's CPU time follows the same drift but not the program, and it
excludes the time the probe waits for the pass it shares the CPU with.
``run.py`` divides it into ``REF_KERNEL_S`` to get a speed factor over time
and scales each pass's wall time by it (see ``HostSpeed`` there).
"""

from __future__ import annotations

import sys
import time

#: Pause between kernels.  A kernel takes 2 to 5 ms, so the probe takes
#: 2 to 5 % of the CPU from the pass.
PERIOD_S = 0.1

#: CPU time of one kernel on an uncontended vCPU of a 2.1 GHz Xeon under
#: Python 3.11.7: the lowest decile of 500 kernels run beside ``planted``
#: passes (the median was 0.0038 s).  Scaled times are seconds at that
#: speed.
REF_KERNEL_S = 0.00225

_WORDS = (
    "fhdjabcgie", "aiebjcdgfhhij", "cgdeaafbijhgfe", "jbbhfeacgd",
    "edcbaghijffa", "hjgiabedcfcbaed", "bafgjhiedcab", "gcijdfebhha",
    "iabcdeeffgghhij", "djfhgbaiec", "bbcaddjefhgi", "fegdcbahijjihg",
)


def _levenshtein(a: str, b: str) -> int:
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, 1):
        cur = [i]
        for j, cb in enumerate(b, 1):
            cur.append(min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (ca != cb)))
        prev = cur
    return prev[-1]


def kernel() -> int:
    """The fixed work timed by each sample."""
    total = 0
    for _ in range(4):
        for i, a in enumerate(_WORDS):
            total += _levenshtein(a, _WORDS[(i * 7 + 3) % len(_WORDS)])
    return total


def main(log_path: str) -> int:
    with open(log_path, "w", encoding="utf-8") as log:
        while True:
            start = time.perf_counter()
            cpu = time.thread_time()
            kernel()
            cpu = time.thread_time() - cpu
            log.write(f"{start!r} {cpu!r}\n")
            log.flush()
            time.sleep(PERIOD_S)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
