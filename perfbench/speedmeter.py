"""Speed of the CPU a pass runs on, sampled while the pass runs.

On a shared VM each vCPU moves between speed states every few seconds, as
neighbours load the host: the same work can take 2.4 times as long from one
second to the next, and the share of slow seconds differs from run to run.
So the meter samples the speed all through the pass: on every SIGPROF tick
(every INTERVAL_S of CPU time) it times a fixed interpreted loop.

A stretch of CPU time T whose ticks read kernel times s_i did the work of
T * mean(REF_S / s_i) CPU seconds at the reference speed, since the ticks
fall uniformly in CPU time.  The kernel is not part of the program, so a
program change still moves that figure by its own share.

Times are per-thread CPU time: while a process-wide CPU timer is armed,
Linux may advance the process CPU clock only on scheduler ticks.
"""

import signal
import time

INTERVAL_S = 0.02
KERNEL_LOOPS = 2000
# kernel time at the reference speed (2-vCPU Intel Xeon VM, Python 3.11)
REF_S = 2.0e-4


class SpeedMeter:
    def __init__(self):
        self.samples = []       # kernel CPU seconds, one per tick
        self.overhead_s = 0.0   # CPU seconds spent in the handler

    def _tick(self, signum, frame):
        t0 = time.thread_time()
        total = 0
        for i in range(KERNEL_LOOPS):
            total += i * i % 7
        t1 = time.thread_time()
        self.samples.append(t1 - t0)
        self.overhead_s += time.thread_time() - t0

    def start(self):
        signal.signal(signal.SIGPROF, self._tick)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
        signal.signal(signal.SIGPROF, signal.SIG_IGN)

    def mark(self) -> tuple:
        """(thread CPU time without the handler's, samples so far)."""
        return time.thread_time() - self.overhead_s, len(self.samples)

