"""Machine-speed calibration for timings taken on a shared machine.

The speed of a core on a shared machine drifts by 20-40 % within seconds
(one fixed 40 ms integrate call: 1-second medians from 34 to 61 ms on a
2-core box), far more than the effects the benchmark must resolve.  So a
fixed pure-Python kernel that does not touch the program runs in a burst
after every timed step, for CAL_DUTY of that step's time, on as many cores
as the step used.  The step's time is reported at a reference speed:
measured time * CAL_REFERENCE_S / mean kernel time of the bursts just
before and after it.

A cold interpreter start spends most of its time starting the interpreter
and loading numpy's libraries, which drift from one minute to the next
(medians of 15 starts from 0.19 to 0.30 s) while that kernel's speed does
not follow.  Neither part runs the program's code, so a start is reported
as START_REFERENCE_S for them plus the program's own import, calibrated by
the kernel like a timed step.
"""

import json
import math
import statistics
import subprocess
import sys
import time

CAL_ITERATIONS = 20_000
CAL_REFERENCE_S = 0.004  # kernel time at the reference speed
CAL_DUTY = 0.15
START_REFERENCE_S = 0.1  # interpreter start and numpy import at the reference speed


def _kernel() -> int:
    acc = 0.0
    text = []
    for i in range(CAL_ITERATIONS):
        x = 1.0 + 0.5 * math.sin(i * 1e-3)
        acc += (1.0 / x) ** 4
        if not i & 15:
            text.append(repr(acc))
    return len(text)


def burst(budget_s: float) -> list[float]:
    """Kernel times of one burst: at least one kernel, and until budget_s is spent."""
    times = []
    end = time.perf_counter() + budget_s
    while True:
        t0 = time.perf_counter()
        _kernel()
        t1 = time.perf_counter()
        times.append(t1 - t0)
        if t1 >= end:
            return times


def serve() -> None:
    """Worker loop: one budget per line on stdin, one JSON list of kernel
    times per line on stdout, until an empty line or end of input."""
    for line in sys.stdin:
        if not line.strip():
            return
        print(json.dumps(burst(float(line))), flush=True)


class Calibrator:
    """Bursts on `cores` cores at once: in this process for one core, in
    as many worker interpreters otherwise.  The workers are plain child
    processes (this file run as a script) on pipes, not multiprocessing
    ones, so nothing else is started beside them (no resource tracker),
    and close() waits for each to end."""

    def __init__(self, cores: int = 1):
        self._workers: list[subprocess.Popen] = []
        try:
            for _ in range(cores if cores > 1 else 0):
                self._workers.append(subprocess.Popen(
                    [sys.executable, __file__], stdin=subprocess.PIPE,
                    stdout=subprocess.PIPE, text=True, bufsize=1))
            self._before = self.burst(0.0)
        except BaseException:
            self.close()
            raise

    def burst(self, budget_s: float) -> list[float]:
        if not self._workers:
            return burst(budget_s)
        for proc in self._workers:
            proc.stdin.write(f"{budget_s!r}\n")
            proc.stdin.flush()
        times = []
        for proc in self._workers:
            line = proc.stdout.readline()
            if not line:
                raise RuntimeError(f"calibration worker {proc.pid} ended early")
            times += json.loads(line)
        return times

    def scale_after(self, step_s: float) -> float:
        """Calibrate after a step that took step_s; return the factor from
        its measured time to the reference speed."""
        after = self.burst(CAL_DUTY * step_s)
        scale = CAL_REFERENCE_S / statistics.fmean(self._before + after)
        self._before = after
        return scale

    def close(self) -> None:
        for proc in self._workers:
            try:
                proc.stdin.close()  # end of input stops the worker
            except OSError:
                pass
        for proc in self._workers:
            try:
                proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        self._workers = []

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.close()


if __name__ == "__main__":
    serve()
