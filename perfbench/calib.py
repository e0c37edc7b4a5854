"""Machine-speed calibration for the timed metrics.

On the reference machine, a shared x86-64 VM with 2 vCPUs, speed changes
by 20-40% over tens of seconds, because of load outside the VM. A run of
15 seconds cannot average that out. So the benchmark runs a fixed
kernel between campaigns and scales its timings by how fast the kernel ran
at that time.

The kernel mixes interpreter work with small element-wise NumPy operations,
as the engine does. It runs in a separate process that makes no BLAS or
LAPACK calls. So BLAS worker threads of the benchmarked process, which
keep spinning for a while after each call, neither share its CPU time nor
slow it through the interpreter, and a later change to BLAS threading in the
program leaves it as it is. The kernel and the nominal times below are part
of the benchmark's definition. A change that claims a gain must not edit
them.

Run as a script, the module serves kernel timings: one line on standard
input asks for one pass, and it answers with "<wall_s> <cpu_s>".
"""

from __future__ import annotations

import subprocess
import sys
import time

# The kernel's wall and CPU time per pass on the reference machine (x86-64
# VM, 2 vCPUs at 2.1 GHz, Python 3.11, NumPy 2.4) in its fastest periods.
# They only fix the scale of the reported timings.
NOMINAL_WALL_S = 0.034
NOMINAL_CPU_S = 0.034


def kernel(passes: int = 400) -> float:
    import numpy as np

    x = np.random.default_rng(0).random((40, 3))
    acc = 0.0
    table: dict = {}
    for i in range(passes):
        diff = x[:, None, :] - x[None, :, :]
        k = np.exp(-0.5 * (diff * diff).sum(-1))
        acc += float(np.median(k[i % 40])) + float(np.sort(k.ravel())[-41])
        for j in range(40):
            table[(i, j)] = table.get((i - 1, j), 0.0) + j * 0.5
        if len(table) > 400:
            table.clear()
    return acc


class Speed:
    """Accumulated kernel timings; a factor > 1 means slower than the
    reference machine."""

    def __init__(self):
        self.runs = 0
        self.wall_s = 0.0
        self.cpu_s = 0.0

    @property
    def wall_factor(self) -> float:
        return self.wall_s / self.runs / NOMINAL_WALL_S

    @property
    def cpu_factor(self) -> float:
        return self.cpu_s / self.runs / NOMINAL_CPU_S


class Calibrator:
    """The kernel's server process; ``with Calibrator() as cal: ...``."""

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, __file__], stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, text=True,
        )

    def sample(self, speed: Speed) -> None:
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("calibration process ended")
        wall, cpu = (float(v) for v in line.split())
        speed.runs += 1
        speed.wall_s += wall
        speed.cpu_s += cpu

    def close(self) -> None:
        try:
            self.proc.stdin.close()
            self.proc.wait(timeout=30)
        finally:
            if self.proc.poll() is None:
                self.proc.kill()
                self.proc.wait()
            self.proc.stdout.close()

    def __enter__(self) -> "Calibrator":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def _serve() -> None:
    kernel()  # imports NumPy and warms caches before the first timing
    for _ in sys.stdin:
        t0 = time.perf_counter()
        c0 = time.process_time()
        kernel()
        wall = time.perf_counter() - t0
        cpu = time.process_time() - c0
        print(f"{wall!r} {cpu!r}", flush=True)


if __name__ == "__main__":
    _serve()
