"""A fixed reference computation that measures how fast the machine runs.

On a shared host the same code runs up to ~1.7 times slower for minutes at
a time, when other tenants load the cores and caches.  The measuring worker
runs ``Reference.sample`` between the workload's operations, outside their
clocks.  run.py multiplies the run's times by the ratio of the reference's
nominal time to the mean time of its samples, so that they read in seconds
at nominal speed.  A change to heatlab cannot move the reference: it calls
no heatlab code.

The reference mixes the kinds of work heatlab does: interpreted Python,
sparse matrix-vector products, sparse LU solves and a dense symmetric
eigensolve, each taking a similar share of a sample.  Its arrays take
about 10 MB, which the measuring worker's peak_rss_mb includes.
"""

import time

# Wall and CPU seconds of one sample at the unloaded speed of a 2-vCPU Xeon
# KVM guest with one BLAS thread (the fastest samples seen over minutes).
# Scaled times read in seconds at that speed.
NOMINAL_WALL_S = 0.032
NOMINAL_CPU_S = 0.032

# Before each operation and after each pass, the worker samples until the
# samples have taken this share of the time since the reference was built.
SHARE = 0.2


class Reference:
    """The reference computation; its inputs are built, and each part run
    once, untimed."""

    def __init__(self):
        import numpy as np
        import scipy.sparse as sp
        import scipy.sparse.linalg as spla

        rng = np.random.default_rng(0)
        dense = rng.standard_normal((300, 300))
        self._dense = dense + dense.T

        def laplacian(m):
            line = sp.diags_array([-1.0, 2.5, -1.0], offsets=[-1, 0, 1], shape=(m, m))
            eye = sp.eye_array(m)
            return sp.kron(line, eye) + sp.kron(eye, line)

        self._laplacian = laplacian(150).tocsr()
        self._lu = spla.splu(laplacian(70).tocsc())
        self._x = np.ones(self._laplacian.shape[0])
        self._rhs = np.ones(70 * 70)
        self._eigvalsh = np.linalg.eigvalsh
        self._parts = (self._python, self._sparse, self._lu_solve, self._dense_eig)
        for part in self._parts:  # warm-up: lazy set-up in numpy and scipy
            part()
        self._started = time.perf_counter()
        self._busy = 0.0
        self.samples = []

    def _python(self):
        acc = {}
        for i in range(60_000):
            acc[i % 97] = acc.get(i % 97, 0.0) + (i % 7) * 0.5

    def _sparse(self):
        for _ in range(50):
            self._laplacian @ self._x

    def _lu_solve(self):
        for _ in range(16):
            self._lu.solve(self._rhs)

    def _dense_eig(self):
        for _ in range(2):
            self._eigvalsh(self._dense)

    def sample(self):
        """Run the reference once; record its wall and CPU seconds and the
        wall seconds of each part."""
        wall, cpu = time.perf_counter(), time.process_time()
        parts, mark = {}, wall
        for part in self._parts:
            part()
            now = time.perf_counter()
            parts[part.__name__.lstrip("_")] = now - mark
            mark = now
        sample = {"wall_s": mark - wall, "cpu_s": time.process_time() - cpu, "parts_s": parts}
        self.samples.append(sample)
        self._busy += sample["wall_s"]

    def sample_due(self):
        """Sample until the samples have taken their share of the time
        since the reference was built."""
        while self._busy < SHARE * (time.perf_counter() - self._started):
            self.sample()
