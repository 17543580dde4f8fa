"""The benchmark's three workloads: simulate, diagnose and probes.

Each workload is a closed loop with one client: the runner calls ``job()``
again only after the previous call has returned, and nothing runs beside it.
``setup()`` builds every input from the seed, so bplab receives only inputs
generated here. The work one job does (steps, checkpoints, samples) is the
same for every seed; only the data differ.

A workload object has:

- ``setup()``: generate the inputs; the runner repeats it to time set-up.
- ``job()``: the timed region; returns the job's output.
- ``check(output)``: untimed correctness checks, a list of (name, passed).
- ``work``: units of work per job, with ``work_unit`` naming the unit.
- ``layer_metrics(output)``: per-layer numbers taken from the output itself.
"""

from __future__ import annotations

import os

import numpy as np

from bplab import acceptance, diagnostics, solver, spectral

SIM_N = 128
DIAG_N = 256
BOX = 50.0
BETA = 1.0
DT = 0.05
VORTICES = 4


def vortex_field(seed: int, n: int) -> spectral.RealField2D:
    """Seeded, small-amplitude, mean-zero sum of Gaussian vortices.

    Each vortex has the profile amp (1 - r^2) exp(-r^2), r = |x - c| / (a sqrt 2),
    whose integral vanishes, and sits at least 4a inside the central half-box,
    so the field is mean-zero to rounding and the profile norms see no
    boundary contamination. Amplitudes of at most 0.1 keep the advective speed
    far below the CFL bound at dt = 0.05 for every seed.
    """
    rng = np.random.default_rng(seed)
    grid = spectral.Grid2D(n, BOX)
    x = grid.x_coords()
    samples = np.zeros((n, n))
    for _ in range(VORTICES):
        a = rng.uniform(1.25, 2.0)
        reach = BOX / 4.0 - 4.0 * a
        cx, cy = rng.uniform(-reach, reach, 2)
        amp = rng.choice((-1.0, 1.0)) * rng.uniform(0.05, 0.1)
        r2 = ((x[:, None] - cx) ** 2 + (x[None, :] - cy) ** 2) / (2.0 * a * a)
        samples += amp * (1.0 - r2) * np.exp(-r2)
    samples -= samples.mean()
    return spectral.RealField2D(grid, samples)


def _rel_close(got, want, tol):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    return bool(np.all(np.abs(got - want) <= tol * np.maximum(np.abs(want), 1e-300)))


class Simulate:
    """solver.run at n=128, L=50, beta=1, dt=0.05 for 300 steps, a report
    every 20 steps, from a seeded BPF1 initial field (init=file)."""

    name = "simulate"
    work_unit = "steps"

    def __init__(self, seed: int, workdir: str, steps: int = 300, stride: int = 20):
        self.seed, self.workdir = seed, workdir
        self.work, self.stride = steps, stride
        self.cfg = None

    def setup(self):
        path = os.path.join(self.workdir, "init.bpf")
        spectral.write_field(path, vortex_field(self.seed, SIM_N))
        self.cfg = solver.SimConfig(n=SIM_N, box_length=BOX, beta=BETA, dt=DT,
                                    t_end=self.work * DT, output_stride=self.stride,
                                    init="file", init_file=path)
        # one warm-up step so lazy one-time work is not inside the first job
        w0 = solver.initial_vorticity(self.cfg)
        solver.step(solver.SimState(0.0, solver.profile_from_omega(w0, 0.0, BETA)),
                    self.cfg)

    def job(self):
        return solver.run(self.cfg)

    def check(self, res):
        rows = np.array([r.row() for r in res.reports])
        finite = bool(np.all(np.isfinite(rows))) and bool(
            np.all(np.isfinite(res.checkpoints[-1][1].field.modes)))
        l2 = np.array([r.l2 for r in res.reports])
        drift = float((l2.max() - l2.min()) / l2[0]) if finite else np.inf
        return [
            ("no_abort", not res.aborted),
            ("report_count", len(res.reports) == 1 + self.work // self.stride),
            ("finite", finite),
            ("l2_drift_le_1e-8", drift <= 1e-8),
        ]

    def layer_metrics(self, res):
        return {}


class Diagnose:
    """The simulate -> diagnose handoff at n=256: BPF1 write and read of 32
    checkpoints, profile rebuild, make_report on each, and the three
    diagnostics over the rebuilt run."""

    name = "diagnose"
    work_unit = "reports"
    K_ENERGY = 4

    def __init__(self, seed: int, workdir: str, checkpoints: int = 32):
        self.seed, self.workdir = seed, workdir
        self.work = checkpoints
        self.cfg = None
        self.trajectory = []
        self._reference = None

    def setup(self):
        self.cfg = solver.SimConfig(n=DIAG_N, box_length=BOX, beta=BETA, dt=DT,
                                    t_end=(self.work - 1) * DT, output_stride=1,
                                    k_energy=self.K_ENERGY)
        w0 = spectral.zero_mean(spectral.transform_forward(vortex_field(self.seed, DIAG_N)))
        state = solver.SimState(0.0, solver.profile_from_omega(w0, 0.0, BETA))
        self.trajectory = [(state.t, state.profile)]
        for _ in range(self.work - 1):
            state = solver.step(state, self.cfg)
            self.trajectory.append((state.t, state.profile))
        self._reference = None

    def _path(self, i):
        return os.path.join(self.workdir, f"chk_{i:03d}.bpf")

    def job(self):
        for i, (_, prof) in enumerate(self.trajectory):
            omega = solver.omega_from_profile(prof, BETA)
            spectral.write_field(self._path(i), spectral.transform_inverse(omega))
        checkpoints = []
        for i, (t, _) in enumerate(self.trajectory):
            omega = spectral.zero_mean(spectral.transform_forward(
                spectral.read_field(self._path(i))))
            checkpoints.append((t, solver.profile_from_omega(omega, t, BETA)))
        reports = [solver.make_report(solver.SimState(t, prof), self.cfg)
                   for t, prof in checkpoints]
        run = solver.RunResult(self.cfg, reports, checkpoints)
        return (reports,
                diagnostics.energy_certificate(run, self.K_ENERGY),
                diagnostics.linfty_transport_check(run),
                diagnostics.weighted_norm_series(run))

    def check(self, output):
        reports, cert, transport, series = output
        if self._reference is None:
            self._reference = [solver.make_report(solver.SimState(t, prof), self.cfg).row()
                               for t, prof in self.trajectory]
        return [
            ("report_count", len(reports) == self.work and len(series) == self.work),
            ("reports_match_in_memory_1e-12",
             _rel_close([r.row() for r in reports], self._reference, 1e-12)),
            ("energy_certificate_valid", bool(cert.valid)),
            ("transport_ok", bool(transport.ok)),
        ]

    def layer_metrics(self, output):
        return {}


class Probes:
    """acceptance.run_all(seed, only={1, 2, 6, 7, 8, 11}): the analytic half."""

    name = "probes"
    work_unit = "criteria"
    CRITERIA = (1, 2, 6, 7, 8, 11)

    def __init__(self, seed: int, workdir: str, criteria=CRITERIA):
        self.seed, self.criteria = seed, tuple(criteria)
        self.work = len(self.criteria)

    def setup(self):
        # the seed itself is the only input run_all takes
        pass

    def job(self):
        return acceptance.run_all(self.seed, only=set(self.criteria))

    def check(self, results):
        ran = sorted(r.index for r in results)
        return [("criteria_ran", ran == sorted(self.criteria))] + [
            (f"criterion_{r.index}", r.passed) for r in results]

    def layer_metrics(self, results):
        return {f"acceptance.criterion_{r.index}.s": r.elapsed for r in results}


WORKLOADS = {w.name: w for w in (Simulate, Diagnose, Probes)}
