"""Pseudo-spectral time integration of the rotating 2D vorticity equation.

The dispersive term is applied exactly by the integrating factor
E(s) = propagator.free_flow(beta s), so classical RK4 only sees the transport
nonlinearity. run carries the vorticity in the Lawson form (Lawson, SIAM J.
Numer. Anal. 4 (1967) 372), with E(dt/2) and E(dt) cached per grid, beta and
dt, so a step computes no exp; step keeps the profile fhat(t) = E(-t) what(t)
and adds the same increment, rotated back. Products are formed in physical
space with 2/3-rule dealiasing; the velocity is recovered spectrally.

RK4 runs on the block of the half spectrum that the 2/3 rule keeps, the
kc = n//3 + 1 columns 0 .. n//3, with transforms pruned to it (Orszag,
J. Atmos. Sci. 28 (1971) 1074). A pruned inverse is a complex ifft down the
kc columns, then an irfft along the rows, which reads the columns kc .. n/2
as zeros; a pruned forward is an rfft along the rows, then a complex fft down
the kc columns. For a divergence-free u in 2D,
    u.grad omega = d1 d2 (u2^2 - u1^2) + (d1^2 - d2^2)(u1 u2)
(Basdevant, J. Comput. Phys. 50 (1983) 209), so a stage takes two inverse and
two forward transforms. The CFL check reads stage 1's velocity samples, the
dealiased velocity, so no step transforms the whole half spectrum.

run steps in one _Workspace, made once per run: the transforms write through
out=, the stage sums through in-place ufuncs, and every ufunc operand is a
contiguous block (numpy copies a strided or broadcast one into a fresh
buffer), so a step allocates no array and its time does not hang on the
heap's page faults. Each complex product is
written in the order of its formula (E(dt/2) first in E(dt/2)(w + dt/2 k1)):
a SIMD complex multiply can round a*b and b*a differently in the last bit, so
a fixed operand order keeps the step's bits independent of how numpy would
have evaluated the expression.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .spectral import (
    ConfigurationError,
    Grid2D,
    GridOperators,
    InputError,
    RealField2D,
    SpectralField2D,
    besov_norm,
    fhat_sup_weighted,
    grid_operators,
    l2_norm,
    linf_norm,
    mass_inside,
    read_field,
    real_samples,
    require_mean_zero,
    shell_field,
    sobolev_norm,
    transform_forward,
    transform_inverse,
    weighted_profile_norm,
    write_field,
    zero_mean,
)
from .propagator import apply_semigroup, free_flow


class StabilityError(RuntimeError):
    """Advective CFL bound violated; carries a suggested time step."""

    def __init__(self, message, suggested_dt):
        super().__init__(message)
        self.suggested_dt = suggested_dt


_INITS = ("gaussian", "shell", "pair", "file")


@dataclass
class SimConfig:
    n: int = 128
    box_length: float = 50.0
    beta: float = 1.0
    dt: float = 0.02
    t_end: float = 10.0
    k_energy: int = 4
    output_stride: int = 50
    init: str = "gaussian"
    eps: float = 0.1
    init_width: float = 0.0       # 0 -> box_length / 16
    init_file: str | None = None
    nonlinear: bool = True

    def __post_init__(self):
        if not 0 < self.dt < np.inf:
            raise ConfigurationError("dt must be positive and finite")
        if not 0 <= self.t_end < np.inf:
            raise ConfigurationError("t_end must be >= 0 and finite")
        if not np.all(np.isfinite([self.beta, self.eps])):
            raise ConfigurationError("beta and eps must be finite")
        # initial_vorticity divides r^2, L^2/2 at the box corner, by 2 init_width^2
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            two_a2 = 2.0 * np.float64(self.init_width) ** 2
            corner = np.float64(self.box_length) ** 2 / 2.0 / two_a2
        if not (self.init_width == 0 or self.init_width > 0 and 0 < two_a2 < np.inf
                and corner < np.inf):
            raise ConfigurationError(
                "init_width must be 0 (-> L/16), or > 0 with 2 init_width^2 finite and "
                "nonzero and (L^2/2)/(2 init_width^2) finite")
        if self.output_stride < 1:
            raise ConfigurationError("output_stride must be >= 1")
        if self.init not in _INITS:
            raise ConfigurationError(
                f"unknown init {self.init!r}; known: {', '.join(_INITS)}")
        # past 2^53 float64 cannot tell whether t_end is a whole number of steps
        steps = self.t_end / self.dt
        if not steps < 2.0 ** 53:
            raise ConfigurationError(f"t_end/dt={steps!r} must be below 2^53")
        if abs(steps - self.n_steps) > 1e-9 * steps:
            raise ConfigurationError(
                f"t_end={self.t_end} is not a whole number of steps of dt={self.dt}")

    @property
    def n_steps(self) -> int:
        return int(round(self.t_end / self.dt))

    @property
    def grid(self) -> Grid2D:
        return Grid2D(self.n, self.box_length)


@dataclass
class Profile:
    """A spectral field interpreted as the free-flow-unwound profile at time t."""

    field: SpectralField2D
    t: float


@dataclass
class SimState:
    t: float
    profile: Profile


@dataclass
class RunResult:
    config: SimConfig
    reports: list[NormReport]
    checkpoints: list          # (t, Profile) pairs, one per report
    abort_reason: str = ""     # empty unless the run aborted

    @property
    def aborted(self) -> bool:
        return bool(self.abort_reason)


def _boolean(text: str) -> bool:
    """true/yes/1 or false/no/0, in any case; ValueError for any other word."""
    if text.lower() not in ("true", "yes", "1", "false", "no", "0"):
        raise ValueError(f"expected true/false, yes/no or 1/0, got {text!r}")
    return text.lower() in ("true", "yes", "1")


CONFIG_KEYS = {
    "n": int, "L": float, "beta": float, "dt": float, "t_end": float,
    "k_energy": int, "output_stride": int, "init": str, "eps": float,
    "init_width": float, "init_file": str, "nonlinear": _boolean,
}

_KEY_TO_FIELD = {"L": "box_length"}


def parse_config(text: str) -> SimConfig:
    """Flat key=value config (e.g. n=256, L=100.0, beta=1.0, ...)."""
    kwargs = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigurationError(f"line {lineno}: expected key=value, got {raw!r}")
        key, value = (s.strip() for s in line.split("=", 1))
        if key not in CONFIG_KEYS:
            raise ConfigurationError(f"line {lineno}: unknown key {key!r}")
        try:
            kwargs[_KEY_TO_FIELD.get(key, key)] = CONFIG_KEYS[key](value)
        except ValueError as exc:
            raise ConfigurationError(f"line {lineno}: bad value for {key}: {exc}") from exc
    return SimConfig(**kwargs)


def format_config(cfg: SimConfig) -> str:
    """The config text that parse_config reads back as cfg: one key=value
    line per key, floats in repr; init_file only when it is set."""
    lines = []
    for key, kind in CONFIG_KEYS.items():
        value = getattr(cfg, _KEY_TO_FIELD.get(key, key))
        if value is not None:
            lines.append(f"{key}={float(value)!r}" if kind is float else f"{key}={value}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# velocity recovery

def _velocity_modes(w: np.ndarray, ops: GridOperators):
    """(u1hat, u2hat) = (i xi2, -i xi1) what/|xi|^2, so that curl u = omega
    off the Nyquist row."""
    a = w * ops.inv_mag2
    return 1j * ops.k2 * a, -1j * ops.k1 * a


def biot_savart(omega: SpectralField2D):
    """Divergence-free velocity (u1hat, u2hat) with curl u = omega."""
    require_mean_zero(omega)
    u1, u2 = _velocity_modes(omega.modes, grid_operators(omega.grid))
    return SpectralField2D(omega.grid, u1), SpectralField2D(omega.grid, u2)


# ---------------------------------------------------------------------------
# nonlinearity
#
# Physical samples on the block are unscaled: transform_inverse would multiply
# them by inverse_scale, and the forward transform of a product of two of them
# needs that factor exactly once.

@dataclass(frozen=True)
class _BlockOperators:
    """Multipliers on the kept block of the half spectrum, all read-only and
    zero on the rows that the 2/3 rule drops. They are stored complex, so a
    product with modes casts no operand through a buffer."""

    kc: int                  # kept columns, n//3 + 1: those of dealias_mask
    velocity: np.ndarray     # (2, n, kc): Biot-Savart (u1hat, u2hat) per unit what
    basdevant: np.ndarray    # (2, n, kc): inverse_scale (xi1 xi2, xi1^2 - xi2^2)


@functools.lru_cache(maxsize=4)
def _block_operators(grid: Grid2D) -> _BlockOperators:
    ops = grid_operators(grid)
    kc = int(ops.dealias_mask[0].sum())
    mask = ops.dealias_mask.astype(float)
    k1, k2 = ops.k1, ops.k2
    blk = _BlockOperators(
        kc=kc,
        velocity=np.stack(_velocity_modes(mask, ops))[..., :kc].copy(),
        basdevant=(ops.inverse_scale * mask
                   * np.stack((k1 * k2, k1 ** 2 - k2 ** 2)))[..., :kc].astype(complex))
    blk.velocity.flags.writeable = False
    blk.basdevant.flags.writeable = False
    return blk


@dataclass(frozen=True)
class _Workspace:
    """The buffers of one Lawson RK4 step on the kept block; each step
    writes into them, so it allocates nothing."""

    w: np.ndarray            # (n, kc): the block of the step's vorticity, contiguous
    spec: np.ndarray         # (2, n, kc): velocity modes, then the Basdevant pair
    u: np.ndarray            # (2, n, n): unscaled velocity samples (u1, u2)
    prod: np.ndarray         # (2, n, n): the products (u2^2 - u1^2, u1 u2)
    rows: np.ndarray         # (2, n, n//2 + 1): the products' rfft along the rows
    k: np.ndarray            # (4, n, kc): the slopes k1 .. k4
    stage: np.ndarray        # (2, n, kc): the stage inputs and the increment's sums


def _workspace(grid: Grid2D) -> _Workspace:
    n, kc = grid.n, _block_operators(grid).kc
    return _Workspace(w=np.empty((n, kc), dtype=complex),
                      spec=np.empty((2, n, kc), dtype=complex), u=np.empty((2, n, n)),
                      prod=np.empty((2, n, n)), rows=np.empty((2, n, n // 2 + 1), dtype=complex),
                      k=np.empty((4, n, kc), dtype=complex),
                      stage=np.empty((2, n, kc), dtype=complex))


def _block_velocity(w: np.ndarray, blk: _BlockOperators, ws: _Workspace) -> np.ndarray:
    """Unscaled samples (u1, u2) of the velocity of the block vorticity modes
    `w`, by the pruned inverse, in ws.u."""
    for c in range(2):        # numpy would copy w, broadcast over c, into a fresh buffer
        np.multiply(blk.velocity[c], w, out=ws.spec[c])
    np.fft.ifft(ws.spec, axis=-2, out=ws.spec)
    return np.fft.irfft(ws.spec, n=w.shape[0], axis=-1, out=ws.u)


def _advection(u: np.ndarray, blk: _BlockOperators, ws: _Workspace,
               out: np.ndarray) -> np.ndarray:
    """Block coefficients of -u.grad omega, alias-free by the 2/3 rule, for
    the unscaled block velocity samples `u`, in `out`: in the Basdevant form,
    inverse_scale (xi1 xi2 Ahat + (xi1^2 - xi2^2) Bhat) with A = u2^2 - u1^2
    and B = u1 u2."""
    u1, u2 = u
    prod = ws.prod
    np.multiply(u2, u2, out=prod[0])
    np.multiply(u1, u1, out=prod[1])
    np.subtract(prod[0], prod[1], out=prod[0])
    np.multiply(u1, u2, out=prod[1])
    np.fft.rfft(prod, axis=-1, out=ws.rows)
    a, b = np.fft.fft(ws.rows[..., :blk.kc], axis=-2, out=ws.spec)
    np.multiply(blk.basdevant[0], a, out=out)
    np.multiply(blk.basdevant[1], b, out=a)
    return np.add(out, a, out=out)


def nonlinear_term(omega: SpectralField2D) -> SpectralField2D:
    """Spectral coefficients of -u.grad omega, alias-free by the 2/3 rule."""
    require_mean_zero(omega)
    g = omega.grid
    blk = _block_operators(g)
    ws = _workspace(g)
    out = np.zeros(g.half_shape, dtype=complex)
    _advection(_block_velocity(omega.modes[:, :blk.kc], blk, ws), blk, ws, out[:, :blk.kc])
    return SpectralField2D(g, out)


# ---------------------------------------------------------------------------
# time stepping

def omega_from_profile(profile: Profile, beta: float) -> SpectralField2D:
    """The vorticity at profile.t: the free flow run forward by beta t."""
    return apply_semigroup(profile.field, beta * profile.t)


def profile_from_omega(omega: SpectralField2D, t: float, beta: float) -> Profile:
    """The profile of the vorticity omega at t: the free flow run back by beta t."""
    return Profile(apply_semigroup(omega, -(beta * t)), t)


def _step_flow(grid: Grid2D, beta: float, dt: float, s: float) -> np.ndarray:
    """E(s) = free_flow(beta s) at a time s of a step dt; a time that
    free_flow refuses is reported with the beta and dt that make it."""
    try:
        return free_flow(grid, beta * s)
    except ConfigurationError as exc:
        raise ConfigurationError(f"beta={beta!r} and dt={dt!r}: {exc}") from exc


@functools.lru_cache(maxsize=4)
def _phase_ratios(grid: Grid2D, beta: float, dt: float):
    """E(dt/2) and E(dt), E(s) = free_flow(beta s), the factors of the
    Lawson stages, on the kept block: a contiguous (2, n, kc) copy, since
    numpy copies a strided operand of a ufunc into a freshly allocated buffer."""
    kc = _block_operators(grid).kc
    block = np.stack([_step_flow(grid, beta, dt, s)[:, :kc] for s in (0.5 * dt, dt)])
    block.flags.writeable = False
    return block


def _lawson_increment(w: np.ndarray, cfg: SimConfig, ws: _Workspace) -> np.ndarray:
    """The block increment D of one Lawson RK4 step of the vorticity modes w,
    whose result is E(dt) w + D on the block, with N(v) the _advection of
    _block_velocity(v):
        k1 = N(w),                    k2 = N(E(dt/2)(w + dt/2 k1)),
        k3 = N(E(dt/2) w + dt/2 k2),  k4 = N(E(dt) w + dt E(dt/2) k3),
        D = dt/6 (E(dt) k1 + 2 E(dt/2)(k2 + k3) + k4).
    Every stage is formed in the buffers of `ws`, from the block of w copied
    into ws.w, and D is returned in one of them. The stages keep the mean
    mode of w, since the Basdevant symbols vanish there. The advective bound
    reads stage 1's velocity samples, so its speed is the sup of the
    dealiased velocity of w: the modes that the 2/3 rule drops enter no
    stage. Raises StabilityError when dt violates it.
    """
    g, dt = cfg.grid, cfg.dt
    blk = _block_operators(g)
    e_half, e_one = _phase_ratios(g, cfg.beta, dt)
    np.copyto(ws.w, w[:, :blk.kc])
    w = ws.w
    k1, k2, k3, k4 = ws.k
    s, v = ws.stage

    def slope(stage_input, out):
        return _advection(_block_velocity(stage_input, blk, ws), blk, ws, out)

    u = _block_velocity(w, blk, ws)
    sq = ws.prod
    np.multiply(u[0], u[0], out=sq[0])
    np.multiply(u[1], u[1], out=sq[1])
    speed = grid_operators(g).inverse_scale * float(np.sqrt(np.add(*sq, out=sq[0]).max()))
    if speed > 0:
        bound = 0.5 * g.dx / speed
        if dt > bound:
            raise StabilityError(
                f"dt={dt} violates advective bound {bound:.3e}", suggested_dt=0.5 * bound)
    _advection(u, blk, ws, k1)
    np.multiply(0.5 * dt, k1, out=s)
    np.add(w, s, out=s)
    slope(np.multiply(e_half, s, out=v), k2)        # E(dt/2)(w + dt/2 k1)
    np.multiply(0.5 * dt, k2, out=s)
    np.multiply(e_half, w, out=v)
    slope(np.add(v, s, out=v), k3)                  # E(dt/2) w + dt/2 k2
    np.multiply(dt, e_half, out=s)
    np.multiply(s, k3, out=v)
    np.multiply(e_one, w, out=s)
    slope(np.add(s, v, out=v), k4)                  # E(dt) w + (dt E(dt/2)) k3
    np.add(k2, k3, out=k2)
    np.multiply(2.0, e_half, out=s)
    np.multiply(s, k2, out=v)
    np.multiply(e_one, k1, out=s)
    np.add(s, v, out=s)
    np.add(s, k4, out=s)
    return np.multiply(dt / 6.0, s, out=v)


def step(state: SimState, cfg: SimConfig) -> SimState:
    """One RK4 step on the profile modes: the Lawson increment of the
    vorticity E(t) f, rotated back to the profile at t + dt, is added to the
    block columns; every other mode of the profile stays as it was."""
    g = cfg.grid
    f0 = state.profile.field.modes
    fnew = f0.copy()
    require_mean_zero(state.profile.field)
    if cfg.nonlinear:
        p0 = free_flow(g, cfg.beta * state.t)
        kc = _block_operators(g).kc
        p1 = p0[:, :kc] * _phase_ratios(g, cfg.beta, cfg.dt)[1]
        fnew[:, :kc] += np.conj(p1) * _lawson_increment(f0 * p0, cfg, _workspace(g))
    fnew[0, 0] = 0.0
    t = state.t + cfg.dt
    return SimState(t=t, profile=Profile(SpectralField2D(g, fnew), t))


# ---------------------------------------------------------------------------
# initial data

def initial_vorticity(cfg: SimConfig) -> SpectralField2D:
    """The initial modes; refuses an eps for which they are not finite in float64."""
    g = cfg.grid
    if cfg.init == "file":
        if not cfg.init_file:
            raise ConfigurationError("init=file requires init_file")
        return read_vorticity(cfg.init_file, g)
    x = g.x_coords()
    X, Y = np.meshgrid(x, x, indexing="ij")
    a = cfg.init_width or cfg.box_length / 16.0
    with np.errstate(over="ignore", invalid="ignore"):
        if cfg.init == "shell":
            omega = SpectralField2D(g, cfg.eps * shell_field(g).modes)
        else:
            if cfg.init == "gaussian":
                r2 = (X ** 2 + Y ** 2) / (2.0 * a ** 2)
                # mean-zero radial vortex (second radial moment of a Gaussian)
                samples = cfg.eps * (1.0 - r2) * np.exp(-r2)
            else:             # "pair"
                d = 2.0 * a
                rp = ((X - d) ** 2 + Y ** 2) / (2.0 * a ** 2)
                rm = ((X + d) ** 2 + Y ** 2) / (2.0 * a ** 2)
                samples = cfg.eps * (np.exp(-rp) - np.exp(-rm))
            omega = zero_mean(transform_forward(RealField2D(g, samples)))
    if not np.all(np.isfinite(omega.modes)):
        raise ConfigurationError(f"eps={cfg.eps!r}: initial modes not finite in float64")
    return omega


def read_vorticity(path, grid: Grid2D) -> SpectralField2D:
    """The mean-free vorticity modes of the field file at path: refuses a field
    on another grid (ConfigurationError), with a sample, mode or L2 norm that
    is not finite in float64 (InputError), or with a mean (require_mean_zero)."""
    fld = read_field(path)
    if fld.grid != grid:
        raise ConfigurationError(f"{path}: field grid (n={fld.grid.n}, L={fld.grid.box_length!r})"
                                 f" differs from the run's (n={grid.n}, L={grid.box_length!r})")
    with np.errstate(over="ignore", invalid="ignore"):
        omega = transform_forward(fld)
        finite = np.all(np.isfinite(omega.modes)) and np.isfinite(l2_norm(omega))
    if not finite:
        raise InputError(f"{path}: field samples not finite, or their modes or L2 norm "
                         "overflow float64")
    require_mean_zero(omega)
    return zero_mean(omega)


# ---------------------------------------------------------------------------
# diagnostics per output and the run driver

# Column order is fixed for CSV export.
NORM_REPORT_COLUMNS = (
    "t", "l2", "hk", "linf_omega", "linf_u", "linf_u2", "linf_du",
    "besov311", "weighted2", "weighted3", "fhat_sup2",
)


@dataclass
class NormReport:
    t: float
    l2: float
    hk: float
    linf_omega: float
    linf_u: float
    linf_u2: float
    linf_du: float
    besov311: float
    weighted2: float
    weighted3: float
    fhat_sup2: float
    warning: str = ""            # the boundary warning, if any

    def __post_init__(self):
        if not np.all(np.isfinite(self.row())):
            raise ConfigurationError(f"norm report not finite at t={self.t}")

    def row(self) -> list[float]:
        return [getattr(self, c) for c in NORM_REPORT_COLUMNS]


def velocity_sup_norms(omega: SpectralField2D):
    """(|u|_Linf, |u2|_Linf, |Du|_Linf) with Du the max over the four entries
    of grad u; u2 is L1 omega, as u2hat = -i xi1 what/|xi|^2 is its symbol.

    div u = 0 and curl u = omega give d2 u2 = -d1 u1 and d1 u2 = omega + d2 u1,
    so three fields carry the four entries; the second identity also keeps
    the even xi1^2 of d1 u2 on the Nyquist row, where the odd factor k1 is 0.
    Each field takes one real inverse transform, one at a time."""
    g = omega.grid
    ops = grid_operators(g)
    u1, u2 = biot_savart(omega)
    d2u1 = 1j * ops.k2 * u1.modes
    du_sup = max(linf_norm(SpectralField2D(g, d))
                 for d in (1j * ops.k1 * u1.modes, d2u1, omega.modes + d2u1))
    s1, s2 = real_samples(u1), real_samples(u2)
    return float(np.sqrt((s1 ** 2 + s2 ** 2).max())), float(np.abs(s2).max()), du_sup


def make_report(state: SimState, cfg: SimConfig) -> NormReport:
    """The norm report of the state. Its norms are taken in float64 without
    overflow warnings; NormReport refuses a column that is not finite."""
    with np.errstate(over="ignore", invalid="ignore"):
        omega = omega_from_profile(state.profile, cfg.beta)
        u_sup, u2_sup, du_sup = velocity_sup_norms(omega)
        weighted2, weighted3, central = weighted_profile_norm(state.profile.field)
        return NormReport(
            t=state.t,
            l2=l2_norm(omega),
            hk=sobolev_norm(omega, cfg.k_energy),
            linf_omega=linf_norm(omega),
            linf_u=u_sup,
            linf_u2=u2_sup,
            linf_du=du_sup,
            besov311=besov_norm(omega),
            weighted2=weighted2,
            weighted3=weighted3,
            fhat_sup2=fhat_sup_weighted(state.profile.field),
            warning=f"boundary contamination: <99% mass in central half-box at "
                    f"t={state.t}" if central < 0.99 else "",
        )


def run(cfg: SimConfig, dump_path=None) -> RunResult:
    """Integrate to t_end, emitting a NormReport every output_stride steps.

    A step is w <- E(dt) w plus the Lawson increment on the block of the
    vorticity modes w, formed in one workspace and written into a second
    half-spectrum buffer, which then swaps with w; the profile is formed at
    reports only. Aborts cleanly when |omega|_Linf exceeds 1000x its initial
    value; on NaN the last good vorticity is dumped to dump_path (when given)
    and the run is marked aborted.
    """
    g = cfg.grid
    kc = _block_operators(g).kc
    e_one = _step_flow(g, cfg.beta, cfg.dt, cfg.dt)
    ws = _workspace(g)
    w = initial_vorticity(cfg).modes
    w_next = np.empty_like(w)
    reports, checkpoints = [], []

    def record(t):
        prof = profile_from_omega(SpectralField2D(g, w), t, cfg.beta)
        checkpoints.append((t, prof))
        reports.append(make_report(SimState(t, prof), cfg))
        return reports[-1].linf_omega

    linf0 = record(0.0)
    reason = ""
    for i in range(1, cfg.n_steps + 1):
        np.multiply(e_one, w, out=w_next)
        try:
            if cfg.nonlinear:
                inc = _lawson_increment(w, cfg, ws)
                # summed in the contiguous ws.w: numpy would copy the strided
                # block of w_next into a fresh buffer
                np.copyto(ws.w, w_next[:, :kc])
                w_next[:, :kc] = np.add(ws.w, inc, out=ws.w)
        except StabilityError as exc:
            reason = f"stability: {exc} (try dt={exc.suggested_dt:.3e})"
            break
        if not np.all(np.isfinite(w_next)):
            if dump_path is not None:
                write_field(dump_path, transform_inverse(SpectralField2D(g, w)))
            reason = f"NaN at step {i}"
            break
        w, w_next = w_next, w
        if i % cfg.output_stride == 0 or i == cfg.n_steps:
            t = i * cfg.dt            # whole steps, not a running sum of dt
            if record(t) > 1e3 * linf0 and linf0 > 0:
                reason = f"blow-up guard at t={t}"
                break
    return RunResult(cfg, reports, checkpoints, reason)


# ---------------------------------------------------------------------------
# scaling symmetry

def scaling_transform(omega: RealField2D, lam: float) -> RealField2D:
    """lambda^-1 omega(lambda x) for a whole number lambda >= 1: the point
    lambda x_j is the grid point lambda (j - n/2) + n/2 (mod n), so the
    samples are gathered exactly."""
    if not (lam >= 1 and float(lam).is_integer()):
        raise ValueError(f"lambda must be a whole number >= 1, got {lam}")
    g = omega.grid
    # reading omega on lambda*box: require the mass to live inside box/lambda
    if mass_inside(omega.samples, g.x_coords(), g.box_length / (2.0 * lam)) < 0.99:
        raise ValueError("rescaled support does not fit the box")
    idx = (int(lam) * (np.arange(g.n) - g.n // 2) + g.n // 2) % g.n
    return RealField2D(g, omega.samples[np.ix_(idx, idx)] / lam)
