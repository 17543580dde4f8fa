"""Pseudo-spectral time integration of the rotating 2D vorticity equation.

The evolved unknown is the profile fhat(t) = exp(i beta t xi1/|xi|^2) what(t),
so the linear dispersive term is applied exactly and classical RK4 only sees
the transport nonlinearity. Products are formed in physical space with
2/3-rule dealiasing; the velocity is recovered spectrally from the vorticity.
RK4 runs on the half spectrum with real transforms, using the per-grid
operators of spectral.grid_operators.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spectral import (
    ConfigurationError,
    Grid2D,
    GridOperators,
    InputError,
    NormReport,
    Profile,
    RealField2D,
    SpectralField2D,
    besov_norm,
    fhat_sup_weighted,
    grid_operators,
    l2_norm,
    linf_norm,
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
from .propagator import dispersion_symbol


class StabilityError(RuntimeError):
    """Advective CFL bound violated; carries a suggested time step."""

    def __init__(self, message, suggested_dt):
        super().__init__(message)
        self.suggested_dt = suggested_dt


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
    retain_checkpoints: bool = True

    def __post_init__(self):
        if self.dt <= 0:
            raise ConfigurationError("dt must be positive")
        if self.t_end < 0:
            raise ConfigurationError("t_end must be >= 0")
        if self.output_stride < 1:
            raise ConfigurationError("output_stride must be >= 1")

    @property
    def grid(self) -> Grid2D:
        return Grid2D(self.n, self.box_length)

    @property
    def width(self) -> float:
        return self.init_width if self.init_width > 0 else self.box_length / 16.0


@dataclass
class SimState:
    t: float
    profile: Profile
    step_count: int = 0


@dataclass
class RunResult:
    config: SimConfig
    reports: list
    checkpoints: list          # (t, Profile) pairs, when retained
    aborted: bool = False
    abort_reason: str = ""


CONFIG_KEYS = {
    "n": int, "L": float, "beta": float, "dt": float, "t_end": float,
    "k_energy": int, "output_stride": int, "init": str, "eps": float,
    "init_width": float, "init_file": str, "nonlinear": lambda s: s.lower() in ("1", "true", "yes"),
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


# ---------------------------------------------------------------------------
# velocity recovery

def _velocity_modes(w: np.ndarray, ops: GridOperators):
    """(u1hat, u2hat) = (i xi2, -i xi1) what/|xi|^2, so that curl u = omega.

    `w` holds the leading w.shape[1] columns of the spectrum: all n of them,
    or the n//2 + 1 of the half spectrum."""
    m = w.shape[1]
    a = w * ops.inv_mag2[:, :m]
    return 1j * ops.k2[:, :m] * a, -1j * ops.k1 * a


def biot_savart(omega: SpectralField2D):
    """Divergence-free velocity (u1hat, u2hat) with curl u = omega."""
    require_mean_zero(omega)
    u1, u2 = _velocity_modes(omega.modes, grid_operators(omega.grid))
    return SpectralField2D(omega.grid, u1), SpectralField2D(omega.grid, u2)


# ---------------------------------------------------------------------------
# nonlinearity
#
# The solver works on the half spectrum: the leading n//2 + 1 columns of the
# modes of a real field, which determine the rest by Hermitian symmetry.
# Inverse transforms of those columns are exact real samples, so products can
# be formed without the fftshifts of transform_inverse/transform_forward, as
# a pointwise product commutes with the shift.

def dealias_mask(grid: Grid2D) -> np.ndarray:
    return grid_operators(grid).dealias_mask


def dealias(f: SpectralField2D) -> SpectralField2D:
    return SpectralField2D(f.grid, f.modes * dealias_mask(f.grid))


def _hermitian_extension(half: np.ndarray, n: int) -> np.ndarray:
    """Full n x n modes of the real field whose half spectrum is `half`."""
    full = np.empty((n, n), dtype=complex)
    m = n // 2 + 1
    full[:, :m] = half
    full[:, m:] = np.conj(half[-np.arange(n) % n, m - 2:0:-1])
    return full


def _advection(w: np.ndarray, ops: GridOperators, extra=()):
    """Half-spectrum coefficients of -u.grad omega, alias-free by the 2/3 rule,
    for the half-spectrum vorticity modes `w`.

    The half-spectrum arrays in `extra` ride in the same batched inverse
    transform, and their physical samples are returned alongside. Samples
    are unscaled: transform_inverse would multiply them by ops.inverse_scale,
    and the forward transform of a product of two such samples needs that
    factor exactly once.
    """
    n, m = w.shape[0], w.shape[1]
    mask = ops.dealias_mask[:, :m]
    wd = w * mask
    u1, u2 = _velocity_modes(wd, ops)
    d1 = 1j * ops.k1 * wd
    d2 = 1j * ops.k2[:, :m] * wd
    phys = np.fft.irfft2(np.stack((u1, u2, d1, d2) + tuple(extra)), s=(n, n))
    advect = np.fft.rfft2(phys[0] * phys[2] + phys[1] * phys[3])
    advect *= mask
    advect *= -ops.inverse_scale
    return advect, phys[4:]


def nonlinear_term(omega: SpectralField2D) -> SpectralField2D:
    """Spectral coefficients of -u.grad omega, alias-free by the 2/3 rule."""
    require_mean_zero(omega)
    g = omega.grid
    half, _ = _advection(omega.modes[:, :g.n // 2 + 1], grid_operators(g))
    return SpectralField2D(g, _hermitian_extension(half, g.n))


def _sup_speed(u1h: SpectralField2D, u2h: SpectralField2D) -> float:
    u1, u2 = real_samples(u1h), real_samples(u2h)
    return float(np.sqrt((u1 ** 2 + u2 ** 2).max()))


def max_speed(omega: SpectralField2D) -> float:
    return _sup_speed(*biot_savart(omega))


# ---------------------------------------------------------------------------
# time stepping

def omega_from_profile(profile: Profile, beta: float) -> SpectralField2D:
    sym = dispersion_symbol(profile.field.grid)
    phase = np.exp(-1j * beta * profile.t * sym)
    return SpectralField2D(profile.field.grid, profile.field.modes * phase)


def profile_from_omega(omega: SpectralField2D, t: float, beta: float) -> Profile:
    sym = dispersion_symbol(omega.grid)
    phase = np.exp(+1j * beta * t * sym)
    return Profile(SpectralField2D(omega.grid, omega.modes * phase), t)


def _cfl_velocity(w: np.ndarray, w_row: np.ndarray, ops: GridOperators):
    """Half-spectrum velocity of the undealiased vorticity: half spectrum `w`,
    full Nyquist row `w_row`. Its sup is max_speed of the full vorticity.

    On row n/2, xi1 is its own lattice negation, so the real part that
    transform_inverse keeps pairs column j with column -j of the same row,
    which the half spectrum does not hold: u1 sees the Hermitian part of the
    row and u2 the anti-Hermitian part.
    """
    r = w.shape[0] // 2
    pair = np.conj(w_row[:r:-1])             # conj w(n/2, -j) for j = 1 .. n/2 - 1
    w_h, w_a = w.copy(), w.copy()
    w_h[r, 1:r] = 0.5 * (w_row[1:r] + pair)
    w_a[r, 1:r] = 0.5 * (w_row[1:r] - pair)
    return _velocity_modes(w_h, ops)[0], _velocity_modes(w_a, ops)[1]


def _stage_rhs(h: np.ndarray, phase: np.ndarray, ops: GridOperators, extra=()):
    """d/dt of the half-spectrum profile modes h at the time s where
    phase = exp(-i beta s xi1/|xi|^2); the samples of `extra` ride along."""
    w = h * phase
    require_mean_zero(w)
    nl, samples = _advection(w, ops, extra)
    return nl * np.conj(phase), samples


def _rk4_increment(f0: np.ndarray, t: float, cfg: SimConfig) -> np.ndarray:
    """dt/6 (k1 + 2 k2 + 2 k3 + k4) on the half spectrum of the profile f0.

    One phase per distinct stage time: k2 and k3 share t + dt/2. Raises
    StabilityError when dt violates the advective bound at time t.
    """
    g, dt = cfg.grid, cfg.dt
    r = g.n // 2
    ops = grid_operators(g)
    sym = ops.symbol[:, :r + 1]
    p0, p_half, p1 = (np.exp(-1j * cfg.beta * s * sym) for s in (t, t + 0.5 * dt, t + dt))
    h0 = f0[:, :r + 1]
    w_row = f0[r] * np.exp(-1j * cfg.beta * t * ops.symbol[r])
    k1, (v1, v2) = _stage_rhs(h0, p0, ops, _cfl_velocity(h0 * p0, w_row, ops))
    speed = float(np.sqrt(v1 ** 2 + v2 ** 2).max()) * ops.inverse_scale
    if speed > 0:
        bound = 0.5 * g.dx / speed
        if dt > bound:
            raise StabilityError(
                f"dt={dt} violates advective bound {bound:.3e}", suggested_dt=0.5 * bound)
    k2, _ = _stage_rhs(h0 + 0.5 * dt * k1, p_half, ops)
    k3, _ = _stage_rhs(h0 + 0.5 * dt * k2, p_half, ops)
    k4, _ = _stage_rhs(h0 + dt * k3, p1, ops)
    return dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def step(state: SimState, cfg: SimConfig) -> SimState:
    """One classical RK4 step on the profile modes.

    RK4 runs on the half spectrum. The Hermitian extension of its dealiased
    increment is added to the full profile, so the Nyquist row and column of
    the profile stay as they were.
    """
    g = cfg.grid
    f0 = state.profile.field.modes
    fnew = f0.copy()
    if cfg.nonlinear:
        fnew += _hermitian_extension(_rk4_increment(f0, state.t, cfg), g.n)
    fnew[0, 0] = 0.0
    t = state.t + cfg.dt
    return SimState(t=t, profile=Profile(SpectralField2D(g, fnew), t),
                    step_count=state.step_count + 1)


# ---------------------------------------------------------------------------
# initial data

def initial_vorticity(cfg: SimConfig) -> SpectralField2D:
    g = cfg.grid
    x = g.x_coords()
    X, Y = np.meshgrid(x, x, indexing="ij")
    a = cfg.width
    if cfg.init in ("gaussian", "gaussian-vortex"):
        r2 = (X ** 2 + Y ** 2) / (2.0 * a ** 2)
        # mean-zero radial vortex (second radial moment of a Gaussian)
        samples = cfg.eps * (1.0 - r2) * np.exp(-r2)
    elif cfg.init in ("shell", "shell-bump"):
        return SpectralField2D(g, cfg.eps * shell_field(g).modes)
    elif cfg.init in ("pair", "vortex-pair"):
        d = 2.0 * a
        rp = ((X - d) ** 2 + Y ** 2) / (2.0 * a ** 2)
        rm = ((X + d) ** 2 + Y ** 2) / (2.0 * a ** 2)
        samples = cfg.eps * (np.exp(-rp) - np.exp(-rm))
    elif cfg.init == "file":
        if not cfg.init_file:
            raise ConfigurationError("init=file requires init_file")
        fld = read_field(cfg.init_file)
        wh = transform_forward(fld)
        if abs(wh.mean_mode()) > 1e-10 * max(1.0, float(np.abs(wh.modes).max())):
            raise InputError("field file has nonzero mean vorticity")
        return zero_mean(wh)
    else:
        raise ConfigurationError(f"unknown init descriptor {cfg.init!r}")
    return zero_mean(transform_forward(RealField2D(g, samples)))


# ---------------------------------------------------------------------------
# diagnostics per output and the run driver

def linear_operator_field(omega: SpectralField2D, beta: float = 1.0) -> SpectralField2D:
    """beta L1 omega, with symbol -i beta xi1/|xi|^2."""
    sym = dispersion_symbol(omega.grid)
    return SpectralField2D(omega.grid, -1j * beta * sym * omega.modes)


def velocity_sup_norms(omega: SpectralField2D):
    """(|u|_Linf, |Du|_Linf) with Du the max over the four entries of grad u.

    The six fields take one real inverse transform each, one at a time."""
    g = omega.grid
    ops = grid_operators(g)
    u1h, u2h = biot_savart(omega)
    u_sup = _sup_speed(u1h, u2h)
    du_sup = 0.0
    for uh in (u1h, u2h):
        for k in (ops.k1, ops.k2):
            comp = real_samples(SpectralField2D(g, 1j * k * uh.modes))
            du_sup = max(du_sup, float(np.abs(comp).max()))
    return u_sup, du_sup


def make_report(state: SimState, cfg: SimConfig) -> NormReport:
    omega = omega_from_profile(state.profile, cfg.beta)
    u_sup, du_sup = velocity_sup_norms(omega)
    warnings: list = []
    weighted2, weighted3 = weighted_profile_norm(state.profile, (2, 3), warnings)
    return NormReport(
        t=state.t,
        l2=l2_norm(omega),
        hk=sobolev_norm(omega, cfg.k_energy),
        linf_omega=linf_norm(omega),
        linf_u=u_sup,
        linf_du=du_sup,
        besov311=besov_norm(omega, 3.0, 1.0, 1.0),
        weighted2=weighted2,
        weighted3=weighted3,
        fhat_sup2=fhat_sup_weighted(state.profile),
        warnings=warnings,
    )


def run(cfg: SimConfig, dump_path=None) -> RunResult:
    """Integrate to t_end, emitting a NormReport every output_stride steps.

    Aborts cleanly when |omega|_Linf exceeds 1000x its initial value; on NaN
    the last good state is dumped to dump_path (when given) and the run is
    marked aborted.
    """
    w0 = initial_vorticity(cfg)
    state = SimState(t=0.0, profile=profile_from_omega(w0, 0.0, cfg.beta))
    reports = [make_report(state, cfg)]
    checkpoints = [(0.0, state.profile)] if cfg.retain_checkpoints else []
    linf0 = reports[0].linf_omega
    n_steps = int(round(cfg.t_end / cfg.dt))
    last_good = state
    for i in range(n_steps):
        try:
            state = step(state, cfg)
        except StabilityError as exc:
            return RunResult(cfg, reports, checkpoints, aborted=True,
                             abort_reason=f"stability: {exc} (try dt={exc.suggested_dt:.3e})")
        # the time of step i + 1 is (i + 1) dt, not a running sum of dt
        t = (i + 1) * cfg.dt
        state = SimState(t, Profile(state.profile.field, t), state.step_count)
        if not np.all(np.isfinite(state.profile.field.modes)):
            if dump_path is not None:
                write_field(dump_path, transform_inverse(
                    omega_from_profile(last_good.profile, cfg.beta)))
            return RunResult(cfg, reports, checkpoints, aborted=True,
                             abort_reason=f"NaN at step {state.step_count}")
        last_good = state
        if (i + 1) % cfg.output_stride == 0 or i == n_steps - 1:
            rep = make_report(state, cfg)
            reports.append(rep)
            if cfg.retain_checkpoints:
                checkpoints.append((state.t, state.profile))
            if linf0 > 0 and rep.linf_omega > 1e3 * linf0:
                return RunResult(cfg, reports, checkpoints, aborted=True,
                                 abort_reason=f"blow-up guard at t={state.t}")
    return RunResult(cfg, reports, checkpoints)


# ---------------------------------------------------------------------------
# scaling symmetry

def scaling_transform(omega: RealField2D, lam: float) -> RealField2D:
    """lambda^-1 omega(lambda x), sampled by evaluating the trigonometric
    interpolant on the dilated grid."""
    if lam <= 0:
        raise ValueError("lambda must be positive")
    g = omega.grid
    if lam > 1.0:
        # reading omega on lambda*box: require the mass to live inside box/lambda
        x = g.x_coords()
        inside = (np.abs(x)[:, None] <= g.box_length / (2.0 * lam)) & \
                 (np.abs(x)[None, :] <= g.box_length / (2.0 * lam))
        total = float(np.sum(omega.samples ** 2))
        if total > 0 and float(np.sum(omega.samples[inside] ** 2)) / total < 0.99:
            raise ValueError("rescaled support does not fit the box")
    wh = transform_forward(omega)
    k = 2.0 * np.pi * np.fft.fftfreq(g.n, d=g.dx)
    x = g.x_coords()
    # separable evaluation of the interpolant at lambda * x
    E = np.exp(1j * np.outer(lam * x, k))        # (n_x, n_k)
    vals = (E @ wh.modes @ E.T) * g.dxi ** 2
    return RealField2D(g, vals.real / lam)
