"""Command-line entry point.

Subcommands: simulate, decay, stphase, diagnose, resonance, bootstrap,
reproduce-all. All CSV outputs are written atomically and carry the seed and
tool version in comment headers. BPLAB_THREADS caps the BLAS/FFT thread pools
(exported to the usual env vars before numpy spins them up).
"""

from __future__ import annotations

import argparse
import os
import re
import sys


def _cap_threads():
    cap = os.environ.get("BPLAB_THREADS")
    if cap:
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            os.environ.setdefault(var, cap)


_cap_threads()

import numpy as np

from . import acceptance, diagnostics, propagator, resonance, solver
from .harness import TOOL_VERSION, ExperimentManifest, substream_seed, write_csv
from .spectral import (
    NORM_REPORT_COLUMNS,
    ConfigurationError,
    Grid2D,
    InputError,
    Profile,
    besov_norm,
    linf_norm,
    read_field,
    shell_field,
    transform_forward,
    transform_inverse,
    write_field,
    zero_mean,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3


def _load_config(path):
    try:
        with open(path) as fh:
            return solver.parse_config(fh.read())
    except FileNotFoundError:
        raise ConfigurationError(f"config file not found: {path}")


def _warning_summary(reports):
    """One line giving the count of the reports' warnings and the first of
    them, or [] when there are none."""
    flagged = [r for r in reports if r.warnings]
    if not flagged:
        return []
    count = sum(len(r.warnings) for r in flagged)
    return [f"warnings: {count}, first at t={flagged[0].t:.6g}: {flagged[0].warnings[0]}"]


def cmd_simulate(args):
    cfg = _load_config(args.config)
    manifest = ExperimentManifest("simulate", args.seed, args.config)
    res = solver.run(cfg, dump_path=args.out + ".dump.bpf")
    warnings = _warning_summary(res.reports)
    header = manifest.header_lines() + [
        f"config-line: n={cfg.n} L={cfg.box_length:g} beta={cfg.beta:g} dt={cfg.dt:g} "
        f"t_end={cfg.t_end:g} k_energy={cfg.k_energy} init={cfg.init} eps={cfg.eps:g}"
    ] + warnings
    write_csv(args.out, header, NORM_REPORT_COLUMNS, [r.row() for r in res.reports])
    for line in warnings:
        print(line, file=sys.stderr)
    if args.checkpoints:
        os.makedirs(args.checkpoints, exist_ok=True)
        for i, (t, prof) in enumerate(res.checkpoints):
            omega = solver.omega_from_profile(prof, cfg.beta)
            write_field(os.path.join(args.checkpoints, f"chk_{i:05d}_t={t:.6f}.bpf"),
                        transform_inverse(omega))
    if res.aborted:
        print(f"run aborted: {res.abort_reason}", file=sys.stderr)
        return EXIT_RUNTIME
    print(f"wrote {len(res.reports)} reports to {args.out}")
    return EXIT_OK


def cmd_decay(args):
    if not (0.0 < args.t_min < args.t_max and args.n_times >= 2):
        raise ConfigurationError("need 0 < t-min < t-max and n-times >= 2")
    data = shell_field(Grid2D(args.n, args.L), args.j)
    times = np.geomspace(args.t_min, args.t_max, args.n_times)
    b311 = besov_norm(data, 3.0, 1.0, 1.0)
    prof = Profile(data, 0.0)
    rows = []
    for t in times:
        sup = linf_norm(propagator.apply_semigroup(data, t))
        bound = propagator.split_decay_bound(prof, t, args.N, args.mu, args.k)
        rows.append([float(t), sup, b311, float(t) * sup, bound])
    fit = propagator.decay_curve(data, times)
    header = ExperimentManifest("decay", args.seed).header_lines() + [
        f"fitted exponent={fit.exponent:.6f} constant={fit.constant:.6g} c_emp={fit.c_emp:.6g}"]
    write_csv(args.out, header, ["t", "sup_norm", "besov311", "t_times_sup", "bound_lemma52"],
              rows)
    print(f"decay exponent {fit.exponent:.4f}, C_emp {fit.c_emp:.4g}; wrote {args.out}")
    return EXIT_OK


def cmd_stphase(args):
    v = _parse_vec(args.x_over_t)
    roots = propagator.stationary_points(v)
    print(f"x/t = ({v[0]:g}, {v[1]:g}): {len(roots)} stationary point(s)")
    for xi in roots:
        print(f"  xi = ({xi[0]:+.12f}, {xi[1]:+.12f})  "
              f"det_hessian = {propagator.hessian_det(xi):+.12f}")
    if args.out:
        rows = [[float(xi[0]), float(xi[1]), propagator.hessian_det(xi)] for xi in roots]
        write_csv(args.out, ExperimentManifest("stphase", args.seed).header_lines(),
                  ["xi1", "xi2", "det_hessian"], rows)
    return EXIT_OK


def _parse_vec(text):
    parts = text.split(",")
    if len(parts) != 2:
        raise ConfigurationError(f"expected two comma-separated numbers, got {text!r}")
    return np.array([float(p) for p in parts])


def _reconstruct_run(run_csv, checkpoint_dir):
    with open(run_csv) as fh:
        text = fh.read()
    m = re.search(r"config-line: (.+)", text)
    if not m:
        raise InputError("run CSV lacks the config-line header")
    cfg = solver.parse_config(m.group(1).replace(" ", "\n"))
    checkpoints = []
    for name in sorted(os.listdir(checkpoint_dir)):
        mm = re.match(r"chk_\d+_t=([-0-9.eE+]+)\.bpf$", name)
        if not mm:
            continue
        t = float(mm.group(1))
        omega = zero_mean(transform_forward(read_field(os.path.join(checkpoint_dir, name))))
        checkpoints.append((t, solver.profile_from_omega(omega, t, cfg.beta)))
    if not checkpoints:
        raise InputError(f"no checkpoint files in {checkpoint_dir}")
    reports = [solver.make_report(solver.SimState(t, prof), cfg) for t, prof in checkpoints]
    return solver.RunResult(cfg, reports, checkpoints)


def cmd_diagnose(args):
    res = _reconstruct_run(args.infile, args.checkpoints)
    cert = diagnostics.energy_certificate(res, args.k)
    transport = diagnostics.linfty_transport_check(res)
    weighted = diagnostics.weighted_norm_series(res)
    rows = []
    for i, row in enumerate(weighted):
        rows.append([row["t"], cert.hk_measured[i], cert.rhs_envelope[i],
                     transport.lhs[i], transport.rhs[i], transport.slack[i],
                     row["weighted2"], row["weighted3"], row["fhat_sup2"],
                     int(row["flagged"])])
    warnings = _warning_summary(res.reports)
    header = ExperimentManifest("diagnose", args.seed).header_lines() + [
        f"k={args.k} energy_c={cert.c:.6g} energy_valid={cert.valid} "
        f"transport_ok={transport.ok}"] + warnings
    write_csv(args.out, header,
              ["t", "hk", "energy_envelope", "linf_omega", "transport_rhs",
               "transport_slack", "weighted2", "weighted3", "fhat_sup2", "flagged"], rows)
    for line in warnings:
        print(line, file=sys.stderr)
    print(f"energy c={cert.c:.4g} valid={cert.valid}; transport ok={transport.ok}; "
          f"wrote {args.out}")
    return EXIT_OK if (cert.valid and transport.ok) else EXIT_RUNTIME


def cmd_resonance(args):
    if args.action == "classify":
        if args.xi is None or args.eta is None:
            raise ConfigurationError("resonance classify needs --xi and --eta")
        pair = resonance.FreqPair(tuple(_parse_vec(args.xi)), tuple(_parse_vec(args.eta)))
        label = resonance.classify_region(pair)
        print(f"region = {label.region.value} (swapped={label.swapped})")
        for name, val in label.margins.items():
            print(f"  {name}: {val:+.6g}")
        return EXIT_OK
    ids = resonance.INEQUALITY_IDS if args.id == "all" else args.id
    unknown = sorted(set(ids) - set(resonance.INEQUALITY_IDS))
    if unknown:
        raise ConfigurationError(f"unknown inequality id(s) {''.join(unknown)!r}; "
                                 f"known: {''.join(resonance.INEQUALITY_IDS)}")
    rows = []
    violations = 0
    for iid in ids:
        rep = resonance.certify_bound(iid, args.n,
                                      seed=substream_seed(args.seed, f"certify-{iid}"))
        rows.append([iid, rep.samples, rep.violations, rep.worst_margin,
                     rep.constant_min, rep.empirical_constant])
        violations += rep.violations
        ratios = "" if np.isnan(rep.empirical_constant) else \
            f", ratio range [{rep.constant_min:.6g}, {rep.empirical_constant:.6g}]"
        print(f"id={iid}: {rep.violations} violations in {rep.samples} samples, "
              f"worst margin {rep.worst_margin:.3e}{ratios}")
    if args.out:
        write_csv(args.out, ExperimentManifest("resonance", args.seed).header_lines(),
                  ["id", "samples", "violations", "worst_margin", "constant_min",
                   "empirical_constant"], rows)
    return EXIT_OK if violations == 0 else EXIT_RUNTIME


def cmd_bootstrap(args):
    if args.search:
        params = diagnostics.bootstrap_search(args.M)
        if params is None:
            print("infeasible in box")
            return EXIT_RUNTIME
        feasible, report = diagnostics.bootstrap_feasibility(params)
        print(f"feasible: k={params.k:g} eps={params.eps:g} mu={params.mu:g}")
        for name, entry in report.items():
            print(f"  {name}: margin {entry['margin']:+.4g} "
                  f"({'ok' if entry['satisfied'] else 'violated'})")
        return EXIT_OK
    params = diagnostics.BootstrapParams(args.M, args.k, args.eps, args.mu)
    feasible, report = diagnostics.bootstrap_feasibility(params)
    for name, entry in report.items():
        print(f"{name}: margin {entry['margin']:+.4g} "
              f"({'ok' if entry['satisfied'] else 'violated'})")
    print("all conditions satisfied" if feasible else "not feasible at these parameters")
    return EXIT_OK


def cmd_reproduce_all(args):
    only = set(args.only) if args.only else None
    results = acceptance.run_all(seed=args.seed, only=only)
    rows = []
    for r in results:
        print(r.summary_line())
        rows.append([r.index, r.name, "PASS" if r.passed else "FAIL", r.elapsed])
    total = sum(r.elapsed for r in results)
    print(f"total wall time {total:.1f}s")
    if args.out:
        write_csv(args.out, ExperimentManifest("reproduce-all", args.seed).header_lines(),
                  ["criterion", "name", "verdict", "seconds"], rows)
    failures = [r.index for r in results if not r.passed]
    if failures:
        print(f"failed criteria: {failures}", file=sys.stderr)
        return EXIT_RUNTIME
    return EXIT_OK


def build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0, help="root RNG seed")
    common.add_argument("--out", default=None, help="output CSV path")
    common.add_argument("--config", default=None, help="config file path")

    parser = argparse.ArgumentParser(prog="bplab", description=__doc__)
    parser.add_argument("--version", action="version", version=TOOL_VERSION)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", parents=[common], help="time-integrate a configured run")
    p.add_argument("--checkpoints", default=None, help="directory for field checkpoints")
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("decay", parents=[common], help="measure linear dispersive decay")
    p.add_argument("--n", type=int, default=256)
    p.add_argument("--L", type=float, default=200.0)
    p.add_argument("--j", type=int, default=0, help="dyadic shell index of the data")
    p.add_argument("--t-min", type=float, default=10.0)
    p.add_argument("--t-max", type=float, default=100.0)
    p.add_argument("--n-times", type=int, default=8)
    p.add_argument("--N", type=float, default=4.0, help="split frequency for the bound")
    p.add_argument("--mu", type=float, default=0.5)
    p.add_argument("--k", type=int, default=2)
    p.set_defaults(fn=cmd_decay)

    p = sub.add_parser("stphase", parents=[common], help="stationary points of the phase")
    p.add_argument("--x-over-t", required=True, help="comma-separated 2-vector")
    p.set_defaults(fn=cmd_stphase)

    p = sub.add_parser("diagnose", parents=[common], help="post-process a finished run")
    p.add_argument("--in", dest="infile", required=True, help="run CSV from simulate")
    p.add_argument("--checkpoints", required=True, help="checkpoint directory")
    p.add_argument("--k", type=int, default=4)
    p.set_defaults(fn=cmd_diagnose)

    p = sub.add_parser("resonance", parents=[common], help="resonance certification")
    p.add_argument("action", choices=["verify", "classify"])
    p.add_argument("--id", default="all", help="inequality ids, e.g. 'a' or 'abc'")
    p.add_argument("--n", type=int, default=100_000)
    p.add_argument("--xi", help="comma-separated 2-vector (classify)")
    p.add_argument("--eta", help="comma-separated 2-vector (classify)")
    p.set_defaults(fn=cmd_resonance)

    p = sub.add_parser("bootstrap", parents=[common], help="bootstrap feasibility arithmetic")
    p.add_argument("--M", type=float, default=1.0)
    p.add_argument("--search", action="store_true")
    p.add_argument("--k", type=float, default=32.0)
    p.add_argument("--eps", type=float, default=1e-160)
    p.add_argument("--mu", type=float, default=0.01)
    p.set_defaults(fn=cmd_bootstrap)

    p = sub.add_parser("reproduce-all", parents=[common],
                       help="run every acceptance criterion")
    p.add_argument("--only", type=int, nargs="*", default=None,
                   help="criterion indices to run")
    p.set_defaults(fn=cmd_reproduce_all)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigurationError,) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (InputError, resonance.SamplerError, solver.StabilityError,
            propagator.QuadratureError) as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
