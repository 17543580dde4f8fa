"""Command-line entry point.

Subcommands: simulate, decay, stphase, diagnose, resonance verify and
classify, bootstrap, reproduce-all. All CSV outputs are written atomically and
carry the seed and tool version in comment headers. BPLAB_THREADS caps the
BLAS/FFT thread pools (exported to the usual env vars before numpy spins them up).
"""

from __future__ import annotations

import argparse
import os
import sys

if os.environ.get("BPLAB_THREADS"):
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, os.environ["BPLAB_THREADS"])

import numpy as np

from . import acceptance, diagnostics, propagator, resonance, solver
from .harness import TOOL_VERSION, header_lines, substream_seed, write_csv, write_json
from .solver import NORM_REPORT_COLUMNS, NormReport
from .spectral import (
    ConfigurationError,
    Grid2D,
    InputError,
    linf_norm,
    shell_field,
    transform_inverse,
    write_field,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3


def cmd_simulate(args):
    try:
        with open(args.config) as fh:
            cfg = solver.parse_config(fh.read())
    except FileNotFoundError:
        raise ConfigurationError(f"config file not found: {args.config}")
    res = solver.run(cfg, dump_path=args.out + ".dump.bpf")
    flagged = [r for r in res.reports if r.warning]
    warnings = [f"warnings: {len(flagged)}, first at "
                f"t={flagged[0].t:.6g}: {flagged[0].warning}"] if flagged else []
    aborted = [f"aborted: {res.abort_reason}"] if res.aborted else []
    header = header_lines("simulate", args.seed, args.config) + [
        f"config-line: {line}" for line in solver.format_config(cfg).splitlines()] + warnings
    write_csv(args.out, header + aborted, NORM_REPORT_COLUMNS, [r.row() for r in res.reports])
    for line in warnings:
        print(line, file=sys.stderr)
    if args.checkpoints:
        os.makedirs(args.checkpoints, exist_ok=True)
        written = set()
        for i, (t, prof) in enumerate(res.checkpoints):
            path = _checkpoint_path(args.checkpoints, i, t)
            write_field(path, transform_inverse(solver.omega_from_profile(prof, cfg.beta)))
            written.add(os.path.basename(path))
        # files of another run in the directory; diagnose reads only its run's
        others = [name for name in os.listdir(args.checkpoints)
                  if name.startswith("chk_") and name.endswith(".bpf") and name not in written]
        if others:
            print(f"checkpoints: {args.checkpoints} holds {len(others)} chk_*.bpf files "
                  "that this run did not write", file=sys.stderr)
    if res.aborted:
        print(f"run aborted: {res.abort_reason}", file=sys.stderr)
        return EXIT_RUNTIME
    print(f"wrote {len(res.reports)} reports to {args.out}")
    return EXIT_OK


def cmd_decay(args):
    if not (0.0 < args.t_min < args.t_max < np.inf and args.n_times >= 2):
        raise ConfigurationError("need 0 < t-min < t-max < inf and n-times >= 2")
    data = shell_field(Grid2D(args.n, args.L), args.j)
    times = np.geomspace(args.t_min, args.t_max, args.n_times)
    bounds = propagator.split_decay_bound(data, times.tolist(), args.N, args.mu, args.k)
    fit = propagator.decay_curve(data, times)
    rows = [[t, sup, fit.besov311, t * sup, bound]
            for t, sup, bound in zip(times.tolist(), fit.sup_norms.tolist(), bounds)]
    header = header_lines("decay", args.seed) + [
        f"fitted exponent={fit.exponent:.6f} constant={fit.constant:.6g} c_emp={fit.c_emp:.6g}"]
    write_csv(args.out, header, ["t", "sup_norm", "besov311", "t_times_sup", "bound_lemma52"],
              rows)
    print(f"decay exponent {fit.exponent:.4f}, C_emp {fit.c_emp:.4g}; wrote {args.out}")
    return EXIT_OK


def cmd_stphase(args):
    v = _parse_vec(args.x_over_t)
    roots, found = propagator.stationary_roots(v)
    rows = [[float(xi[0]), float(xi[1]), float(det)]
            for xi, det in zip(roots[found], propagator.hessian_det(roots[found]))]
    print(f"x/t = ({v[0]:g}, {v[1]:g}): {len(rows)} stationary point(s)")
    for xi1, xi2, det in rows:
        print(f"  xi = ({xi1:+.12f}, {xi2:+.12f})  det_hessian = {det:+.12f}")
    if args.out:
        write_csv(args.out, header_lines("stphase", args.seed),
                  ["xi1", "xi2", "det_hessian"], rows)
    return EXIT_OK


def _parse_vec(text):
    try:
        v = np.array([float(p) for p in text.split(",")])
    except ValueError:
        v = None
    if v is None or v.shape != (2,) or not np.all(np.isfinite(v)):
        raise ConfigurationError(f"expected two finite comma-separated numbers, got {text!r}")
    return v


def _checkpoint_path(directory, i, t):
    return os.path.join(directory, f"chk_{i:05d}_t={float(t)!r}.bpf")


def _reconstruct_run(run_csv, checkpoint_dir):
    """The run of run_csv and its `warnings:` and `aborted:` lines. The config
    and the norm reports are read from the CSV (written with %.17g, so read
    back exactly); solver.read_vorticity reads each row's checkpoint, named by
    its index and t, for the profile, and a checkpoint whose |omega|_Linf is
    not its row's to 1e-12 relative is refused. Other files in checkpoint_dir
    are not read."""
    with open(run_csv) as fh:
        lines = fh.read().splitlines()
    comments = [line[2:] for line in lines if line.startswith("# ")]
    config = [c.partition(": ")[2] for c in comments if c.startswith("config-line: ")]
    if not config:
        raise InputError("run CSV lacks the config-line header")
    cfg = solver.parse_config("\n".join(config))
    table = [line.split(",") for line in lines if not line.startswith("#")]
    if not table or tuple(table[0]) != NORM_REPORT_COLUMNS:
        raise InputError(f"run CSV {run_csv} needs the columns {','.join(NORM_REPORT_COLUMNS)}")
    if {len(row) for row in table[1:]} != {len(table[0])}:   # zip would cut a long row
        raise InputError(f"run CSV {run_csv} needs report rows of {len(table[0])} numbers")
    try:
        reports = [NormReport(**dict(zip(NORM_REPORT_COLUMNS, map(float, r)))) for r in table[1:]]
    except ValueError as exc:     # a cell that is not a number, or a report not finite
        raise InputError(f"run CSV {run_csv}: {exc}") from exc
    checkpoints = []
    for i, rep in enumerate(reports):
        path = _checkpoint_path(checkpoint_dir, i, rep.t)
        omega = solver.read_vorticity(path, cfg.grid)
        # another run on the same grid and times writes the same file names
        if abs(linf_norm(omega) - rep.linf_omega) > 1e-12 * rep.linf_omega:
            raise InputError(f"{path}: |omega|_Linf {linf_norm(omega)!r} differs from "
                             f"{rep.linf_omega!r} of row {i} (t={rep.t!r}) of {run_csv}")
        checkpoints.append((rep.t, solver.profile_from_omega(omega, rep.t, cfg.beta)))
    notes = [c for c in comments if c.startswith(("warnings: ", "aborted: "))]
    return solver.RunResult(cfg, reports, checkpoints), notes


def cmd_diagnose(args):
    if args.k < 0:
        raise ConfigurationError("Sobolev index --k must be >= 0")
    res, notes = _reconstruct_run(args.infile, args.checkpoints)
    cert = diagnostics.energy_certificate(res, args.k)
    transport = diagnostics.linfty_transport_check(res)
    flags = diagnostics.weighted_norm_series(res)
    rows = [[rep.t, cert.hk_measured[i], cert.rhs_envelope[i], transport.lhs[i],
             transport.rhs[i], transport.slack[i], rep.weighted2, rep.weighted3,
             rep.fhat_sup2, int(flag)]
            for i, (rep, flag) in enumerate(zip(res.reports, flags))]
    header = header_lines("diagnose", args.seed) + [
        f"k={args.k} energy_c={cert.c:.6g} energy_valid={cert.valid} "
        f"transport_ok={transport.ok}"] + notes
    write_csv(args.out, header,
              ["t", "hk", "energy_envelope", "linf_omega", "transport_rhs",
               "transport_slack", "weighted2", "weighted3", "fhat_sup2", "flagged"], rows)
    for line in notes:
        print(line, file=sys.stderr)
    print(f"energy c={cert.c:.4g} valid={cert.valid}; transport ok={transport.ok}; "
          f"wrote {args.out}")
    return EXIT_OK if (cert.valid and transport.ok) else EXIT_RUNTIME


def cmd_classify(args):
    pair = resonance.FreqPair(tuple(_parse_vec(args.xi)), tuple(_parse_vec(args.eta)))
    label = resonance.classify_region(pair)
    print(f"region = {label.region.value} (swapped={label.swapped})")
    for name, val in label.margins.items():
        print(f"  {name}: {val:+.6g}")
    return EXIT_OK


def cmd_verify(args):
    # each id once, in order of first appearance
    ids = resonance.INEQUALITY_IDS if args.id == "all" else tuple(dict.fromkeys(args.id))
    unknown = sorted(set(ids) - set(resonance.INEQUALITY_IDS))
    if unknown or not ids:
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
        write_csv(args.out, header_lines("resonance", args.seed),
                  ["id", "samples", "violations", "worst_margin", "constant_min",
                   "empirical_constant"], rows)
    return EXIT_OK if violations == 0 else EXIT_RUNTIME


def cmd_bootstrap(args):
    point = {name: v for name, v in (("k", args.k), ("eps", args.eps), ("mu", args.mu))
             if v is not None}
    if args.search:
        if point:
            raise ConfigurationError("bootstrap --search takes no point (--k, --eps, --mu)")
        params = diagnostics.bootstrap_search(args.M)
        if params is None:
            print("infeasible in box")
            return EXIT_RUNTIME
        print(f"feasible: k={params.k:g} eps={params.eps:g} mu={params.mu:g}")
    else:
        params = diagnostics.BootstrapParams(args.M, **point)
    feasible, report = diagnostics.bootstrap_feasibility(params)
    for name, entry in report.items():
        print(f"{name}: margin {entry['margin']:+.4g} "
              f"({'ok' if entry['satisfied'] else 'violated'})")
    print("all conditions satisfied" if feasible else "not feasible at these parameters")
    return EXIT_OK


def cmd_reproduce_all(args):
    only = set(args.only) if args.only else None
    known = sorted(fn.index for fn in acceptance.ALL_CRITERIA)
    unknown = sorted((only or set()) - set(known))
    if unknown:
        raise ConfigurationError(f"unknown criterion index(es) {unknown}; known: {known}")
    results = acceptance.run_all(seed=args.seed, only=only)
    for r in results:
        print(r.summary_line())
    total = sum(r.elapsed for r in results)
    print(f"total wall time {total:.1f}s")
    if args.out:
        records = [{"criterion": r.index, "name": r.name,
                    "verdict": "PASS" if r.passed else "FAIL", "seconds": r.elapsed,
                    "details": r.details} for r in results]
        columns = ["criterion", "name", "verdict", "seconds"]
        write_csv(args.out, header_lines("reproduce-all", args.seed), columns,
                  [[rec[c] for c in columns] for rec in records])
        write_json(args.out + ".json", records)
    failures = [r.index for r in results if not r.passed]
    if failures:
        print(f"failed criteria: {failures}", file=sys.stderr)
        return EXIT_RUNTIME
    return EXIT_OK


def build_parser():
    seeded = argparse.ArgumentParser(add_help=False)
    seeded.add_argument("--seed", type=int, default=0, help="root RNG seed")
    common = argparse.ArgumentParser(add_help=False, parents=[seeded])
    common.add_argument("--out", default=None, help="output CSV path")
    # simulate, decay and diagnose always write their CSV, bootstrap and classify never
    writes = argparse.ArgumentParser(add_help=False, parents=[seeded])
    writes.add_argument("--out", required=True, help="output CSV path")

    parser = argparse.ArgumentParser(prog="bplab", description=__doc__)
    parser.add_argument("--version", action="version", version=TOOL_VERSION)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", parents=[writes], help="time-integrate a configured run")
    p.add_argument("--config", required=True, help="config file path")
    p.add_argument("--checkpoints", default=None, help="directory for field checkpoints")
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("decay", parents=[writes], help="measure linear dispersive decay")
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

    p = sub.add_parser("diagnose", parents=[writes], help="post-process a finished run")
    p.add_argument("--in", dest="infile", required=True, help="run CSV from simulate")
    p.add_argument("--checkpoints", required=True, help="checkpoint directory")
    p.add_argument("--k", type=int, default=4)
    p.set_defaults(fn=cmd_diagnose)

    actions = sub.add_parser("resonance", help="resonance certification").add_subparsers(
        dest="action", required=True)
    p = actions.add_parser("verify", parents=[common],
                           help="certify the region inequalities by sampling")
    p.add_argument("--id", default="all", help="inequality ids, e.g. 'a' or 'abc'")
    p.add_argument("--n", type=int, default=100_000)
    p.set_defaults(fn=cmd_verify)
    p = actions.add_parser("classify", parents=[seeded], help="classify one frequency pair")
    p.add_argument("--xi", required=True, help="comma-separated 2-vector")
    p.add_argument("--eta", required=True, help="comma-separated 2-vector")
    p.set_defaults(fn=cmd_classify)

    p = sub.add_parser("bootstrap", parents=[seeded], help="bootstrap feasibility arithmetic")
    p.add_argument("--M", type=float, default=1.0)
    p.add_argument("--search", action="store_true", help="search a box; takes no point")
    p.add_argument("--k", type=float, help="point to check (default 32)")
    p.add_argument("--eps", type=float, help="(default 1e-160)")
    p.add_argument("--mu", type=float, help="(default 0.01)")
    p.set_defaults(fn=cmd_bootstrap)

    p = sub.add_parser("reproduce-all", parents=[common],
                       help="run every acceptance criterion")
    p.add_argument("--only", type=int, nargs="+", default=None,
                   help="criterion indices to run, at least one")
    p.set_defaults(fn=cmd_reproduce_all)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:   # argparse: 2 for a bad argument, 0 after --help
        return exc.code
    try:
        return args.fn(args)
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (InputError, resonance.SamplerError, solver.StabilityError, OSError,
            MemoryError) as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
