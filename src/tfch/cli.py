"""Experiment driver.

Subcommands:

    rho-star             admissibility threshold curve, optional q3 grid and
                         the minimum of rho_star over alpha
    mesh                 mesh tables, optional ratio report and kernel rows
    caputo-convergence   fractional-derivative benchmark tables
    tfch-convergence     temporal self-convergence of the full solver
    tfch-run             one full run with energy/mass/validator outputs
    manufactured         forced-solution accuracy sweep
    verify               structural verification battery

Every subcommand accepts --out DIR (default .) and --config FILE, where the
file holds `key = value` lines using the flag names (dashes or underscores);
explicit command-line flags override file values. Each run rewrites
run_meta.txt in the output directory with the resolved settings, with no
timestamps, so reruns on identical inputs are byte-identical. The exception
is verify, whose results go to standard output: it has no default --out and
writes run_meta.txt only when one is given.

Exit codes: 0 success, 1 runtime failure (including failed verification),
2 usage error.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import os
import sys

import numpy as np

from . import diagnostics, temporal_mesh
from ._fmt import fmt, write_csv
from ._gamma import gamma
from .caputo_l2 import (
    rho_bar,
    solve_linear_fode,
    write_kernel_row_csv,
    write_q3_csv,
    write_rho_star_csv,
)
from .tfch_solver import (
    SolverConfig,
    manufactured_solution,
    quartic_bump,
    solve,
)

__all__ = ["main", "build_parser"]


class UsageError(ValueError):
    """Bad flag values or combinations; reported with exit code 2."""


@contextlib.contextmanager
def _flag_values():
    """Report a ValueError raised inside as a UsageError: for checks that
    the library makes on values taken from the flags."""
    try:
        yield
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _zero_initial(x):
    return np.zeros_like(np.asarray(x, dtype=float))


def _float_list(text: str):
    items = [float(p) for p in text.split(",") if p.strip()]
    if not items:
        raise argparse.ArgumentTypeError("expected at least one value")
    return items


def _alpha_list(text: str):
    items = _float_list(text)
    if not all(0.0 < a < 1.0 for a in items):
        raise argparse.ArgumentTypeError("every alpha must lie in (0,1)")
    return items


def _nonnegative_int(text: str):
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("expected a non-negative integer")
    return value


def _int_list(text: str):
    items = [int(p) for p in text.split(",") if p.strip()]
    if not items:
        raise argparse.ArgumentTypeError("expected at least one value")
    if min(items) < 1:
        raise argparse.ArgumentTypeError("values must be at least 1")
    if len(set(items)) < len(items):
        raise argparse.ArgumentTypeError("values must not repeat")
    return items


# a switch's value in a config file, in any case
_SWITCH_WORDS = {"1": True, "true": True, "yes": True, "on": True,
                 "0": False, "false": False, "no": False, "off": False}


def _add_physics(sub) -> None:
    """Flags every solver subcommand shares; _config reads them."""
    sub.add_argument("--M", type=int, default=60)
    sub.add_argument("--T", type=float, default=1.0)
    sub.add_argument("--kappa", type=float, default=0.01)
    sub.add_argument("--epsilon", type=float, default=0.1)
    sub.add_argument("--tol", type=float, default=1e-10)


def _add_common(sub) -> None:
    sub.add_argument("--out", default=".", help="output directory")
    sub.add_argument("--config", default=None,
                     help="key=value defaults file; flags override")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="tfch",
        description="nonuniform-mesh fractional Cahn-Hilliard experiments")
    subs = parser.add_subparsers(dest="command", metavar="SUBCOMMAND")
    registry = {}

    s = subs.add_parser("rho-star", help="admissibility threshold tables")
    s.add_argument("--alphas", type=_float_list,
                   default=[0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9])
    s.add_argument("--q3", action="store_true",
                   help="also write the q3 grid over (rho, alpha)")
    s.add_argument("--q3-rhos", type=_float_list,
                   default=list(np.round(np.arange(1.2, 8.01, 0.2), 10)))
    s.add_argument("--fixed-point", action="store_true",
                   help="also locate the minimum of rho_star over alpha")
    _add_common(s)
    registry["rho-star"] = s

    s = subs.add_parser("mesh", help="mesh tables and kernel rows")
    s.add_argument("--N", type=int, default=None, help="number of steps")
    s.add_argument("--T", type=float, default=1.0, help="time horizon")
    s.add_argument("--mesh", default="graded-cubic",
                   help="graded-cubic, uniform, or a path to a mesh file "
                        "(mesh.csv layout or one step size per line)")
    s.add_argument("--alpha", type=float, default=None,
                   help="enables the ratio-bound report (and kernel rows)")
    s.add_argument("--kernel-level", type=int, default=None,
                   help="write the kernel rows at this level (needs --alpha)")
    _add_common(s)
    registry["mesh"] = s

    s = subs.add_parser("caputo-convergence",
                        help="fractional-derivative benchmark")
    s.add_argument("--alphas", type=_alpha_list, default=[0.3, 0.5, 0.7, 0.9])
    s.add_argument("--Ns", type=_int_list, default=[250, 500, 1000, 2000, 4000])
    s.add_argument("--T", type=float, default=1.0)
    _add_common(s)
    registry["caputo-convergence"] = s

    s = subs.add_parser("tfch-convergence",
                        help="temporal self-convergence of the solver")
    s.add_argument("--alphas", type=_alpha_list, default=[0.3, 0.5, 0.7, 0.9])
    s.add_argument("--Ns", type=_int_list, default=[15, 18, 21, 24])
    s.add_argument("--N0", type=int, default=200, help="reference resolution")
    _add_physics(s)
    _add_common(s)
    registry["tfch-convergence"] = s

    s = subs.add_parser("tfch-run", help="one full run with diagnostics")
    s.add_argument("--alpha", type=float, default=None)
    s.add_argument("--N", type=int, default=200)
    s.add_argument("--mesh", default="graded-cubic",
                   help="graded-cubic, uniform, or a path to a mesh file")
    s.add_argument("--initial", choices=("quartic-bump", "zero"),
                   default="quartic-bump")
    s.add_argument("--source", choices=("none", "manufactured"),
                   default="none")
    s.add_argument("--max-iterations", type=int, default=500)
    s.add_argument("--dump-states", type=int, default=0, metavar="K",
                   help="write state_{n}.csv every K levels (0 disables)")
    _add_physics(s)
    _add_common(s)
    registry["tfch-run"] = s

    s = subs.add_parser("manufactured", help="forced-solution accuracy sweep")
    s.add_argument("--alphas", type=_alpha_list, default=[0.1, 0.3, 0.6, 0.9])
    s.add_argument("--Ns", type=_int_list, default=[200])
    _add_physics(s)
    _add_common(s)
    registry["manufactured"] = s

    s = subs.add_parser("verify", help="structural verification battery")
    s.add_argument("--seed", type=_nonnegative_int, default=0)
    _add_common(s)
    s.set_defaults(out=None)
    registry["verify"] = s

    return parser, registry


def _load_config_file(path: str) -> dict:
    values = {}
    with open(path) as f:
        for raw in f:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError("config line %r is not key=value" % raw.strip())
            key, val = line.split("=", 1)
            values[key.strip().replace("-", "_")] = val.strip()
    return values


def _apply_config(sub: argparse.ArgumentParser, values: dict, parser) -> None:
    by_dest = {a.dest: a for a in sub._actions}
    defaults = {}
    for key, raw in values.items():
        action = by_dest.get(key)
        if action is None:
            parser.error("unknown config key %r" % key)
        if isinstance(action, (argparse._StoreTrueAction,
                               argparse._StoreFalseAction)):
            if raw.lower() not in _SWITCH_WORDS:
                raise ValueError("config key %r: %r is not one of %s"
                                 % (key, raw, "/".join(_SWITCH_WORDS)))
            defaults[key] = _SWITCH_WORDS[raw.lower()]
        elif action.type is not None:
            try:
                defaults[key] = action.type(raw)
            except (ValueError, argparse.ArgumentTypeError) as exc:
                raise ValueError("config key %r: %s" % (key, exc))
        else:
            defaults[key] = raw
    sub.set_defaults(**defaults)


def _write_meta(args, outputs, notes=()):
    """Rewrite run_meta.txt: command, resolved settings, outputs, notes."""
    skip = {"command", "out", "config"}
    path = _out_path(args, "run_meta.txt")
    with open(path, "w") as f:
        f.write("command: %s\n" % args.command)
        for key in sorted(vars(args)):
            if key in skip:
                continue
            value = getattr(args, key)
            if isinstance(value, list):
                value = ",".join(str(v) for v in value)
            f.write("%s: %s\n" % (key, value))
        f.write("outputs: %s\n" % ", ".join(outputs))
        for line in notes:
            f.write("note: %s\n" % line)
    return path


def _out_path(args, name: str) -> str:
    os.makedirs(args.out, exist_ok=True)
    return os.path.join(args.out, name)


def _cmd_rho_star(args) -> int:
    for a in args.alphas:
        if not 0.0 < a <= 1.0:
            raise UsageError("alpha %g outside (0,1]" % a)
    for r in args.q3_rhos:
        if not 0.0 < r < np.inf:
            raise UsageError("q3 ratio %g must be finite and positive" % r)
    # Compute every table before opening a file, so that a failing value
    # writes nothing. An alpha too small for rho_star (below 1e-15) is a
    # usage error.
    tables = {"rho_star.csv": io.StringIO()}
    with _flag_values():
        write_rho_star_csv(args.alphas, tables["rho_star.csv"])
    if args.q3:
        tables["q3_curves.csv"] = io.StringIO()
        write_q3_csv(args.q3_rhos, args.alphas, tables["q3_curves.csv"])
    notes = []
    if args.fixed_point:
        rho, alpha = rho_bar()
        tables["fixed_point.csv"] = io.StringIO()
        write_csv(tables["fixed_point.csv"], "rho_bar,alpha_bar",
                  [(rho, alpha)])
        notes.append("fixed point rho=%s alpha=%s" % (fmt(rho), fmt(alpha)))
        print("fixed point: rho = %.7f, alpha = %.5f" % (rho, alpha))
    for name, table in tables.items():
        with open(_out_path(args, name), "w", newline="") as f:
            f.write(table.getvalue())
    _write_meta(args, list(tables), notes)
    return 0


def _mesh_from_file(path: str):
    """Load a mesh from mesh.csv layout (node column) or raw step sizes.

    A file that cannot be read or parsed, or whose mesh the library
    rejects, is a usage error.
    """
    try:
        with open(path) as f:
            lines = [ln.strip() for ln in f if ln.strip()]
        if not lines:
            raise ValueError("the file is empty")
        if lines[0].startswith("k,"):
            rows = [ln.split(",") for ln in lines[1:]]
            if any(len(row) < 2 for row in rows):
                raise ValueError("every row needs a t_k column")
            nodes = np.array([float(row[1]) for row in rows])
            if nodes.size < 2 or nodes[0] != 0.0:
                raise ValueError("the mesh must start at t_0 = 0 with N >= 1")
            return temporal_mesh._finalize(nodes)
        return temporal_mesh.build_custom([float(ln) for ln in lines])
    except (OSError, ValueError) as exc:
        raise UsageError("mesh file %r: %s" % (path, exc)) from None


def _build_mesh(args):
    """The mesh that --mesh names, built from --N and --T unless it is a file.

    args.N and args.T are then set to that mesh's N and horizon, so that
    run_meta.txt records the mesh that ran; a built mesh leaves them as
    they were.
    """
    spec, N, T = args.mesh, args.N, args.T
    builders = {"graded-cubic": temporal_mesh.build_graded_cubic,
                "uniform": temporal_mesh.build_uniform}
    if spec in builders:
        if N is None:
            raise UsageError("--N is required for the %s mesh" % spec)
        with _flag_values():
            mesh = builders[spec](N, T)
    elif not os.path.exists(spec):
        raise UsageError("--mesh must be graded-cubic, uniform, or an "
                         "existing file path (got %r)" % spec)
    else:
        mesh = _mesh_from_file(spec)
    args.N, args.T = mesh.N, mesh.horizon
    return mesh


def _cmd_mesh(args) -> int:
    mesh = _build_mesh(args)
    if args.alpha is not None and not 0.0 < args.alpha < 1.0:
        raise UsageError("alpha %g outside (0,1)" % args.alpha)
    if args.kernel_level is not None:
        if args.alpha is None:
            raise UsageError("--kernel-level needs --alpha")
        if not 1 <= args.kernel_level <= mesh.N:
            raise UsageError("--kernel-level %d outside 1..%d"
                             % (args.kernel_level, mesh.N))
    notes = []
    if args.alpha is not None:
        with _flag_values():  # rho_star refuses an alpha below its floor
            report = temporal_mesh.validate_ratio_bound(mesh, args.alpha)
        if report.ok:
            notes.append("ratio bound holds: all ratios within [1, %s]"
                         % fmt(report.rho_star))
        else:
            notes.append("ratio bound fails at %d steps (first k=%d), "
                         "threshold %s" % (len(report.offenders),
                                           report.offenders[0],
                                           fmt(report.rho_star)))
        print(notes[-1])
    temporal_mesh.write_mesh_csv(mesh, _out_path(args, "mesh.csv"))
    outputs = ["mesh.csv"]
    if args.kernel_level is not None:
        write_kernel_row_csv(args.kernel_level, mesh, args.alpha,
                             _out_path(args, "kernel_row.csv"))
        outputs.append("kernel_row.csv")
    _write_meta(args, outputs, notes)
    return 0


def _graded_meshes(Ns, T) -> list:
    """The graded cubic meshes on (0, T) with N steps for each N in Ns."""
    with _flag_values():
        return [temporal_mesh.build_graded_cubic(N, T) for N in Ns]


def _caputo_error(alpha: float, mesh) -> float:
    """Worst nodal error on mesh of the benchmark w with (d/dt)^a w = rhs.

    The benchmark solution is t^{3+alpha}, whose derivative is the cubic
    Gamma(4+alpha)/Gamma(4) t^3.
    """
    coeff = gamma(4.0 + alpha) / gamma(4.0)
    w = solve_linear_fode(mesh, alpha, lambda t: coeff * t ** 3)
    return float(np.max(np.abs(mesh.nodes ** (3.0 + alpha) - w)))


def _convergence_table(args, name: str, errors_by_alpha) -> int:
    """Print and write `alpha,N,error,order` to name.

    errors_by_alpha yields (alpha, errors over args.Ns); from a generator,
    each alpha's rows print as soon as its errors are computed.
    """
    print("alpha      N      error   order")
    rows = []
    for alpha, errors in errors_by_alpha:
        orders = diagnostics.convergence_order(errors, args.Ns)
        for i, (N, err) in enumerate(zip(args.Ns, errors)):
            shown = "   --" if i == 0 else "%5.2f" % orders[i - 1]
            print("%5.2f  %5d  %9.3g   %s" % (alpha, N, err, shown))
            rows.append((alpha, N, err, "" if i == 0 else orders[i - 1]))
    write_csv(_out_path(args, name), "alpha,N,error,order", rows)
    _write_meta(args, [name])
    return 0


def _cmd_caputo_convergence(args) -> int:
    meshes = _graded_meshes(args.Ns, args.T)
    return _convergence_table(
        args, "caputo_convergence.csv",
        ((alpha, [_caputo_error(alpha, mesh) for mesh in meshes])
         for alpha in args.alphas))


def _config(args, alpha, mesh, **fields) -> SolverConfig:
    """The run's SolverConfig: the _add_physics flags plus the given fields.

    A value SolverConfig rejects is a usage error.
    """
    with _flag_values():
        return SolverConfig(alpha=alpha, kappa=args.kappa,
                            epsilon=args.epsilon, mesh=mesh, M=args.M,
                            iteration_tol=args.tol, **fields)


def _tfch_errors(configs):
    """Terminal-state errors of the runs configs[1:] against configs[0]'s."""
    ref = solve(configs[0]).U[-1]
    return [float(np.max(np.abs(solve(cfg).U[-1] - ref)))
            for cfg in configs[1:]]


def _cmd_tfch_convergence(args) -> int:
    if args.N0 <= max(args.Ns):
        raise UsageError("--N0 must exceed every entry of --Ns")
    meshes = _graded_meshes([args.N0] + args.Ns, args.T)
    configs = [[_config(args, alpha, mesh, initial=quartic_bump)
                for mesh in meshes] for alpha in args.alphas]
    return _convergence_table(
        args, "tfch_convergence.csv",
        ((alpha, _tfch_errors(cfgs))
         for alpha, cfgs in zip(args.alphas, configs)))


def _write_state_csv(u, path: str) -> None:
    """Write `x,u` over the closed grid: the interior values u between
    the two zero boundary values."""
    values = np.pad(u, 1)
    write_csv(path, "x,u", zip(np.linspace(0.0, 1.0, values.size), values))


def _cmd_tfch_run(args) -> int:
    if args.alpha is None:
        raise UsageError("tfch-run requires --alpha (flag or config)")
    if args.dump_states < 0:
        raise UsageError("--dump-states must be at least 0")
    mesh = _build_mesh(args)
    initial = quartic_bump if args.initial == "quartic-bump" else _zero_initial
    source = None if args.source == "none" else "manufactured"
    history, series = diagnostics._run_series(_config(
        args, args.alpha, mesh, source=source, initial=initial,
        max_iterations=args.max_iterations))

    diagnostics.write_energy_csv(series, _out_path(args, "energy.csv"))
    diagnostics.write_mass_csv(series, _out_path(args, "mass.csv"))
    outputs = ["energy.csv", "mass.csv", "validators.csv",
               "terminal_state.csv"]
    write_csv(_out_path(args, "validators.csv"), "kind,violations,first_level",
              ((kind, len(levels), levels[0] if levels else "")
               for kind, levels in sorted(history.violations.items())))
    _write_state_csv(history.U[-1], _out_path(args, "terminal_state.csv"))
    if args.dump_states > 0:
        for n in range(0, mesh.N + 1, args.dump_states):
            name = "state_%04d.csv" % n
            _write_state_csv(history.U[n], _out_path(args, name))
            outputs.append(name)

    notes = ["iterations total=%d max=%d" % (history.iterations.sum(),
                                             history.iterations.max())]
    for kind in sorted(history.violations):
        levels = history.violations[kind]
        notes.append("validator %s: %d violations%s" % (
            kind, len(levels),
            " (first at n=%d)" % levels[0] if levels else ""))
    notes.append("lipschitz constant %s, step limit %s"
                 % (fmt(history.lipschitz_constant),
                    fmt(history.lipschitz_limit)))
    drift = float(np.max(np.abs(series.mass - series.mass[0])))
    notes.append("max mass drift %s" % fmt(drift))
    _write_meta(args, outputs, notes)
    print("energy: E0 = %.6f, EN = %.6f; max mass drift %.3e"
          % (series.free_energy[0], series.free_energy[-1], drift))
    return 0


def _cmd_manufactured(args) -> int:
    outputs = []
    notes = []
    # every config before the first run, so that a refused value writes
    # nothing
    configs = [[_config(args, alpha, mesh, source="manufactured",
                        initial=_zero_initial) for alpha in args.alphas]
               for mesh in _graded_meshes(args.Ns, args.T)]
    for N, runs in zip(args.Ns, configs):
        detail, summary = [], []
        for alpha, cfg in zip(args.alphas, runs):
            history = solve(cfg)
            x = np.linspace(0.0, 1.0, args.M + 1)
            exact = manufactured_solution(x, args.T, alpha)
            numeric = np.pad(history.U[-1], 1)
            err = np.abs(exact - numeric)
            detail.extend((alpha,) + cells
                          for cells in zip(x, exact, numeric, err))
            max_err = float(err.max())
            summary.append((alpha, max_err))
            notes.append("N=%d alpha=%s max error %s"
                         % (N, fmt(alpha), fmt(max_err)))
            print("N=%4d  alpha=%4.2f  max error %.3e" % (N, alpha, max_err))
        detail_name = "manufactured_N%d.csv" % N
        summary_name = "summary_N%d.csv" % N
        write_csv(_out_path(args, detail_name),
                  "alpha,x,exact,numeric,abs_error", detail)
        write_csv(_out_path(args, summary_name), "alpha,max_error", summary)
        outputs.extend([detail_name, summary_name])
    _write_meta(args, outputs, notes)
    return 0


def _cmd_verify(args) -> int:
    # imported here: only verify uses it, and every other command would
    # pay for compiling and running it at start-up
    from ._verification import run_verification_suite
    results = run_verification_suite(args.seed)
    failed = 0
    lines = []
    for r in results:
        if r.passed:
            tag = "WARN" if r.warning else "PASS"
        else:
            tag = "FAIL"
            failed += 1
        line = "%s %s: %s" % (tag, r.name, r.detail)
        lines.append(line)
        print(line)
    if args.out is not None:
        _write_meta(args, [], lines)
    print("%d/%d checks passed" % (len(results) - failed, len(results)))
    return 1 if failed else 0


_DISPATCH = {
    "rho-star": _cmd_rho_star,
    "mesh": _cmd_mesh,
    "caputo-convergence": _cmd_caputo_convergence,
    "tfch-convergence": _cmd_tfch_convergence,
    "tfch-run": _cmd_tfch_run,
    "manufactured": _cmd_manufactured,
    "verify": _cmd_verify,
}


def main(argv=None) -> int:
    parser, registry = build_parser()
    ns, _ = parser.parse_known_args(argv)
    if ns.command is None:
        parser.error("a subcommand is required")
    if getattr(ns, "config", None):
        try:
            values = _load_config_file(ns.config)
            _apply_config(registry[ns.command], values, parser)
        except (OSError, ValueError) as exc:
            print("usage error: %s" % exc, file=sys.stderr)
            return 2
    args = parser.parse_args(argv)
    try:
        return _DISPATCH[args.command](args)
    except UsageError as exc:
        print("usage error: %s" % exc, file=sys.stderr)
        return 2
    except Exception as exc:  # surface the message, keep the exit contract
        print("error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
