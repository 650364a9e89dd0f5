"""Command-line front end.

Subcommands: solve, sweep-eps, gaussian-oracle, emd, dist-matrix,
color-transfer, sample.  Every run writes a manifest next to its outputs;
repeating a run with the same arguments and seed reproduces the primary
outputs byte for byte.

Exit codes: 0 success, 1 domain error, 2 malformed input file.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
from pathlib import Path

import numpy as np

from . import io as ocd_io
from .applications import _check_alpha, _training_pixels, color_transfer, distance_matrix
from .core import (
    ESTIMATOR_CONSTANT,
    ESTIMATOR_LINEAR,
    STEPPER_EULER,
    STEPPER_RK4,
    SolverConfig,
    l2_cost_model,
    new_ensemble,
)
from .dynamics import run
from .emd import emd
from .epsilon import (
    auto_epsilon,
    cluster_curve,
    default_epsilon_grid,
    epsilon_crit,
    epsilon_rule_of_thumb,
    epsilon_sweep,
)
from .errors import InvalidConfig, OcdError, ParseError
from .gaussian import (
    GaussianPair,
    gaussian_ot_optimum,
    integrate_riccati,
    kappa_closed_form,
)
from .neighbors import build_index
from .samplers import (
    SAMPLERS,
    sample_banana,
    sample_funnel,
    sample_normal,
    sample_softmax_pushforward,
    sample_swiss_roll,
)


_EPSILON_RULES = ("auto", "rule", "crit")


def _add_solver_flags(parser: argparse.ArgumentParser, eps=True, seed=True) -> None:
    # a command takes --eps and --seed only where they change its outputs
    default = {f.name: f.default for f in dataclasses.fields(SolverConfig)}
    if eps:
        parser.add_argument("--eps", default="auto",
                            help="cutoff: a number, or " + " | ".join(_EPSILON_RULES))
    parser.add_argument("--eps-hat", dest="epsilon_hat", metavar="EPS_HAT", type=float,
                        default=default["epsilon_hat"],
                        help="ridge regularizer for the linear estimator")
    parser.add_argument("--dt", type=float, default=default["dt"])
    parser.add_argument("--max-steps", type=int, default=default["max_steps"])
    parser.add_argument("--gamma-abs", type=float, default=default["gamma_abs"])
    parser.add_argument("--gamma-rel", type=float, default=default["gamma_rel"])
    parser.add_argument("--window", dest="stagnation_window", metavar="WINDOW", type=int,
                        default=default["stagnation_window"], help="stagnation window in steps")
    parser.add_argument("--estimator", choices=[ESTIMATOR_CONSTANT, ESTIMATOR_LINEAR],
                        default=default["estimator"])
    parser.add_argument("--stepper", choices=[STEPPER_EULER, STEPPER_RK4],
                        default=default["stepper"])
    if seed:
        parser.add_argument("--seed", type=int, default=default["seed"])


def _add_common_flags(parser: argparse.ArgumentParser, out=True) -> None:
    if out:
        parser.add_argument("--out", default=".", help="output directory")
    parser.add_argument("--deterministic", action="store_true",
                        help="accepted for interface stability; runs are "
                             "always deterministic")


def _parse_epsilon(spec: str) -> float:
    """--eps as a number; a named rule stands in as 1.0 until _resolve_epsilon."""
    try:
        return 1.0 if spec in _EPSILON_RULES else float(spec)
    except ValueError:
        raise InvalidConfig(f"--eps must be a number or one of "
                            f"{'|'.join(_EPSILON_RULES)}, got {spec!r}") from None


def _resolve_epsilon(config: SolverConfig, spec: str, x, y) -> SolverConfig:
    """config at the ε that the named rule spec reads off x and y; a number is kept."""
    if spec == "auto":
        epsilon = auto_epsilon(x, y)
    elif spec == "rule":
        epsilon = epsilon_rule_of_thumb(x.shape[1], x.shape[0])
    elif spec == "crit":
        index = build_index(x)
        grid = default_epsilon_grid(index)
        epsilon = epsilon_crit(zip(grid, cluster_curve(index, grid))).epsilon
    else:
        return config
    return dataclasses.replace(config, epsilon=epsilon)


def _make_config(args, epsilon: float, **fields) -> SolverConfig:
    # every solver flag but --eps stores under its SolverConfig field's name
    return SolverConfig(epsilon=epsilon, **fields, **{
        f.name: getattr(args, f.name)
        for f in dataclasses.fields(SolverConfig) if hasattr(args, f.name)})


def _write_manifest(args, subcommand, config, inputs, out_dir, extra=None) -> None:
    manifest = ocd_io.RunManifest(
        subcommand=subcommand,
        config=config,
        inputs=inputs,
        output_dir=str(out_dir),
        seed=getattr(args, "seed", 0),
        extra=extra or {},
    )
    ocd_io.write_manifest(manifest, out_dir / "manifest.json")


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_solve(args) -> int:
    config = _make_config(args, _parse_epsilon(args.eps))
    x = ocd_io.read_samples_csv(args.x)
    y = ocd_io.read_samples_csv(args.y)
    config = _resolve_epsilon(config, args.eps, x, y)
    result = run(new_ensemble(x, y), l2_cost_model(), config)
    out = _out_dir(args)
    final = result.final_ensemble
    ocd_io.write_pairs_csv(final.x_samples, final.y_samples, out / "pairs.csv")
    ocd_io.write_diagnostics_jsonl(result.diagnostics, out / "diagnostics.jsonl")
    _write_manifest(args, "solve", config, {"x": args.x, "y": args.y}, out,
                    extra={"eps_flag": args.eps, "resolved_epsilon": config.epsilon})
    print(f"terminated: {result.termination} at step {final.step_index}, "
          f"cost {result.final_cost!r}")
    return 0


def cmd_sweep_eps(args) -> int:
    grid = _parse_rows("--grid", args.grid, one_row=True).tolist()
    config = _make_config(args, grid[0])
    x = ocd_io.read_samples_csv(args.x)
    y = ocd_io.read_samples_csv(args.y)
    rows = epsilon_sweep(x, y, l2_cost_model(), config, grid)
    out = _out_dir(args)
    ocd_io.write_sweep_csv(rows, out / "sweep.csv")
    _write_manifest(args, "sweep-eps", config, {"x": args.x, "y": args.y}, out,
                    extra={"grid": grid})
    failed = sum(r.failed for r in rows)
    print(f"swept {len(rows)} cutoffs, {failed} failed rows")
    return 0


def cmd_gaussian_oracle(args) -> int:
    sigma_mu, sigma_nu = args.sigma_mu, args.sigma_nu
    pair = GaussianPair(np.array([[sigma_mu**2]]), np.array([[sigma_nu**2]]))
    times, traj = integrate_riccati(pair, np.zeros((1, 1)), args.dt, args.t_final)
    j_opt, d2 = gaussian_ot_optimum(pair)
    # every row is built, and so every flag checked, before the output directory exists
    rows = [[t, j, j / (sigma_mu * sigma_nu), kappa_closed_form(sigma_mu, sigma_nu, t)]
            for t, j in zip(times.tolist(), traj[:, 0, 0].tolist())]
    out = _out_dir(args)
    ocd_io.write_csv(out / "riccati.csv", ["time", "j", "kappa", "kappa_closed_form"], rows)
    _write_manifest(args, "gaussian-oracle", None,
                    {"sigma_mu": sigma_mu, "sigma_nu": sigma_nu}, out,
                    extra={"d2": d2, "j_opt": j_opt.tolist(),
                           "dt": args.dt, "t_final": args.t_final})
    print(f"d2 = {d2!r}")
    return 0


def cmd_emd(args) -> int:
    x = ocd_io.read_samples_csv(args.x)
    y = ocd_io.read_samples_csv(args.y)
    coupling = emd(x, y, l2_cost_model())
    out = _out_dir(args)
    ocd_io.write_csv(out / "assignment.csv", ["index", "assignment"],
                     enumerate(coupling.assignment.tolist()))
    _write_manifest(args, "emd", None, {"x": args.x, "y": args.y}, out,
                    extra={"d2": coupling.total_cost})
    print(f"d2 = {coupling.total_cost!r}")
    return 0


def cmd_dist_matrix(args) -> int:
    config = _make_config(args, _parse_epsilon(args.eps), record_diagnostics=False)
    if len(args.inputs) < 2:
        raise InvalidConfig(f"need at least 2 datasets, got {len(args.inputs)}")
    datasets = [ocd_io.read_samples_csv(p) for p in args.inputs]
    config = _resolve_epsilon(config, args.eps, datasets[0], datasets[1])
    matrix = distance_matrix(datasets, config, n_threads=max(1, args.threads))
    out = _out_dir(args)
    ocd_io.write_samples_csv(matrix, out / "distances.csv")
    _write_manifest(args, "dist-matrix", config,
                    {f"dataset_{i}": p for i, p in enumerate(args.inputs)}, out)
    print(f"wrote {matrix.shape[0]}x{matrix.shape[1]} distance matrix")
    return 0


def cmd_color_transfer(args) -> int:
    config = _make_config(args, _parse_epsilon(args.eps), record_diagnostics=False)
    _check_alpha(args.alpha)
    source = ocd_io.read_ppm(args.source)
    target = ocd_io.read_ppm(args.target)
    if args.alpha > 0.0:
        # ε is resolved on the subsample the transport is solved on
        x0, y0 = _training_pixels(source, target, args.n_train, args.seed)
        config = _resolve_epsilon(config, args.eps, x0, y0)
    result = color_transfer(source, target, config, args.alpha, args.n_train)
    if args.alpha == 0.0 and args.eps in _EPSILON_RULES:
        config = None   # nothing was solved and no rule ran: no config to record
    out = _out_dir(args)
    ocd_io.write_ppm(result, out / "transferred.ppm")
    _write_manifest(args, "color-transfer", config,
                    {"source": args.source, "target": args.target}, out,
                    extra={"alpha": args.alpha, "n_train": args.n_train})
    print(f"wrote {result.width}x{result.height} image")
    return 0


def _parse_rows(flag: str, spec: str, one_row: bool = False) -> np.ndarray:
    """Comma-separated numbers, rows joined by ';', as a 2-D array (1-D for one_row)."""
    try:
        # ragged rows make np.array raise ValueError too
        rows = np.array([[float(t) for t in row.split(",")] for row in spec.split(";")])
    except ValueError:
        raise InvalidConfig(
            f"{flag} takes comma-separated numbers with rows joined by ';', "
            f"got {spec!r}"
        ) from None
    if one_row and rows.shape[0] != 1:
        raise InvalidConfig(f"{flag} takes one row, got {spec!r}")
    return rows[0] if one_row else rows


def cmd_sample(args) -> int:
    if args.n < 1 or (args.dim is not None and args.dim < 1):
        raise InvalidConfig(f"--n and --dim must be >= 1, got {args.n} and {args.dim}")
    if args.dist != "normal" and (args.mean is not None or args.cov is not None):
        raise InvalidConfig(f"--mean and --cov apply only to --dist normal, not {args.dist}")
    dim = 2 if args.dim is None else args.dim
    if args.dist == "normal":
        cov = None if args.cov is None else _parse_rows("--cov", args.cov)
        if args.mean is not None:
            mean = _parse_rows("--mean", args.mean, one_row=True)
        else:
            mean = np.zeros(dim if cov is None else cov.shape[0])
        samples = sample_normal(args.n, mean, np.eye(mean.size) if cov is None else cov,
                                seed=args.seed)
    elif args.dist == "banana":
        samples = sample_banana(args.n, seed=args.seed)
    elif args.dist == "funnel":
        samples = sample_funnel(args.n, dim=dim, seed=args.seed)
    elif args.dist == "swiss-roll":
        samples = sample_swiss_roll(args.n, seed=args.seed)
    else:
        samples = sample_softmax_pushforward(args.n, dim=dim, seed=args.seed)
    if args.dim is not None and args.dim != samples.shape[1]:
        raise InvalidConfig(f"--dim {args.dim} disagrees with the {samples.shape[1]} "
                            f"columns that --dist {args.dist} writes")
    ocd_io.write_samples_csv(samples, args.out_file)
    out = Path(args.out_file).resolve().parent
    _write_manifest(args, "sample", None, {}, out,
                    extra={"dist": args.dist, "n": args.n, "dim": samples.shape[1],
                           "mean": args.mean, "cov": args.cov,
                           "out_file": str(args.out_file)})
    print(f"wrote {args.n} samples to {args.out_file}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ocd",
        description="Particle solver for the Monge-Kantorovich problem",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("solve", help="pair two sample sets by transport")
    p.add_argument("--x", required=True)
    p.add_argument("--y", required=True)
    _add_solver_flags(p, seed=False)
    _add_common_flags(p)
    p.set_defaults(func=cmd_solve)

    # no abbreviations: sweep-eps takes no --eps, which would read as --eps-hat
    p = sub.add_parser("sweep-eps", help="one solver run per grid cutoff", allow_abbrev=False)
    p.add_argument("--x", required=True)
    p.add_argument("--y", required=True)
    p.add_argument("--grid", required=True, help="comma-separated cutoffs")
    _add_solver_flags(p, eps=False, seed=False)
    _add_common_flags(p)
    p.set_defaults(func=cmd_sweep_eps)

    p = sub.add_parser("gaussian-oracle",
                       help="Riccati trajectory and closed-form optimum")
    p.add_argument("--sigma-mu", type=float, default=1.0)
    p.add_argument("--sigma-nu", type=float, default=1.0)
    p.add_argument("--dt", type=float, default=1e-3)
    p.add_argument("--t-final", type=float, default=1.0)
    _add_common_flags(p)
    p.set_defaults(func=cmd_gaussian_oracle)

    p = sub.add_parser("emd", help="exact assignment between two sample sets")
    p.add_argument("--x", required=True)
    p.add_argument("--y", required=True)
    _add_common_flags(p)
    p.set_defaults(func=cmd_emd)

    p = sub.add_parser("dist-matrix",
                       help="pairwise transport distances between datasets")
    p.add_argument("--inputs", nargs="+", required=True)
    # a string default: argparse checks it (exit 2) only when dist-matrix runs
    p.add_argument("--threads", type=int, default=os.environ.get("OCD_THREADS", "1"))
    _add_solver_flags(p)
    _add_common_flags(p)
    p.set_defaults(func=cmd_dist_matrix)

    p = sub.add_parser("color-transfer", help="recolor an image by transport")
    p.add_argument("--source", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--n-train", type=int, default=2000)
    _add_solver_flags(p)
    _add_common_flags(p)
    p.set_defaults(func=cmd_color_transfer)

    # no abbreviations: sample takes no --out, which would read as --out-file
    p = sub.add_parser("sample", help="generate built-in test marginals", allow_abbrev=False)
    p.add_argument("--dist", required=True,
                   choices=list(SAMPLERS))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--dim", type=int, default=None,
                   help="columns to write (default 2, or the size of --mean/--cov)")
    p.add_argument("--mean", default=None, help="comma-separated values")
    p.add_argument("--cov", default=None, help="rows joined by ';'")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-file", default="samples.csv", help="manifest.json goes beside it")
    _add_common_flags(p, out=False)
    p.set_defaults(func=cmd_sample)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, OSError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except OcdError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
