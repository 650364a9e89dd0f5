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
from .applications import color_transfer, distance_matrix
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
    count_clusters,
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
from .samplers import (
    SAMPLERS,
    sample_banana,
    sample_funnel,
    sample_normal,
    sample_softmax_pushforward,
    sample_swiss_roll,
)


def _add_solver_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--eps", default="auto",
                        help="cutoff: a number, or auto | rule | crit")
    parser.add_argument("--eps-hat", type=float, default=0.0,
                        help="ridge regularizer for the linear estimator")
    parser.add_argument("--dt", type=float, default=0.1)
    parser.add_argument("--max-steps", type=int, default=1000)
    parser.add_argument("--gamma-abs", type=float, default=0.01)
    parser.add_argument("--gamma-rel", type=float, default=1e-4)
    parser.add_argument("--window", type=int, default=50,
                        help="stagnation window in steps")
    parser.add_argument("--estimator", choices=[ESTIMATOR_CONSTANT, ESTIMATOR_LINEAR],
                        default=ESTIMATOR_LINEAR)
    parser.add_argument("--stepper", choices=[STEPPER_EULER, STEPPER_RK4],
                        default=STEPPER_RK4)
    parser.add_argument("--seed", type=int, default=0)


def _add_common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--out", default=".", help="output directory")
    parser.add_argument("--threads", type=int,
                        default=int(os.environ.get("OCD_THREADS", "1")))
    parser.add_argument("--deterministic", action="store_true",
                        help="accepted for interface stability; runs are "
                             "always deterministic")


def _resolve_epsilon(spec: str, x: np.ndarray, y: np.ndarray) -> float:
    if spec == "auto":
        return auto_epsilon(x, y)
    if spec == "rule":
        return epsilon_rule_of_thumb(x.shape[1], x.shape[0])
    if spec == "crit":
        grid = default_epsilon_grid(x)
        curve = [(e, count_clusters(x, e).n_clusters) for e in grid]
        return epsilon_crit(curve).epsilon
    try:
        return float(spec)
    except ValueError:
        raise InvalidConfig(
            f"--eps must be a number or one of auto|rule|crit, got {spec!r}"
        ) from None


def _make_config(args, epsilon: float) -> SolverConfig:
    return SolverConfig(
        epsilon=epsilon,
        epsilon_hat=args.eps_hat,
        dt=args.dt,
        max_steps=args.max_steps,
        gamma_abs=args.gamma_abs,
        gamma_rel=args.gamma_rel,
        stagnation_window=args.window,
        estimator=args.estimator,
        stepper=args.stepper,
        seed=args.seed,
    )


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
    x = ocd_io.read_samples_csv(args.x)
    y = ocd_io.read_samples_csv(args.y)
    epsilon = _resolve_epsilon(args.eps, x, y)
    config = _make_config(args, epsilon)
    result = run(new_ensemble(x, y), l2_cost_model(), config)
    out = _out_dir(args)
    final = result.final_ensemble
    ocd_io.write_pairs_csv(final.x_samples, final.y_samples, out / "pairs.csv")
    ocd_io.write_diagnostics_jsonl(result.diagnostics, out / "diagnostics.jsonl")
    _write_manifest(args, "solve", config, {"x": args.x, "y": args.y}, out,
                    extra={"eps_flag": args.eps, "resolved_epsilon": epsilon})
    print(f"terminated: {result.termination} at step {final.step_index}, "
          f"cost {result.final_cost!r}")
    return 0


def cmd_sweep_eps(args) -> int:
    x = ocd_io.read_samples_csv(args.x)
    y = ocd_io.read_samples_csv(args.y)
    grid = [float(tok) for tok in args.grid.split(",")]
    config = _make_config(args, grid[0])
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
    out = _out_dir(args)
    with open(out / "riccati.csv", "w", encoding="utf-8", newline="\n") as fh:
        fh.write("time,j,kappa,kappa_closed_form\n")
        for t, j in zip(times, traj):
            kappa = float(j[0, 0]) / (sigma_mu * sigma_nu)
            closed = kappa_closed_form(sigma_mu, sigma_nu, float(t))
            fh.write(f"{float(t)!r},{float(j[0, 0])!r},{kappa!r},{closed!r}\n")
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
    with open(out / "assignment.csv", "w", encoding="utf-8", newline="\n") as fh:
        fh.write("index,assignment\n")
        for i, j in enumerate(coupling.assignment):
            fh.write(f"{i},{j}\n")
    _write_manifest(args, "emd", None, {"x": args.x, "y": args.y}, out,
                    extra={"d2": coupling.total_cost})
    print(f"d2 = {coupling.total_cost!r}")
    return 0


def cmd_dist_matrix(args) -> int:
    datasets = [ocd_io.read_samples_csv(p) for p in args.inputs]
    if len(datasets) < 2:
        raise InvalidConfig(f"need at least 2 datasets, got {len(datasets)}")
    epsilon = _resolve_epsilon(args.eps, datasets[0], datasets[1])
    config = dataclasses.replace(_make_config(args, epsilon),
                                 record_diagnostics=False)
    matrix = distance_matrix(datasets, config, n_threads=max(1, args.threads))
    out = _out_dir(args)
    ocd_io.write_samples_csv(matrix, out / "distances.csv")
    _write_manifest(args, "dist-matrix", config,
                    {f"dataset_{i}": p for i, p in enumerate(args.inputs)}, out)
    print(f"wrote {matrix.shape[0]}x{matrix.shape[1]} distance matrix")
    return 0


def cmd_color_transfer(args) -> int:
    source = ocd_io.read_ppm(args.source)
    target = ocd_io.read_ppm(args.target)
    epsilon = _resolve_epsilon(args.eps, source.pixels, target.pixels)
    config = dataclasses.replace(_make_config(args, epsilon),
                                 record_diagnostics=False)
    result = color_transfer(source, target, config, args.alpha, args.n_train)
    out = _out_dir(args)
    ocd_io.write_ppm(result, out / "transferred.ppm")
    _write_manifest(args, "color-transfer", config,
                    {"source": args.source, "target": args.target}, out,
                    extra={"alpha": args.alpha, "n_train": args.n_train})
    print(f"wrote {result.width}x{result.height} image")
    return 0


def cmd_sample(args) -> int:
    if args.dist == "normal":
        mean = np.array([float(t) for t in args.mean.split(",")]) \
            if args.mean else np.zeros(args.dim)
        if args.cov:
            rows = [r.split(",") for r in args.cov.split(";")]
            cov = np.array([[float(t) for t in r] for r in rows])
        else:
            cov = np.eye(mean.size)
        samples = sample_normal(args.n, mean, cov, seed=args.seed)
    elif args.dist == "banana":
        samples = sample_banana(args.n, seed=args.seed)
    elif args.dist == "funnel":
        samples = sample_funnel(args.n, dim=args.dim, seed=args.seed)
    elif args.dist == "swiss-roll":
        samples = sample_swiss_roll(args.n, seed=args.seed)
    else:
        samples = sample_softmax_pushforward(args.n, dim=args.dim, seed=args.seed)
    ocd_io.write_samples_csv(samples, args.out_file)
    out = Path(args.out_file).resolve().parent
    _write_manifest(args, "sample", None, {}, out,
                    extra={"dist": args.dist, "n": args.n, "dim": args.dim,
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
    _add_solver_flags(p)
    _add_common_flags(p)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("sweep-eps", help="one solver run per grid cutoff")
    p.add_argument("--x", required=True)
    p.add_argument("--y", required=True)
    p.add_argument("--grid", required=True, help="comma-separated cutoffs")
    _add_solver_flags(p)
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

    p = sub.add_parser("sample", help="generate built-in test marginals")
    p.add_argument("--dist", required=True,
                   choices=list(SAMPLERS))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--dim", type=int, default=2)
    p.add_argument("--mean", default=None, help="comma-separated values")
    p.add_argument("--cov", default=None, help="rows joined by ';'")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-file", default="samples.csv")
    _add_common_flags(p)
    p.set_defaults(func=cmd_sample)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"error: ParseError: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except OcdError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
