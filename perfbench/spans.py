"""In-memory spans around calls into ocd's layers, and the per-layer metrics.

The benchmark replaces module attributes with timing wrappers: a function
is traced under the name by which its caller looks it up, so
``ocd.dynamics.build_index`` and ``ocd.epsilon.build_index`` are separate
spans of the same function.  A name that no longer exists is recorded as
absent, and every metric that depends on it is reported as null.  Span
times are CPU seconds of the process, the clock of the worker's timings.
"""

from __future__ import annotations

import importlib
import os
import time

# (module attribute path, span name) per caller; "ocd" is the package itself
DYNAMICS_HOOKS = [
    ("ocd.dynamics", "build_index", "neighbors.build_index"),
    ("ocd.dynamics", "neighbor_csr", "neighbors.neighbor_csr"),
    ("ocd.dynamics", "cluster_count_csr", "neighbors.cluster_count_csr"),
    ("ocd.dynamics", "_piecewise_linear_from_csr", "estimators.linear"),
    ("ocd.dynamics", "_piecewise_constant_from_csr", "estimators.constant"),
    ("ocd.dynamics", "transport_cost", "diagnostics.transport_cost"),
    ("ocd.dynamics", "cross_correlation", "diagnostics.cross_correlation"),
    ("ocd.dynamics", "spd_margin", "diagnostics.spd_margin"),
    ("ocd.dynamics", "marginal_drift", "diagnostics.marginal_drift"),
    ("ocd.dynamics", "moment_summary", "diagnostics.moment_summary"),
    ("ocd.epsilon", "build_index", "epsilon.build_index"),
    ("ocd.epsilon", "neighbor_csr", "epsilon.neighbor_csr"),
]
LIBRARY_HOOKS = [
    ("ocd", "auto_epsilon", "epsilon.auto_epsilon"),
    ("ocd", "new_ensemble", "core.new_ensemble"),
    ("ocd", "run", "dynamics.run"),
]
CLI_HOOKS = [
    ("ocd.cli", "auto_epsilon", "epsilon.auto_epsilon"),
    ("ocd.cli", "new_ensemble", "core.new_ensemble"),
    ("ocd.cli", "run", "dynamics.run"),
    ("ocd.cli.ocd_io", "read_samples_csv", "io.read_samples_csv"),
    ("ocd.cli.ocd_io", "write_pairs_csv", "io.write_pairs_csv"),
    ("ocd.cli.ocd_io", "write_diagnostics_jsonl", "io.write_diagnostics_jsonl"),
    ("ocd.cli.ocd_io", "write_manifest", "io.write_manifest"),
]

_MB = float(1 << 20)


def _csr_attrs(args, result):
    indptr, cols = result
    return {"pairs": int(cols.shape[0]), "rows": int(indptr.shape[0] - 1),
            "bytes": int(indptr.nbytes + cols.nbytes)}


def _estimator_attrs(per_pair_floats):
    # Computed, not measured: the nnz-long temporaries that the gather-based
    # estimators build per marginal (the two marginals run one after the
    # other): per_pair_floats(d) float64 columns plus one int64 row id.
    def attrs(args, result):
        d = args[0].x_samples.shape[1]
        nnz_x, nnz_y = int(args[2][1].shape[0]), int(args[3][1].shape[0])
        per_pair = 8 * (per_pair_floats(d) + 1)
        return {"pairs": nnz_x + nnz_y, "gather_bytes": per_pair * max(nnz_x, nnz_y)}
    return attrs


def _file_attrs(args, result):
    return {"bytes": os.path.getsize(args[-1])}


def _run_attrs(args, result):
    return {"steps": int(result.final_ensemble.step_index)}


ATTRS = {
    "neighbors.neighbor_csr": _csr_attrs,
    # linear: pos[cols], grad[cols], dpos, dgrad; constant (L2): y[cols]
    "estimators.linear": _estimator_attrs(lambda d: 4 * d),
    "estimators.constant": _estimator_attrs(lambda d: d),
    "io.read_samples_csv": _file_attrs,
    "io.write_pairs_csv": _file_attrs,
    "io.write_diagnostics_jsonl": _file_attrs,
    "io.write_manifest": _file_attrs,
    "dynamics.run": _run_attrs,
}


class Tracer:
    """Records one span per wrapped call; spans stay in memory."""

    def __init__(self):
        self.spans: list[dict] = []
        self.absent: list[str] = []
        self._stack: list[int] = []

    def install(self, hooks) -> None:
        for owner_path, attr, name in hooks:
            try:
                owner = _resolve(owner_path)
                fn = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.absent.append(name)
                continue
            setattr(owner, attr, self._wrap(fn, name))

    def _wrap(self, fn, name):
        attrs_of = ATTRS.get(name)

        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            span = {"name": name, "parent": parent, "child_s": 0.0}
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span["start"] = time.process_time()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.process_time()
                self._stack.pop()
                if parent >= 0:
                    self.spans[parent]["child_s"] += span["end"] - span["start"]
            if attrs_of is not None:
                span.update(attrs_of(args, result))
            return result

        return traced


def layer_metrics(spans: list[dict], absent: list[str]) -> dict:
    """Per-layer metrics of one traced operation; None marks an absent name.

    ``.s`` is self time (span minus its traced children) summed over calls,
    except ``dynamics.run.s`` and ``epsilon.auto_epsilon.s``, which are
    whole spans: the children of auto_epsilon are the ε layer's own.
    """
    by_name: dict[str, list[dict]] = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s)

    def calls(name):
        return len(by_name.get(name, ()))

    def self_s(name):
        return sum((s["end"] - s["start"] - s["child_s"] for s in by_name.get(name, ())), 0.0)

    def total_s(name):
        return sum((s["end"] - s["start"] for s in by_name.get(name, ())), 0.0)

    def attr_sum(name, key):
        return sum(s[key] for s in by_name.get(name, ()))

    def attr_max(name, key):
        return max((s[key] for s in by_name.get(name, ())), default=0)

    def ratio(num, den):
        return num / den if den else 0.0

    diag_names = [name for _, _, name in DYNAMICS_HOOKS if name.startswith("diagnostics.")]
    est = ("estimators.linear", "estimators.constant")
    io_writes = ("io.write_pairs_csv", "io.write_diagnostics_jsonl", "io.write_manifest")
    steps = attr_sum("dynamics.run", "steps")

    metrics = {
        "neighbors.build_index.calls": (calls("neighbors.build_index"), ["neighbors.build_index"]),
        "neighbors.build_index.s": (self_s("neighbors.build_index"), ["neighbors.build_index"]),
        "neighbors.builds_per_step": (ratio(calls("neighbors.build_index"), steps),
                                      ["neighbors.build_index", "dynamics.run"]),
        "neighbors.neighbor_csr.calls": (calls("neighbors.neighbor_csr"), ["neighbors.neighbor_csr"]),
        "neighbors.neighbor_csr.s": (self_s("neighbors.neighbor_csr"), ["neighbors.neighbor_csr"]),
        "neighbors.neighbor_csr.pairs": (attr_sum("neighbors.neighbor_csr", "pairs"),
                                         ["neighbors.neighbor_csr"]),
        "neighbors.mean_cluster_size": (ratio(attr_sum("neighbors.neighbor_csr", "pairs"),
                                              attr_sum("neighbors.neighbor_csr", "rows")),
                                        ["neighbors.neighbor_csr"]),
        "neighbors.csr_mb": (attr_max("neighbors.neighbor_csr", "bytes") / _MB,
                             ["neighbors.neighbor_csr"]),
        "neighbors.cluster_count_csr.s": (self_s("neighbors.cluster_count_csr"),
                                          ["neighbors.cluster_count_csr"]),
        "estimators.gather_mb": (max(attr_max(n, "gather_bytes") for n in est) / _MB, list(est)),
        "estimators.linear.calls": (calls("estimators.linear"), ["estimators.linear"]),
        "estimators.linear.s": (self_s("estimators.linear"), ["estimators.linear"]),
        "estimators.constant.calls": (calls("estimators.constant"), ["estimators.constant"]),
        "estimators.constant.s": (self_s("estimators.constant"), ["estimators.constant"]),
        "estimators.pairs_per_s": (ratio(sum(attr_sum(n, "pairs") for n in est),
                                         sum(self_s(n) for n in est)), list(est)),
        "diagnostics.calls": (sum(calls(n) for n in diag_names), diag_names),
        "diagnostics.s": (sum(self_s(n) for n in diag_names), diag_names),
        "dynamics.run.s": (total_s("dynamics.run"), ["dynamics.run"]),
        "dynamics.run.self_s": (self_s("dynamics.run"), ["dynamics.run"]),
        "dynamics.steps": (steps, ["dynamics.run"]),
        "epsilon.auto_epsilon.s": (total_s("epsilon.auto_epsilon"), ["epsilon.auto_epsilon"]),
        "epsilon.build_index.calls": (calls("epsilon.build_index"), ["epsilon.build_index"]),
        "epsilon.neighbor_csr.calls": (calls("epsilon.neighbor_csr"), ["epsilon.neighbor_csr"]),
        "io.read_samples_csv.s": (self_s("io.read_samples_csv"), ["io.read_samples_csv"]),
        "io.read_mb_per_s": (ratio(attr_sum("io.read_samples_csv", "bytes") / _MB,
                                   self_s("io.read_samples_csv")), ["io.read_samples_csv"]),
        "io.write_pairs_csv.s": (self_s("io.write_pairs_csv"), ["io.write_pairs_csv"]),
        "io.write_mb_per_s": (ratio(sum(attr_sum(n, "bytes") for n in io_writes) / _MB,
                                    sum(self_s(n) for n in io_writes)), list(io_writes)),
        "io.write_diagnostics_jsonl.s": (self_s("io.write_diagnostics_jsonl"),
                                         ["io.write_diagnostics_jsonl"]),
        "io.write_manifest.s": (self_s("io.write_manifest"), ["io.write_manifest"]),
        "core.new_ensemble.s": (self_s("core.new_ensemble"), ["core.new_ensemble"]),
    }
    missing = set(absent)
    return {name: (None if missing.intersection(deps) else value)
            for name, (value, deps) in metrics.items()}


def _resolve(path: str):
    """The module, or module attribute such as ``ocd.cli.ocd_io``, at path."""
    try:
        return importlib.import_module(path)
    except ModuleNotFoundError:
        owner, _, attr = path.rpartition(".")
        if not owner:
            raise
        return getattr(_resolve(owner), attr)
