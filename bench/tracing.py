"""Spans recorded from outside the package.

The wrappers replace module attributes where shrinkfit's callers look them
up at call time, so no file under ``src/`` changes. A target that no longer
exists is skipped and its metrics are reported as absent.

The Normal CDF used by the simulation scoring is bound by ``np.frompyfunc``
when ``shrinkfit.evaluate`` is imported, so it cannot be intercepted this way;
its time stays inside ``evaluate.self_ms``.
"""

from __future__ import annotations

import importlib
import json
import statistics
import time
from collections import defaultdict

# (module, attribute, span name). The fit spans are tagged with the method.
TARGETS = (
    ("cli", "read_dataset_csv", "cli.read"),
    ("cli", "fit", "fitters.fit"),
    ("cli", "random_effects", "inference.random_effects"),
    ("evaluate", "fit", "fitters.fit"),
    ("evaluate", "random_effects", "inference.random_effects"),
    ("fitters", "validate", "model.validate"),
    ("density", "AdjustedLogDensity.__call__", "density.eval"),
    ("density", "loglik_L0", "density.eval"),
    ("density", "profile_loglik", "density.eval"),
    ("density", "restricted_loglik", "density.eval"),
    ("specfun", "log_lower_regularized_gamma", "specfun.gamma"),
)

METHODS = ("adm", "mle", "reml", "exact")

# Span names each metric is computed from; a metric whose spans cannot be
# recorded (every target of that name is gone) is left out.
NEEDS = {
    "density.evals.": ("density.eval", "fitters.fit"),
    "density.eval_us": ("density.eval",),
    "fitters.": ("fitters.fit",),
    "model.": ("model.validate", "fitters.fit"),
    "inference.": ("inference.random_effects",),
    "specfun.gamma_calls": ("specfun.gamma", "fitters.fit"),
    "specfun.gamma_us": ("specfun.gamma",),
    "cli.read_ms": ("cli.read",),
}


def _method_tag(args, kwargs):
    method = kwargs.get("method", args[2] if len(args) > 2 else None)
    return getattr(method, "value", None)


class Tracer:
    """In-memory span recorder. A span is [id, parent id, name, start, end,
    tag]; ids start at 1 and parent 0 marks an op's root span."""

    def __init__(self):
        self.spans: list[list] = []
        self.missing: list[str] = []
        self.available: set[str] = set()
        self._stack = [0]
        self._targets = []
        for module_name, attr, name in TARGETS:
            owner = importlib.import_module(f"shrinkfit.{module_name}")
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            fn = getattr(owner, leaf, None) if owner is not None else None
            if fn is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            tag = _method_tag if name == "fitters.fit" else None
            self.available.add(name)
            self._targets.append((owner, leaf, fn, self._wrap(fn, name, tag)))

    def _wrap(self, fn, name, tag):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            rec = [len(spans) + 1, stack[-1], name, 0.0, 0.0,
                   tag(args, kwargs) if tag else None]
            spans.append(rec)
            stack.append(rec[0])
            rec[3] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[4] = clock()
                stack.pop()

        return traced

    def install(self) -> None:
        for owner, leaf, _, wrapped in self._targets:
            setattr(owner, leaf, wrapped)

    def uninstall(self) -> None:
        for owner, leaf, fn, _ in self._targets:
            setattr(owner, leaf, fn)

    def root(self, name: str, fn):
        """Run ``fn`` as an op under a root span."""
        return self._wrap(fn, name, None)()

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["id", "parent", "name", "start", "end", "tag"],
                       "missing": self.missing, "spans": self.spans}, fh)


def _mean(xs) -> float:
    return sum(xs) / len(xs) if xs else 0.0


def _median(xs) -> float:
    return statistics.median(xs) if xs else 0.0


def layer_metrics(spans: list[list], available: set[str]) -> tuple[dict, float]:
    """Per-layer metrics of a list of spans, and the largest relative gap
    between an op's duration and the sum of the self times in its tree.
    ``available`` names the span kinds that could be recorded."""
    dur = {s[0]: s[4] - s[3] for s in spans}
    parent = {s[0]: s[1] for s in spans}
    child_time: dict[int, float] = defaultdict(float)
    for s in spans:
        child_time[s[1]] += dur[s[0]]
    self_time = {sid: d - child_time[sid] for sid, d in dur.items()}

    name = {s[0]: s[2] for s in spans}
    method: dict[int, str | None] = {0: None}
    root: dict[int, int] = {}
    for sid, pid, span_name, _, _, tag in spans:  # parents come first
        method[sid] = tag if span_name == "fitters.fit" else method[pid]
        root[sid] = root[pid] if pid else sid

    by_name = defaultdict(list)
    for s in spans:
        by_name[s[2]].append(s[0])
    fits = by_name["fitters.fit"]
    n_fit = {m: sum(method[f] == m for f in fits) for m in METHODS}
    # restricted_loglik calls loglik_L0 when r = 0: count the outer call only
    evals = [e for e in by_name["density.eval"] if name.get(parent[e]) != "density.eval"]

    out: dict[str, float] = {}
    for m in METHODS:
        mine = [f for f in fits if method[f] == m]
        n_eval = sum(method[e] == m for e in evals)
        out[f"density.evals.{m}"] = n_eval / n_fit[m] if n_fit[m] else 0.0
        out[f"fitters.fit_us.{m}"] = 1e6 * _mean([dur[f] for f in mine])
        out[f"fitters.self_us.{m}"] = 1e6 * _mean([self_time[f] for f in mine])
    out["density.eval_us"] = 1e6 * _median([dur[e] for e in evals])
    out["model.validate_us"] = (
        1e6 * sum(dur[v] for v in by_name["model.validate"]) / len(fits) if fits else 0.0
    )
    out["inference.random_effects_us"] = 1e6 * _mean(
        [dur[r] for r in by_name["inference.random_effects"]]
    )
    runs = by_name["evaluate.run_coverage"]
    out["evaluate.op_ms"] = 1e3 * _mean([dur[r] for r in runs])
    out["evaluate.self_ms"] = 1e3 * _mean([self_time[r] for r in runs])
    total = sum(dur[r] for r in runs)
    out["evaluate.self_share"] = sum(self_time[r] for r in runs) / total if total else 0.0
    gammas = by_name["specfun.gamma"]
    n_gamma = sum(method[g] == "exact" for g in gammas)
    out["specfun.gamma_calls"] = n_gamma / n_fit["exact"] if n_fit["exact"] else 0.0
    out["specfun.gamma_us"] = 1e6 * _median([dur[g] for g in gammas])
    mains = by_name["cli.main"]
    out["cli.read_ms"] = 1e3 * _mean([dur[r] for r in by_name["cli.read"]])
    out["cli.self_ms"] = 1e3 * _mean([self_time[r] for r in mains])

    tree_self: dict[int, float] = defaultdict(float)
    for sid, st in self_time.items():
        tree_self[root[sid]] += st
    residual = max(
        (abs(tree_self[r] - dur[r]) / dur[r] for r in tree_self if dur[r] > 0.0),
        default=0.0,
    )
    for prefix, needs in NEEDS.items():
        if not available.issuperset(needs):
            for key in [k for k in out if k.startswith(prefix)]:
                del out[key]
    return out, residual
