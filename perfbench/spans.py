"""Spans around the pericone functions the pipeline calls, installed from outside.

A traced pass replaces the module attributes in ``WRAPS`` with wrappers that
record one span per call: id, name, start, end, parent id, problem index and
an optional per-call number (``note``).  The program's source is untouched:
every call the pipeline makes through one of these attributes passes through
a wrapper, and ``Tracer.restore`` puts the originals back.  Spans stay in
memory; the pass writes them once, with its result, when it ends.

Span names are ``<module>.<function>`` of the wrapped function, so the layer
of a span is the module that defines it: config, greens, cone, problem,
certify, operator, solver, cli.  Self time is a span's duration minus the
durations of its direct children.
"""
from __future__ import annotations

import functools
import importlib
import itertools
import threading
import time
from collections import defaultdict

LAYERS = ("config", "greens", "cone", "problem", "certify", "operator", "solver", "cli")


def _rk4_flag(args, result):
    return int(result is not None and result.k is None)


def _quadrature_bytes(args, result):
    return 8 * args[0].n_grid ** 2


def _unknowns(args, result):
    return int(args[2].values.size)


def _radii(args, result):
    return len(args[2])


def _count(args, result):
    return len(result) if result is not None else 0


def _converged(args, result):
    return int(result is not None and bool(result.converged))


def _verified(args, result):
    return int(result is not None)


# (module, attribute, note): the attributes the pipeline looks up at call
# time.  One function reached through several modules (apply_T,
# kernel_quadrature, find_solutions) shares one wrapper.
WRAPS = (
    ("pericone.cli", "main", None),
    ("pericone.cli", "load_config_file", None),
    ("pericone.cli", "parse_config", None),
    ("pericone.cli", "build_green_table", _rk4_flag),
    ("pericone.cli", "compute_constants", None),
    ("pericone.cli", "find_solutions", None),
    ("pericone.cli", "continue_lambda", None),
    ("pericone.cone", "thresholds_delta", None),
    ("pericone.solver", "find_solutions", None),
    ("pericone.solver", "existence_report", None),
    ("pericone.solver", "picard_solve", _converged),
    ("pericone.solver", "newton_refine", _unknowns),
    ("pericone.solver", "_verify_candidate", _verified),
    ("pericone.solver", "apply_T", None),
    ("pericone.solver", "kernel_quadrature", _quadrature_bytes),
    ("pericone.solver", "fixed_point_residual", None),
    ("pericone.solver", "ode_residual", None),
    ("pericone.solver", "cone_membership", None),
    ("pericone.operator", "apply_T", None),
    ("pericone.operator", "kernel_quadrature", _quadrature_bytes),
    ("pericone.certify", "scan_radii", _radii),
    ("pericone.certify", "annuli_from_scan", _count),
    ("pericone.certify", "eta_lower", None),
    ("pericone.certify", "annulus_extrema", None),
    ("pericone.certify", "fhat", None),
)


class Tracer:
    """Installs the wrappers, collects spans, restores the attributes."""

    def __init__(self):
        self.spans = []
        self.problem = -1
        self.missing = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._saved = []

    def _wrap(self, fn, note):
        name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"
        spans, local, ids, clock = self.spans, self._local, self._ids, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            span = [next(ids), name, clock(), 0.0, stack[-1][0] if stack else -1,
                    self.problem, 0]
            stack.append(span)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                span[3] = clock()
                stack.pop()
                spans.append(span)
                if note is not None:
                    span[6] = note(args, result)

        return traced

    def install(self):
        wrappers = {}
        for mod_name, attr, note in WRAPS:
            mod = importlib.import_module(mod_name)
            fn = getattr(mod, attr, None)
            if fn is None:
                self.missing.append(f"{mod_name}.{attr}")
                continue
            if id(fn) not in wrappers:
                wrappers[id(fn)] = self._wrap(fn, note)
            self._saved.append((mod, attr, fn))
            setattr(mod, attr, wrappers[id(fn)])

    def restore(self) -> bool:
        """Put every original back; True when all of them are back in place."""
        for mod, attr, fn in reversed(self._saved):
            setattr(mod, attr, fn)
        ok = all(getattr(mod, attr) is fn for mod, attr, fn in self._saved)
        self._saved.clear()
        return ok


def summarize(spans) -> dict:
    """Per span name: calls, inclusive and self seconds, summed notes.

    Also derives Newton steps: each step of ``newton_refine`` makes one
    ``apply_T`` call, plus one for the final residual, so steps = child
    apply_T calls - 1.  Jacobian bytes (nN)^2 * 8 and LU flops 2/3 (nN)^3 per
    step are computed from the unknown count, not measured.
    """
    by_id = {s[0]: s for s in spans}
    child_time = defaultdict(float)
    newton_children = defaultdict(int)
    for s in spans:
        parent = by_id.get(s[4])
        if parent is None:
            continue
        child_time[parent[0]] += s[3] - s[2]
        if s[1] == "operator.apply_T" and parent[1] == "solver.newton_refine":
            newton_children[parent[0]] += 1
    names = {}
    for s in spans:
        dur = s[3] - s[2]
        row = names.setdefault(s[1], {"calls": 0, "incl_s": 0.0, "self_s": 0.0, "note": 0})
        row["calls"] += 1
        row["incl_s"] += dur
        row["self_s"] += dur - child_time[s[0]]
        row["note"] += s[6]
    steps = jac_bytes = lu_flops = 0
    for s in spans:
        if s[1] == "solver.newton_refine":
            k = max(newton_children[s[0]] - 1, 0)
            steps += k
            jac_bytes += k * 8 * s[6] ** 2
            lu_flops += k * 2.0 / 3.0 * s[6] ** 3
    layers = defaultdict(float)
    for name, row in names.items():
        layers[name.split(".", 1)[0]] += row["self_s"]
    return {
        "names": names,
        "layers": {layer: layers.get(layer, 0.0) for layer in LAYERS},
        "newton_steps": steps,
        "jacobian_bytes": jac_bytes,
        "lu_flops": lu_flops,
    }
