"""Spans around bifrac's public functions, recorded from outside the package.

`Tracer.install` wraps every public function of the six modules at every
module attribute that holds it, so a call is recorded whichever module
it is made through: `green_ball` is wrapped in `bifrac.greenop` as well
as in `bifrac.kernels`.  `GreenOperator` construction is recorded as
`greenop.build`.  Spans stay in memory (name, start, end, parent,
request id and a few counts) and are only recorded inside `request`.
`layer_metrics` turns them into the per-layer figures; a span's self
time is its duration minus the durations of its child spans.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
import types
from collections import Counter, defaultdict
from contextlib import contextmanager

import numpy as np

LAYERS = ("scalar", "kernels", "greenop", "cone", "solver", "cli")
BUILD = "greenop.build"
GRID_SIZES = (65, 129, 257)


def _points(args, kwargs, out):
    return {"points": int(np.size(out))}


def _iterations(args, kwargs, out):
    return {"iters": out.iterations, "not_found": int(out.status == "not_found")}


def _samples(args, kwargs, out):
    return {"samples": len(out)}


def _build_size(args, kwargs, out):
    grid = args[1] if len(args) > 1 else kwargs["grid"]
    return {"n": grid.n}


# counts taken from a call's arguments or result
_COUNTERS = {
    "kernels.green_ball": _points,
    "solver.picard_minimal": _iterations,
    "solver.newton_second": _iterations,
    "cone.sample_cone": _samples,
    BUILD: _build_size,
}


class Tracer:
    """In-memory span recorder; `install` patches bifrac, `uninstall` undoes it."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, request id, counts]
        self._stack = []
        self._request = None
        self._patches = []

    def _wrap(self, name, fn):
        counter = _COUNTERS.get(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._request is None:
                return fn(*args, **kwargs)
            rec = [name, 0.0, 0.0, stack[-1] if stack else None, self._request, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if counter is not None:
                rec[5] = counter(args, kwargs, out)
            return out

        return traced

    def install(self):
        """Wrap the public functions of the six layers wherever bifrac binds them."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"bifrac.{layer}")
            for attr, obj in vars(mod).items():
                if (
                    isinstance(obj, types.FunctionType)
                    and obj.__module__ == mod.__name__
                    and not attr.startswith("_")
                ):
                    wrappers[obj] = self._wrap(f"{layer}.{attr}", obj)
        bound = [m for name, m in sys.modules.items() if name == "bifrac" or name.startswith("bifrac.")]
        for mod in bound:
            for attr, obj in list(vars(mod).items()):
                if isinstance(obj, types.FunctionType) and obj in wrappers:
                    self._patch(mod, attr, wrappers[obj])
        greenop = importlib.import_module("bifrac.greenop")
        init = greenop.GreenOperator.__init__
        self._patch(greenop.GreenOperator, "__init__", self._wrap(BUILD, init))

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextmanager
    def request(self, request_id):
        """Record spans for the calls made inside this block."""
        self._request = request_id
        try:
            yield
        finally:
            self._request = None

    def write_jsonl(self, path):
        with open(path, "w") as fh:
            for i, (name, start, end, parent, rid, counts) in enumerate(self.spans):
                doc = {"id": i, "name": name, "start": start, "end": end,
                       "parent": parent, "request": rid}
                if counts:
                    doc.update(counts)
                fh.write(json.dumps(doc) + "\n")


def layer_metrics(spans) -> dict:
    """Per-layer counts and times from recorded spans.

    `.self_s` is time inside the function minus time in its child spans;
    `.s` is inclusive time, not double counted when a function nests in
    itself; `.calls` counts spans.  `<layer>.self_s` sums the self times
    of a layer's spans and `trace.wall_s` the time of the top-level spans,
    so the layer shares of the traced wall time add up to one.
    """
    child_time = [0.0] * len(spans)
    building = set()  # spans with a greenop.build child: cache misses
    for name, start, end, parent, _, _ in spans:
        if parent is not None:
            child_time[parent] += end - start
            if name == BUILD:
                building.add(parent)
    calls, self_s, incl_s, totals = Counter(), defaultdict(float), defaultdict(float), Counter()
    builds = defaultdict(list)
    hits = 0
    for i, (name, start, end, parent, _, counts) in enumerate(spans):
        dur = end - start
        calls[name] += 1
        self_s[name] += dur - child_time[i]
        anc = parent
        while anc is not None and spans[anc][0] != name:
            anc = spans[anc][3]
        if anc is None:
            incl_s[name] += dur
        for key, val in (counts or {}).items():
            if key != "n":
                totals[f"{name}.{key}"] += val
        if name == BUILD:
            builds[counts["n"]].append(dur)
        if name == "greenop.get_operator" and i not in building:
            hits += 1

    gb_calls, gb_points = calls["kernels.green_ball"], totals["kernels.green_ball.points"]
    gb_incl = incl_s["kernels.green_ball"]
    out = {f"{layer}.self_s": 0.0 for layer in LAYERS}
    for name, val in self_s.items():
        out[f"{name.split('.')[0]}.self_s"] += val
    out["trace.wall_s"] = sum(end - start for _, start, end, parent, _, _ in spans if parent is None)
    out.update({
        "kernels.green_ball.calls": gb_calls,
        "kernels.green_ball.points": gb_points,
        "kernels.green_ball.points_per_call": gb_points / gb_calls if gb_calls else 0.0,
        "kernels.green_ball.self_s": self_s["kernels.green_ball"],
        # green_ball's only children are its kernel helpers (inner_integral,
        # w_factor, the constants), so inclusive time is the evaluation cost
        "kernels.green_ball.s": gb_incl,
        "kernels.green_ball.ns_per_point": 1e9 * gb_incl / gb_points if gb_points else 0.0,
    })
    for fn in ("inner_integral", "frac_laplacian_pv", "green_interval", "poisson_total_mass"):
        out[f"kernels.{fn}.self_s"] = self_s[f"kernels.{fn}"]
    out["greenop.operator_builds"] = calls[BUILD]
    out["greenop.build.self_s"] = self_s[BUILD]
    for n in GRID_SIZES:
        durs = builds.get(n, [])
        out[f"greenop.build.mean_s.n{n}"] = sum(durs) / len(durs) if durs else 0.0
    lookups = calls["greenop.get_operator"]
    out["greenop.get_operator.hit_ratio"] = hits / lookups if lookups else 0.0
    out["greenop.apply_green.calls"] = calls["greenop.apply_green"]
    for fn in ("gamma_U", "operator_norm_b", "coercivity_a"):
        out[f"greenop.{fn}.s"] = incl_s[f"greenop.{fn}"]
    for fn in ("certify", "picard_minimal", "newton_second", "residual_strong"):
        out[f"solver.{fn}.s"] = incl_s[f"solver.{fn}"]
    out["solver.picard_minimal.iters"] = totals["solver.picard_minimal.iters"]
    out["solver.newton_second.iters"] = totals["solver.newton_second.iters"]
    out["solver.newton_second.not_found"] = totals["solver.newton_second.not_found"]
    out["solver.fold_sweep.calls"] = calls["solver.fold_sweep"]
    out["solver.fold_sweep.self_s"] = self_s["solver.fold_sweep"]
    out["cone.sample_cone.samples"] = totals["cone.sample_cone.samples"]
    out["cone.sample_cone.self_s"] = self_s["cone.sample_cone"]
    out["cone.check_membership.calls"] = calls["cone.check_membership"]
    out["cone.check_membership.self_s"] = self_s["cone.check_membership"]
    out["cone.verify_invariance.s"] = incl_s["cone.verify_invariance"]
    out["scalar.radii_certificate.calls"] = calls["scalar.radii_certificate"]
    out["scalar.radii_certificate.self_s"] = self_s["scalar.radii_certificate"]
    for fn in ("build_forcing", "write_report", "lemma_battery"):
        out[f"cli.{fn}.s"] = incl_s[f"cli.{fn}"]
    return out
