"""Outside-in tracer for itermellin, kept entirely in the benchmark's files.

It wraps public functions and methods of the package's modules at the name
the caller resolves.  ``engine`` imports ``shuffle``, ``regularize``,
``tangent_word_integral`` and ``tail_word_integral`` by name, and
``oracles`` imports ``tail_word_integral`` by name, so those bindings are
patched as well as the defining module.  Every call becomes a span (name,
start, end, parent span, request id) held in flat arrays in memory; the
arrays are written out once, at exit.  A call re-entering the function whose
span is innermost (the recursion in ``shuffle``, the dual evaluation in
``eval_array``) is passed through without a span of its own.

Exceptions are re-raised unchanged.  Each one is counted once per layer, at
the outermost span of that layer it leaves.
"""

from __future__ import annotations

import time
from array import array

import numpy as np

# (span name, layer, module attribute path of the original, other bindings)
TARGETS = (
    ("cli.main", "cli", "cli.main", ()),
    ("suites.run_suite", "suites", "suites.run_suite", ()),
    ("oracles.q_sum", "oracles", "oracles.q_sum", ()),
    ("oracles.mzv_sum", "oracles", "oracles.mzv_sum", ()),
    ("oracles.lattice_theta", "oracles", "oracles.lattice_theta", ()),
    ("engine.build_expression", "engine", "engine.build_expression", ()),
    ("engine.build_tail_expression", "engine", "engine.build_tail_expression", ()),
    ("engine.lambda_eval", "engine", "engine.lambda_eval", ()),
    ("engine.lstar_eval", "engine", "engine.lstar_eval", ()),
    ("engine.residue", "engine", "engine.residue", ()),
    ("words.shuffle", "words", "words.shuffle", ("engine.shuffle",)),
    ("words.regularize", "words", "words.regularize", ("engine.regularize",)),
    ("ratfun.tangent_word_integral", "ratfun", "ratfun.tangent_word_integral",
     ("engine.tangent_word_integral",)),
    ("ratfun.RationalCombination.__call__", "ratfun", "ratfun.RationalCombination.__call__", ()),
    ("ratfun.RationalCombination.residue", "ratfun", "ratfun.RationalCombination.residue", ()),
    ("quadrature.tail_word_integral", "quadrature", "quadrature.tail_word_integral",
     ("engine.tail_word_integral", "oracles.tail_word_integral")),
    ("quadrature.truncation_horizon", "quadrature", "quadrature.truncation_horizon",
     ("engine.truncation_horizon",)),
    ("quadrature.integrate_word_on_mesh", "quadrature", "quadrature.integrate_word_on_mesh", ()),
    ("quadrature.mesh", "quadrature", "quadrature.mesh", ()),
    ("quadrature.PanelMesh.__init__", "quadrature", "quadrature.PanelMesh.__init__", ()),
    ("quadrature.PanelMesh.cumulative", "quadrature", "quadrature.PanelMesh.cumulative", ()),
    # node values and theta evaluation form the theta layer (arith only
    # feeds theta coefficients, so it is counted inside these spans)
    ("theta.PanelMesh.theta_values", "theta", "quadrature.PanelMesh.theta_values", ()),
    ("theta.ThetaFunction.eval_array", "theta", "theta.ThetaFunction.eval_array", ()),
    ("theta.TailSeries.needed_groups", "theta", "theta.TailSeries.needed_groups", ()),
)

LAYERS = ("cli", "suites", "oracles", "engine", "words", "ratfun", "quadrature", "theta")

# Span names whose "extra" field records a size: compiled terms for the
# compile calls, the expression's terms for an evaluation, the returned
# group count for needed_groups.
_TERMS_OF_RESULT = {"engine.build_expression", "engine.build_tail_expression"}
_TERMS_OF_ARG = {"engine.lambda_eval"}
_VALUE_OF_RESULT = {"theta.TailSeries.needed_groups"}


def _resolve(package, path: str):
    """(owner object, attribute name) for a dotted path below the package."""
    *parts, attr = path.split(".")
    owner = package
    for p in parts:
        owner = getattr(owner, p)
    return owner, attr


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.layer_of: list[str] = []
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self.request = array("i")
        self.extra = array("q")
        self.errors = dict.fromkeys(LAYERS, 0)
        self.current_request = -1
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def install(self, package) -> None:
        for span, layer, origin, aliases in TARGETS:
            owner, attr = _resolve(package, origin)
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            wrapper = self._wrap(original, span, layer)
            for path in (origin, *aliases):
                o, a = _resolve(package, path)
                self._saved.append((o, a, o.__dict__[a] if isinstance(o, type) else getattr(o, a)))
                setattr(o, a, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def _wrap(self, fn, span: str, layer: str):
        nid = len(self.names)
        self.names.append(span)
        self.layer_of.append(layer)
        stack = self._stack
        span_ids, layer_of = self.name, self.layer_of
        start, end, parent = self.start, self.end, self.parent
        request, extra = self.request, self.extra
        clock = time.perf_counter
        terms_of_result = span in _TERMS_OF_RESULT
        terms_of_arg = span in _TERMS_OF_ARG
        value_of_result = span in _VALUE_OF_RESULT

        def wrapper(*args, **kwargs):
            if stack and span_ids[stack[-1]] == nid:
                return fn(*args, **kwargs)
            idx = len(start)
            span_ids.append(nid)
            parent.append(stack[-1] if stack else -1)
            request.append(self.current_request)
            extra.append(len(args[0].terms) if terms_of_arg else 0)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                up = stack[-2] if len(stack) > 1 else -1
                if up < 0 or layer_of[span_ids[up]] != layer:
                    self.errors[layer] += 1
                raise
            finally:
                end[idx] = clock()
                stack.pop()
            if terms_of_result:
                extra[idx] = len(result.terms)
            elif value_of_result:
                extra[idx] = result
            return result

        return wrapper

    # -- output -------------------------------------------------------------
    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
            "name": np.frombuffer(self.name, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "request": np.frombuffer(self.request, dtype=np.int32),
            "extra": np.frombuffer(self.extra, dtype=np.int64),
        }

    def dump(self, path: str) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays())

    def summary(self) -> dict[str, float]:
        """Per-layer counts and times (ms) over every recorded span."""
        a = self.arrays()
        n, k = a["start"].size, len(self.names)
        name, parent, extra = a["name"], a["parent"], a["extra"]
        dur = a["end"] - a["start"]
        has_parent = parent >= 0
        child_time = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
        self_time = dur - child_time
        ids = {s: i for i, s in enumerate(self.names)}
        count = np.bincount(name, minlength=k)
        incl = np.bincount(name, weights=dur, minlength=k) * 1e3
        self_ms = np.bincount(name, weights=self_time, minlength=k) * 1e3

        def spans(s):
            return name == ids[s]

        def children_of(child: str, parents: np.ndarray) -> np.ndarray:
            """Per parent-span count of direct children named child."""
            sel = spans(child) & has_parent
            per_span = np.bincount(parent[sel], minlength=n)
            return per_span[parents]

        def c(s):
            return int(count[ids[s]])

        def ratio(num, den):
            return float(num) / float(den) if den else 0.0

        compile_spans = ("engine.build_expression", "engine.build_tail_expression")
        eval_idx = np.flatnonzero(spans("engine.lambda_eval"))
        eval_terms = int(extra[eval_idx].sum())
        eval_words = int(children_of("quadrature.tail_word_integral", eval_idx).sum())
        node_idx = np.flatnonzero(spans("theta.PanelMesh.theta_values"))
        node_misses = int((children_of("theta.ThetaFunction.eval_array", node_idx) > 0).sum())
        groups = extra[spans("theta.TailSeries.needed_groups")]
        words = c("quadrature.tail_word_integral")
        meshes = c("quadrature.mesh")
        return {
            "cli.self_ms": float(self_ms[ids["cli.main"]]),
            "suites.self_ms": float(self_ms[ids["suites.run_suite"]]),
            "oracles.q_sum_ms": float(incl[ids["oracles.q_sum"]]),
            "oracles.mzv_sum_ms": float(incl[ids["oracles.mzv_sum"]]),
            "oracles.lattice_theta_calls": c("oracles.lattice_theta"),
            "oracles.lattice_theta_ms": float(incl[ids["oracles.lattice_theta"]]),
            "engine.compile_calls": sum(c(s) for s in compile_spans),
            "engine.compile_self_ms": float(sum(self_ms[ids[s]] for s in compile_spans)),
            "engine.terms": int(sum(extra[spans(s)].sum() for s in compile_spans)),
            "engine.eval_calls": c("engine.lambda_eval"),
            "engine.eval_self_ms": float(
                sum(self_ms[ids[s]] for s in
                    ("engine.lambda_eval", "engine.lstar_eval", "engine.residue"))
            ),
            "engine.word_hit_ratio": ratio(eval_terms - eval_words, eval_terms),
            "words.shuffle_calls": c("words.shuffle"),
            "words.shuffle_ms": float(incl[ids["words.shuffle"]]),
            "words.regularize_ms": float(incl[ids["words.regularize"]]),
            "ratfun.tangent_build_ms": float(incl[ids["ratfun.tangent_word_integral"]]),
            "ratfun.tangent_eval_calls": c("ratfun.RationalCombination.__call__"),
            "ratfun.tangent_eval_ms": float(incl[ids["ratfun.RationalCombination.__call__"]]),
            "ratfun.residue_ms": float(incl[ids["ratfun.RationalCombination.residue"]]),
            "quadrature.word_calls": words,
            "quadrature.word_self_ms": float(self_ms[ids["quadrature.tail_word_integral"]]),
            "quadrature.horizon_calls": c("quadrature.truncation_horizon"),
            "quadrature.horizon_ms": float(incl[ids["quadrature.truncation_horizon"]]),
            "quadrature.mesh_integrals": c("quadrature.integrate_word_on_mesh"),
            "quadrature.mesh_integral_self_ms": float(
                self_ms[ids["quadrature.integrate_word_on_mesh"]]
            ),
            "quadrature.letter_integrations": c("quadrature.PanelMesh.cumulative"),
            "quadrature.cumulative_ms": float(incl[ids["quadrature.PanelMesh.cumulative"]]),
            "quadrature.refine_ratio": ratio(c("quadrature.integrate_word_on_mesh"), words),
            "quadrature.mesh_hit_ratio": ratio(
                meshes - c("quadrature.PanelMesh.__init__"), meshes
            ),
            "quadrature.errors": self.errors["quadrature"],
            "theta.node_value_calls": node_idx.size,
            "theta.cache_hit_ratio": ratio(node_idx.size - node_misses, node_idx.size),
            "theta.eval_calls": c("theta.ThetaFunction.eval_array"),
            "theta.eval_ms": float(incl[ids["theta.ThetaFunction.eval_array"]]),
            "theta.groups": int(groups.max()) if groups.size else 0,
            "theta.errors": self.errors["theta"],
            "trace.spans": int(n),
        }
