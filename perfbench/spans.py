"""Span recorder for the traced run, and the per-layer metrics derived from it.

The recorder wraps public entry points of each bipcore layer from outside
the library, at the name its consumer looks up (``bipcore.counting`` calls
``certify_kp`` and ``truncated_expansion`` through its own namespace, while
``oracle`` and ``clusters`` reach the kernels through ``bipcore.kernels``).
Recursive kernels are wrapped only at that boundary, so each top-level call
is one span.  Spans are kept in memory as plain tuples

    (name, start, end, parent, error, value)

where ``parent`` is the index of the enclosing span (-1 for a root),
``error`` the exception type name the call raised (or None) and ``value`` a
number read off the call's arguments or result (see ENTRY_POINTS).
"""

from __future__ import annotations

import importlib
import threading
import time
from typing import Any, Callable

Span = tuple[str, float, float, int, str | None, float | None]


def _len(args, kwargs, result):
    return len(result)


def _cluster_count(args, kwargs, result):
    return result.cluster_count


def _m_used(args, kwargs, result):
    return result.m_used


def _returned(args, kwargs, result):
    return result


def _eta(args, kwargs, result):
    return result.eta if result.valid else None


def _threads(args, kwargs, result):
    return kwargs.get("threads", 1)


# (span name, owner, attribute, value extractor).  The owner is a module
# path, or "module:Class" for a method.
ENTRY_POINTS: list[tuple[str, str, str, Callable | None]] = [
    *(
        ("graph.build", "bipcore.graph", gen, None)
        for gen in (
            "complete_bipartite",
            "star_center_R",
            "even_cycle",
            "path",
            "random_biregular",
        )
    ),
    ("conditions.certify", "bipcore.counting", "certify_kp", _eta),
    ("conditions.certify", "bipcore.sampler", "certify_kp", _eta),
    ("conditions.certify", "bipcore.cumulants", "certify_kp", _eta),
    ("polymers.kp_sum", "bipcore.conditions", "kp_vertex_sum", None),
    ("polymers.universe", "bipcore.polymers", "all_polymers", _len),
    ("polymers.xi", "bipcore.polymers:PolymerSystem", "xi", None),
    ("counting.approx_log_Z", "bipcore.counting", "approx_log_Z", _m_used),
    ("counting.choose_m", "bipcore.counting", "choose_m", _returned),
    ("counting.zero_probe", "bipcore.counting", "zero_probe", _threads),
    ("clusters.expand", "bipcore.counting", "truncated_expansion", _cluster_count),
    ("clusters.log_xi", "bipcore.clusters:ClusterEngine", "truncated_log_xi", None),
    ("clusters.table", "bipcore.cumulants", "_cluster_table", None),
    ("sampler.build", "bipcore.sampler:IndependentSetSampler", "__init__", None),
    ("sampler.config", "bipcore.sampler:IndependentSetSampler", "sample_config", None),
    ("sampler.extend", "bipcore.sampler:IndependentSetSampler", "extend", None),
    ("cumulants.query", "bipcore.cumulants", "truncated_cumulant", None),
    ("cumulants.decay", "bipcore.cumulants", "decay_experiment", None),
    ("oracle.marginal", "bipcore.oracle", "exact_occupancy", None),
    ("oracle.z_complex", "bipcore.counting", "exact_Z_complex", None),
    ("oracle.log_z", "bipcore.oracle", "exact_log_Z", None),
    ("kernels.is_sum_real", "bipcore.kernels", "is_sum_real", None),
    ("kernels.is_sum_complex", "bipcore.kernels", "is_sum_complex", None),
    ("kernels.ursell", "bipcore.kernels", "ursell_edge_sum", None),
]


def _owner(path: str) -> Any:
    module, _, cls = path.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


class Recorder:
    """Records spans while installed; ``uninstall`` restores the originals.

    A span opened on a worker thread with nothing open on that thread takes
    the main thread's innermost open span as its parent: in bipcore only the
    main thread starts thread pools (``threads=2``), so that span caused it.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.recording = False
        # sampler id -> distinct (v, avail) states, and total visits
        self.states: dict[int, set] = {}
        self.state_visits = 0
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._saved: list[tuple[Any, str, Any]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            is_main = threading.current_thread() is threading.main_thread()
            stack = self._main_stack if is_main else []
            self._local.stack = stack
        return stack

    def _wrap(self, name: str, fn: Callable, value_of: Callable | None) -> Callable:
        spans = self.spans
        states = name == "sampler.config"

        def traced(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                parent = self._main_stack[-1] if self._main_stack else -1
            idx = len(spans)
            spans.append((name, 0.0, 0.0, parent, None, None))
            stack.append(idx)
            if states and len(args) < 3 and "trace" not in kwargs:
                visited: list = []
                kwargs["trace"] = visited
            else:
                visited = None
            error = None
            value = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                if error is None and value_of is not None:
                    value = value_of(args, kwargs, result)
                spans[idx] = (name, start, end, parent, error, value)
            if visited is not None:
                seen = self.states.setdefault(id(args[0]), set())
                seen.update(visited)
                self.state_visits += len(visited)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        for name, owner_path, attr, value_of in ENTRY_POINTS:
            owner = _owner(owner_path)
            fn = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(name, fn, value_of))
        self.recording = True

    def uninstall(self) -> None:
        self.recording = False
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        self._saved.clear()

    def counters(self) -> dict[str, float]:
        distinct = sum(len(s) for s in self.states.values())
        return {"sampler.states": distinct, "sampler.state_visits": self.state_visits}


# ---------------------------------------------------------------------------
# derivation


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    cur_start = cur_end = None
    for s, e in sorted(intervals):
        if cur_end is None or s > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = s, e
        else:
            cur_end = max(cur_end, e)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of its interval that its direct
    children cover (children on two threads may overlap each other)."""
    children: dict[int, list[tuple[float, float]]] = {}
    for name, s, e, parent, _, _ in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((s, e))
    out = []
    for i, (name, s, e, _, _, _) in enumerate(spans):
        kids = [(max(cs, s), min(ce, e)) for cs, ce in children.get(i, ())]
        out.append((e - s) - _union_length([k for k in kids if k[1] > k[0]]))
    return out


def root_coverage(spans: list[Span]) -> float:
    """Wall time covered by at least one root span."""
    return _union_length([(s, e) for _, s, e, parent, _, _ in spans if parent < 0])


def layer_totals(spans: list[Span]) -> dict[str, float]:
    """Sums and counts per span name that the per-layer metrics are built
    from; ``merge`` combines the totals of several span lists."""
    out: dict[str, float] = {}

    def add(key: str, amount: float) -> None:
        out[key] = out.get(key, 0.0) + amount

    selfs = self_times(spans)
    eta_min = None
    for (name, s, e, parent, error, value), self_s in zip(spans, selfs):
        add(name + ".s", e - s)
        add(name + ".calls", 1)
        add(name + ".self_s", self_s)
        if error is None:
            add(name + ".ok", 1)
            if value is not None:
                add(name + ".value", value)
        elif error == "ClusterBudgetError":
            add(name + ".budget_errors", 1)
            add(name + ".budget_s", e - s)
        if name == "conditions.certify" and value is not None:
            eta_min = value if eta_min is None else min(eta_min, value)
        if name == "counting.zero_probe" and error is None:
            add(f"counting.zero_probe_t{value}_s", e - s)
    if eta_min is not None:
        out["conditions.eta_min"] = eta_min
    return out


def merge(totals: list[dict[str, float]]) -> dict[str, float]:
    out: dict[str, float] = {}
    for t in totals:
        for k, v in t.items():
            if k == "conditions.eta_min":
                out[k] = min(out.get(k, v), v)
            else:
                out[k] = out.get(k, 0.0) + v
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(t: dict[str, float]) -> dict[str, float]:
    """Per-layer metrics of one traced pass over a workload's op list, from
    its merged ``layer_totals`` plus the recorder counters.  A ratio with no
    attempts behind it, or a minimum over no certificates, reads 0."""
    g = t.get
    return {
        "graph.build_s": g("graph.build.s", 0.0),
        "conditions.certify_s": g("conditions.certify.s", 0.0),
        "conditions.certify_calls": g("conditions.certify.calls", 0.0),
        "conditions.eta_min": g("conditions.eta_min", 0.0),
        "polymers.kp_sum_s": g("polymers.kp_sum.s", 0.0),
        "polymers.kp_sum_calls": g("polymers.kp_sum.calls", 0.0),
        "counting.self_s": g("counting.approx_log_Z.self_s", 0.0),
        "counting.m_requested": g("counting.choose_m.value", 0.0),
        "counting.m_used": g("counting.approx_log_Z.value", 0.0),
        "counting.retries": g("clusters.expand.budget_errors", 0.0),
        "clusters.expand_s": g("clusters.expand.s", 0.0),
        "clusters.expand_calls": g("clusters.expand.calls", 0.0),
        "clusters.useful_frac": _ratio(
            g("clusters.expand.ok", 0.0), g("clusters.expand.calls", 0.0)
        ),
        "clusters.wasted_s": g("clusters.expand.budget_s", 0.0),
        "clusters.clusters": g("clusters.expand.value", 0.0),
        "clusters.table_s": g("clusters.table.s", 0.0),
        "clusters.log_xi_s": g("clusters.log_xi.s", 0.0),
        "cumulants.query_s": g("cumulants.query.s", 0.0),
        "cumulants.queries": g("cumulants.query.calls", 0.0),
        "cumulants.decay_self_s": g("cumulants.decay.self_s", 0.0),
        "polymers.universe_s": g("polymers.universe.s", 0.0),
        "polymers.universe_size": g("polymers.universe.value", 0.0),
        "polymers.xi_s": g("polymers.xi.s", 0.0),
        "sampler.build_s": g("sampler.build.s", 0.0),
        "sampler.config_s": g("sampler.config.s", 0.0),
        "sampler.extend_s": g("sampler.extend.s", 0.0),
        "sampler.draws": g("sampler.config.ok", 0.0),
        "sampler.states": g("sampler.states", 0.0),
        "sampler.state_reuse_frac": _ratio(
            g("sampler.state_visits", 0.0) - g("sampler.states", 0.0),
            g("sampler.state_visits", 0.0),
        ),
        "oracle.marginal_s": g("oracle.marginal.s", 0.0),
        "oracle.marginal_calls": g("oracle.marginal.calls", 0.0),
        "oracle.z_complex_s": g("oracle.z_complex.s", 0.0),
        "oracle.z_complex_calls": g("oracle.z_complex.calls", 0.0),
        "oracle.log_z_s": g("oracle.log_z.s", 0.0),
        "kernels.is_sum_real_s": g("kernels.is_sum_real.s", 0.0),
        "kernels.is_sum_real_calls": g("kernels.is_sum_real.calls", 0.0),
        "kernels.is_sum_complex_s": g("kernels.is_sum_complex.s", 0.0),
        "kernels.is_sum_complex_calls": g("kernels.is_sum_complex.calls", 0.0),
        "kernels.ursell_s": g("kernels.ursell.s", 0.0),
        "kernels.ursell_calls": g("kernels.ursell.calls", 0.0),
        "counting.zero_probe_t1_s": g("counting.zero_probe_t1_s", 0.0),
        "counting.zero_probe_t2_s": g("counting.zero_probe_t2_s", 0.0),
    }
