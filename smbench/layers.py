"""The smforge functions the traced run wraps, and the per-layer metrics.

Every target gives two metrics, ``<module>.<function>.calls`` and
``.self_s``.  The derived metrics below them are ratios and counts measured
at the same boundaries.  ``moves`` and ``on`` record, before any
optimisation, which end-to-end metric a change in that layer should move and
on which workload; later performance claims are checked against them.
"""

from typing import Dict, List, NamedTuple, Tuple

from tracer import Tracer


class Layer(NamedTuple):
    module: str
    qualname: str
    moves: str
    on: str

    @property
    def name(self) -> str:
        return Tracer.span_name(self.module, self.qualname)


LAYERS = (
    Layer("words", "free_reduce", "run_s", "diagram mostly; accept, language"),
    Layer("words", "express_in_basis", "run_s; sector latency",
          "accept; language"),
    Layer("words", "expression_word", "run_s; sector latency",
          "accept; language"),
    Layer("words", "validate_basis", "setup_s", "all, most on language"),
    Layer("words", "is_member", "setup_s", "all, most on language"),
    Layer("words", "substitute", "sector latency", "language"),
    Layer("smachine", "apply_rule", "run_s", "accept, a little on diagram"),
    Layer("smachine", "SectorRule.express", "sector latency; run_s",
          "language; accept"),
    Layer("smachine", "semi_apply", "sector latency; run_s",
          "language; accept"),
    # the constructor: rule construction and validation
    Layer("smachine", "GeneralizedRule", "setup_s", "all"),
    Layer("machines", "shift", "run_s", "accept"),
    Layer("machines", "decode_noise", "sector latency", "language"),
    Layer("machines", "lambda1_accept", "sector latency", "language"),
    Layer("machines", "build_m1", "setup_s", "all"),
    Layer("towers", "compose", "setup_s", "all"),
    Layer("towers", "reflect", "setup_s", "all"),
    Layer("towers", "cyclify", "setup_s", "all"),
    Layer("mainmachine", "build_main", "setup_s", "all"),
    Layer("mainmachine", "accepting_run", "run_s", "accept, diagram"),
    Layer("mainmachine", "lambda_accept", "sector latency", "language"),
    Layer("embedding", "build_pipeline", "setup_s", "language"),
    Layer("embedding", "wp_RC", "wp and sector latency", "language"),
    Layer("groups", "emit_presentation", "setup_s", "diagram"),
    Layer("groups", "build_disk_diagram", "run_s; peak_rss_mb", "diagram"),
    Layer("groups", "build_trapezium", "run_s; peak_rss_mb", "diagram"),
    Layer("groups", "diagram_report", "run_s", "diagram"),
)

APPLY_RULE = "smachine.apply_rule"


class Derived(NamedTuple):
    unit: str
    better: str
    needs: Tuple[str, ...]  # the spans it is computed from
    moves: str
    on: str


DERIVED = {
    "smachine.letter_steps": Derived(
        "count", "lower", (APPLY_RULE,), "run_s", "accept, a little diagram"),
    "smachine.ns_per_letter_step": Derived(
        "ns", "lower", (APPLY_RULE,), "run_s", "accept, a little diagram"),
    "smachine.replays_per_step": Derived(
        "ratio", "lower", (APPLY_RULE,), "run_s", "accept, diagram"),
    "smachine.peak_config_letters": Derived(
        "count", "lower", (APPLY_RULE,), "peak_rss_mb", "accept"),
    "mainmachine.accepting_run.accept_ratio": Derived(
        "ratio", "higher", ("mainmachine.accepting_run",), "run_s",
        "accept, diagram"),
    "mainmachine.lambda_accept.accept_ratio": Derived(
        "ratio", "higher", ("mainmachine.lambda_accept",), "sector latency",
        "language"),
    "groups.cells": Derived(
        "count", "lower", ("groups.build_disk_diagram",),
        "run_s; peak_rss_mb", "diagram"),
    "bench.trace_overhead": Derived("ratio", "lower", (), "(none)", "all"),
}


def describe(metric: str) -> str:
    """Which end-to-end metric the per-layer metric should move, and where."""
    if metric in DERIVED:
        d = DERIVED[metric]
        return "moves %s on %s" % (d.moves, d.on)
    for layer in LAYERS:
        if metric.rsplit(".", 1)[0] == layer.name:
            return "moves %s on %s" % (layer.moves, layer.on)
    return ""


def metric_specs() -> List[dict]:
    """Every per-layer metric as BENCHMARK.json lists it."""
    out = []
    for layer in LAYERS:
        out.append({"name": layer.name + ".calls", "unit": "count",
                    "better": "lower"})
        out.append({"name": layer.name + ".self_s", "unit": "s",
                    "better": "lower"})
    for name, d in DERIVED.items():
        out.append({"name": name, "unit": d.unit, "better": d.better})
    return out


# -- counters kept by hooks ------------------------------------------------

def _config_letters(W) -> int:
    return len(W.states) + sum(len(t) for t in W.tapes)


def _apply_rule_hook(counters, args, result) -> None:
    n_in = _config_letters(args[0])
    counters["letter_steps"] = counters.get("letter_steps", 0) + n_in
    counters["peak_config_letters"] = max(
        counters.get("peak_config_letters", 0), n_in,
        _config_letters(result))


def _accepted_hook(key: str):
    def hook(counters, args, result) -> None:
        if result is not None:
            counters[key] = counters.get(key, 0) + 1
    return hook


def _cells_hook(counters, args, result) -> None:
    counters["cells"] = counters.get("cells", 0) + result.area


HOOKS = {
    APPLY_RULE: _apply_rule_hook,
    "mainmachine.accepting_run": _accepted_hook("accepting_run.accepted"),
    "mainmachine.lambda_accept": _accepted_hook("lambda_accept.accepted"),
    "groups.build_disk_diagram": _cells_hook,
}


def make_tracer() -> Tracer:
    return Tracer([(l.module, l.qualname) for l in LAYERS], hooks=HOOKS)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, pass_apply_calls: int, pass_steps: int,
                  traced_run_s: float, untraced_run_s: float,
                  speed_factor: float) -> Dict[str, dict]:
    """Per-layer metrics of a traced run, absent spans left out.

    ``pass_apply_calls`` counts the ``apply_rule`` calls of the timed
    requests alone and ``pass_steps`` the steps of the histories those
    requests returned, so ``replays_per_step`` is the replay waste of the
    requests without their set-up.  Self times are scaled to nominal speed
    by ``speed_factor`` (see ``speed.py``), like the end-to-end times.
    """
    units = {m["name"]: m["unit"] for m in metric_specs()}
    c = tracer.counters
    values: Dict[str, float] = {}
    for layer in LAYERS:
        values[layer.name + ".calls"] = tracer.calls(layer.name)
        values[layer.name + ".self_s"] = (speed_factor
                                          * tracer.self_s(layer.name))
    values.update({
        "smachine.letter_steps": c.get("letter_steps", 0),
        "smachine.ns_per_letter_step": 1e9 * _ratio(
            values[APPLY_RULE + ".self_s"], c.get("letter_steps", 0)),
        "smachine.replays_per_step": _ratio(pass_apply_calls, pass_steps),
        "smachine.peak_config_letters": c.get("peak_config_letters", 0),
        "mainmachine.accepting_run.accept_ratio": _ratio(
            c.get("accepting_run.accepted", 0),
            tracer.calls("mainmachine.accepting_run")),
        "mainmachine.lambda_accept.accept_ratio": _ratio(
            c.get("lambda_accept.accepted", 0),
            tracer.calls("mainmachine.lambda_accept")),
        "groups.cells": c.get("cells", 0),
        "bench.trace_overhead": _ratio(traced_run_s, untraced_run_s),
    })
    absent = set(tracer.absent)
    for layer in LAYERS:
        if layer.name in absent:
            del values[layer.name + ".calls"], values[layer.name + ".self_s"]
    for name, d in DERIVED.items():
        if absent.intersection(d.needs):
            del values[name]
    return {n: {"value": v, "unit": units[n]} for n, v in values.items()}
