"""Span tracing of the library's public functions, from outside `src/`.

`Tracer.install()` replaces every public function of the traced modules
with a timing wrapper at each module attribute that names it, because a
caller resolves `overall_heuristic` in its own module's namespace
(`relaycontracts.simulate.overall_heuristic`, not the one in
`relaycontracts.selection`).  Public methods and classmethods of the
modules' public classes are wrapped on the class.  Spans stay in memory as
(name, parent, start, end); self time is a span's duration minus its
children's, so it follows the real call path, including any cache a
later change adds between two traced functions.
"""

from __future__ import annotations

import functools
import inspect
import json
import math
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

import relaycontracts
from relaycontracts import cli, contracts, distributions, selection, simulate

LAYERS = (distributions, contracts, simulate, selection, cli)
NAMESPACES = (relaycontracts, *LAYERS)

# Calls whose arguments or results feed a count; everything else only times.
OBSERVED = {
    "selection.knapsack_01",
    "selection.weighted_split_selection",
    "selection.sscpa",
    "selection.relaxed_upper_bound",
}


def _layer(module) -> str:
    return module.__name__.rsplit(".", 1)[-1]


def public_callables(module):
    """(span name, where, original) for each public function of
    `module` (where: its attribute name) and each public method of its
    public classes (where: (class, attribute))."""
    layer = _layer(module)
    names = getattr(module, "__all__", None) or [n for n in vars(module) if not n.startswith("_")]
    for name in names:
        obj = getattr(module, name)
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield f"{layer}.{name}", name, obj
        elif inspect.isclass(obj):
            for attr, raw in vars(obj).items():
                if attr.startswith("_"):
                    continue
                if isinstance(raw, (classmethod, staticmethod)) or inspect.isfunction(raw):
                    yield f"{layer}.{name}.{attr}", (obj, attr), raw


class Tracer:
    """In-memory span recorder; one instance per traced run."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.observed: dict[str, list] = defaultdict(list)
        self.op_bounds: list[tuple[int, int]] = []  # span id range of each op
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _wrap(self, name: str, fn):
        names, parents, starts, ends = self.names, self.parents, self.starts, self.ends
        stack = self._stack
        observed = self.observed[name] if name in OBSERVED else None
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            ends.append(0)
            stack.append(sid)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[sid] = clock()
                stack.pop()
            if observed is not None:
                observed.append((sid, args, kwargs, result))
            return result

        return traced

    def install(self) -> None:
        """Patch every public callable of the layers at every binding of it."""
        if self._undo:
            raise RuntimeError("tracer already installed")
        wrappers: dict[int, object] = {}
        for module in LAYERS:
            for name, where, original in public_callables(module):
                if isinstance(where, tuple):
                    owner, attr = where
                    if isinstance(original, (classmethod, staticmethod)):
                        patched = type(original)(self._wrap(name, original.__func__))
                    else:
                        patched = self._wrap(name, original)
                    self._undo.append((owner, attr, original))
                    setattr(owner, attr, patched)
                else:
                    wrappers[id(original)] = (original, self._wrap(name, original))
        for namespace in NAMESPACES:
            for attr, value in list(vars(namespace).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._undo.append((namespace, attr, value))
                    setattr(namespace, attr, hit[1])

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def begin_op(self) -> None:
        self.op_bounds.append((len(self.names), -1))

    def end_op(self) -> None:
        lo, _ = self.op_bounds[-1]
        self.op_bounds[-1] = (lo, len(self.names))

    def dump(self, path: Path) -> None:
        """Write spans as JSON lines: id, parent, name, start_ns, end_ns."""
        with path.open("w") as fh:
            for sid, (name, parent, t0, t1) in enumerate(
                zip(self.names, self.parents, self.starts, self.ends)
            ):
                fh.write(json.dumps([sid, parent, name, t0, t1]) + "\n")


# -- per-layer metrics ------------------------------------------------------

SPLIT_KINDS = ("ESW", "ASW", "NSW")
WINNERS = ("ESW", "ASW", "NSW", "SSCPA")
_UNIT_SNAP = 1e-9  # knapsack_01's guard against float noise in t * resolution

def knapsack_work(snr_col, transfer_col, sub_budget: float, resolution: int):
    """(DP cells, DP bytes, slack cells) of one `knapsack_01` call, from its
    arguments, mirroring its discretization.

    Bytes are computed from array sizes, not measured: the (usable x width)
    bool `took` table plus four float64 rows and one bool row of width
    units+1 alive at once.  Slack cells are those in columns beyond the
    total weight of the usable offers, which no subset can reach.
    """
    gammas = np.asarray(snr_col, dtype=float)
    units = int(math.floor(sub_budget * resolution + _UNIT_SNAP))
    weights = np.maximum(np.ceil(np.asarray(transfer_col, dtype=float) * resolution - _UNIT_SNAP), 0)
    usable = (gammas > 0.0) & (weights <= units)
    count = int(usable.sum())
    if count == 0:
        return 0, 0, 0
    width = units + 1
    reach = int(weights[usable].sum())
    return count * width, count * width + 33 * width, count * max(0, units - reach)


def _relaxed_exits_early(problem) -> bool:
    """Mirrors `relaxed_upper_bound`: no buyable offer, or all affordable."""
    offers = problem.offers
    buyable = (offers.transfer > 0.0) & (offers.snr > 0.0)
    return not buyable.any() or float(offers.transfer.sum()) <= problem.budget


def _kind(args, kwargs) -> str:
    kind = kwargs["kind"] if "kind" in kwargs else args[1]
    return kind.value


def layer_metrics(
    tracer: Tracer,
    op_units: list[int],
    counted_ops: int,
    traced_wall_ns: int,
) -> tuple[dict[str, float], dict[str, float]]:
    """Per-layer metrics, and the total self time in seconds of each layer.

    Times are ms per work unit (round or instance) over every traced op;
    counts cover the first `counted_ops` ops only, so they repeat exactly
    for a given seed whatever the machine's speed."""
    names = np.array(tracer.names)
    parents = np.array(tracer.parents, dtype=np.int64)
    dur = np.array(tracer.ends, dtype=np.int64) - np.array(tracer.starts, dtype=np.int64)
    child = np.zeros_like(dur)
    has_parent = parents >= 0
    np.add.at(child, parents[has_parent], dur[has_parent])
    own = dur - child

    units = sum(op_units)
    counted_units = sum(op_units[:counted_ops])
    counted_end = tracer.op_bounds[counted_ops - 1][1]

    def ms(values: np.ndarray, mask: np.ndarray) -> float:
        return float(values[mask].sum()) / 1e6 / units

    def named(*wanted: str) -> np.ndarray:
        return np.isin(names, wanted)

    def counted(name: str) -> list:
        return [entry for entry in tracer.observed[name] if entry[0] < counted_end]

    def count_per_unit(*wanted: str) -> float:
        return float(np.count_nonzero(named(*wanted)[:counted_end])) / counted_units

    m: dict[str, float] = {}
    m["distributions.grid_ms"] = ms(dur, named("distributions.TypeGrid.from_distribution"))
    m["distributions.grid_calls_per_round"] = count_per_unit("distributions.TypeGrid.from_distribution")
    m["distributions.sample_ms"] = ms(dur, named("distributions.sample_type_vector"))
    menus = ("contracts.second_best_menu", "contracts.first_best_menu")
    m["contracts.menu_ms"] = ms(dur, named(*menus))
    m["contracts.menu_calls_per_round"] = count_per_unit(*menus)
    m["simulate.best_response_ms"] = ms(dur, named("simulate.accepted_offers", "simulate.efficient_offers"))
    m["simulate.round_ms"] = ms(dur, named("simulate.simulate_round"))
    m["simulate.round_self_ms"] = ms(own, named("simulate.simulate_round"))
    m["simulate.cell_self_ms"] = ms(own, named("simulate.run_experiment"))
    m["selection.overall_ms"] = ms(dur, named("selection.overall_heuristic"))

    split_sids = defaultdict(list)
    for sid, args, kwargs, _ in tracer.observed["selection.weighted_split_selection"]:
        split_sids[_kind(args, kwargs)].append(sid)
    for kind in SPLIT_KINDS:
        mask = np.zeros(len(names), dtype=bool)
        mask[split_sids[kind]] = True
        m[f"selection.{kind.lower()}_ms"] = ms(dur, mask)
    m["selection.sscpa_ms"] = ms(dur, named("selection.sscpa"))
    m["selection.best_snr_ms"] = ms(dur, named("selection.best_snr_baseline"))
    m["selection.relaxed_ms"] = ms(dur, named("selection.relaxed_upper_bound"))
    relaxed = counted("selection.relaxed_upper_bound")
    m["selection.relaxed_early_exit_share"] = (
        sum(_relaxed_exits_early(args[0]) for _, args, _, _ in relaxed) / len(relaxed) if relaxed else 0.0
    )

    m["selection.knapsack_ms"] = ms(dur, named("selection.knapsack_01"))
    calls = counted("selection.knapsack_01")
    work = [knapsack_work(*args, **kwargs) for _, args, kwargs, _ in calls]
    cells = sum(w[0] for w in work)
    m["selection.knapsack_calls"] = len(calls) / counted_units
    m["selection.knapsack_dp_cells"] = cells / counted_units
    m["selection.knapsack_dp_bytes_max"] = float(max((w[1] for w in work), default=0))
    m["selection.knapsack_slack_share"] = sum(w[2] for w in work) / cells if cells else 0.0

    # The library reports Overall, not which sub-method won; replay its
    # rule (first maximum in ESW, ASW, NSW, SSCPA order) on the children.
    candidates = defaultdict(list)
    for name in ("selection.weighted_split_selection", "selection.sscpa"):
        for sid, _, _, result in counted(name):
            candidates[int(parents[sid])].append((sid, result.method.value, result.capacity))
    wins = dict.fromkeys(WINNERS, 0)
    overall = np.nonzero(named("selection.overall_heuristic")[:counted_end])[0]
    for sid in overall:
        best = max(sorted(candidates[int(sid)]), key=lambda c: c[2])
        wins[best[1]] += 1
    for w in WINNERS:
        m[f"selection.winner_share.{w}"] = wins[w] / len(overall) if len(overall) else 0.0

    m["selection.parse_ms"] = ms(dur, named("selection.offers_from_csv"))
    m["selection.emit_ms"] = ms(dur, named("selection.selection_to_csv"))
    layer_of = np.array([name.split(".", 1)[0] for name in tracer.names])
    m["cli.select_self_ms"] = ms(own, layer_of == "cli")
    m["trace_coverage_pct"] = 100.0 * float(own.sum()) / traced_wall_ns
    self_s = {_layer(mod): float(own[layer_of == _layer(mod)].sum()) / 1e9 for mod in LAYERS}
    return m, self_s


