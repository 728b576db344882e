"""Outside-in layer tracer: wraps the package's functions where callers look them up.

Each target is replaced, for the length of one traced pass, by a wrapper
that times the call and charges the time to a span name.  Spans nest
through a stack, so a span's self time is its duration minus the time of
the spans it encloses, and the self times of all spans add up to the time
spent inside the outermost one.  Calls are aggregated into per-span totals
(calls, inclusive seconds, self seconds), so memory does not grow with the
iteration count.  Command and solve spans are also kept as records, each
solve carrying the span totals accumulated while it ran.

A target that no longer exists is skipped and listed in ``absent``; the
metrics that depend only on absent targets are reported as absent by the
caller instead of failing the run.
"""

from __future__ import annotations

import importlib
import time

# (module, attribute path, span).  The attribute is the name the caller looks
# the function up by, so wrapping it intercepts exactly the calls of that
# caller.  Functions the engine calls once per iteration are wrapped in the
# engine's namespace; functions a command calls once are wrapped in cli's.
TARGETS = (
    ("sparsefolio.cli", "main", "cli"),
    ("sparsefolio.cli", "load_returns_csv", "market_data.load"),
    ("sparsefolio.cli", "estimate_stats", "market_data.stats"),
    ("sparsefolio.cli", "make_suite_instances", "suites.make"),
    ("sparsefolio.cli", "build_problem", "model.build"),
    ("sparsefolio.cli", "count_short_positions", "model.shorts"),
    ("sparsefolio.cli", "solve", "admm_engine.solve"),
    ("sparsefolio.admm_engine", "factorize", "kkt.factorize"),
    ("sparsefolio.admm_engine", "solve_x_update", "kkt.xstep"),
    ("sparsefolio.admm_engine", "z_update", "admm_engine.zy"),
    ("sparsefolio.admm_engine", "y_update", "admm_engine.zy"),
    ("sparsefolio.admm_engine", "residual_norms", "admm_engine.residual"),
    ("sparsefolio.admm_engine", "stopping_check", "admm_engine.residual"),
    ("sparsefolio.admm_engine", "count_short_positions", "model.shorts"),
    ("sparsefolio.admm_engine", "maybe_adjust", "lambda_controller.adjust"),
    ("sparsefolio.penalty", "PenaltyState.update", "penalty.update"),
)
SPANS = tuple(dict.fromkeys(span for _, _, span in TARGETS))
# Spans kept as individual records, not only as totals.
RECORDED = ("cli", "admm_engine.solve")


def _rho_changed(args, result) -> bool:
    # PenaltyState.update(self, snapshot) -> new rho
    return result != args[1].rho


def _lambda_moved(args, result) -> bool:
    # maybe_adjust(schedule, shorts) -> schedule
    return result.lambda_current != args[0].lambda_current


# Event counters derived from a span's arguments and result.
COUNTERS = {
    "penalty.rho_changes": ("penalty.update", _rho_changed),
    "lambda_controller.moves": ("lambda_controller.adjust", _lambda_moved),
}


def _resolve(module_name: str, path: str):
    """(owner, attribute, original) for a target, or None when it is gone."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, attribute = path.split(".")
    for name in parents:
        owner = getattr(owner, name, None)
        if owner is None:
            return None
    if isinstance(owner, type):
        original = vars(owner).get(attribute)
    else:
        original = getattr(owner, attribute, None)
    if not callable(original):
        return None
    return owner, attribute, original


class Tracer:
    def __init__(self):
        self.totals = {span: [0, 0.0, 0.0] for span in SPANS}
        self.counts = dict.fromkeys(COUNTERS, 0)
        self.records = []
        self.absent = []
        self._stack = [0.0]
        self._open = []
        self._installed = []
        self._targets = []
        for module_name, path, span in TARGETS:
            found = _resolve(module_name, path)
            if found is None:
                self.absent.append(f"{module_name}.{path}")
            else:
                self._targets.append((*found, span))
        self.present = {span for *_, span in self._targets}
        self.absent_counters = {name for name, (span, _) in COUNTERS.items()
                                if span not in self.present}

    def install(self) -> None:
        for owner, attribute, original, span in self._targets:
            setattr(owner, attribute, self._wrap(original, span))
            self._installed.append((owner, attribute, original))

    def uninstall(self) -> None:
        while self._installed:
            owner, attribute, original = self._installed.pop()
            setattr(owner, attribute, original)

    def reset(self) -> None:
        """Start a new pass: zero the totals, counters and span records."""
        for entry in self.totals.values():
            entry[:] = [0, 0.0, 0.0]
        self.counts = dict.fromkeys(COUNTERS, 0)
        self.records = []

    def _wrap(self, fn, span):
        stack, entry, clock = self._stack, self.totals[span], time.perf_counter
        observers = [(name, test) for name, (source, test) in COUNTERS.items()
                     if source == span]
        recorded = span in RECORDED

        def traced(*args, **kwargs):
            record = self._open_record(span) if recorded else None
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                elapsed = end - start
                child = stack.pop()
                stack[-1] += elapsed
                entry[0] += 1
                entry[1] += elapsed
                entry[2] += elapsed - child
                if record is not None:
                    self._close_record(record, start, end)
            for name, test in observers:
                self._observe(name, test, args, result)
            return result

        return traced

    def _observe(self, name, test, args, result) -> None:
        try:
            self.counts[name] += bool(test(args, result))
        except (AttributeError, IndexError, TypeError):
            # The program's objects changed shape; report the counter absent.
            self.absent_counters.add(name)

    def _open_record(self, span) -> dict:
        parent = self._open[-1]["id"] if self._open else None
        record = {"id": len(self.records), "span": span, "parent": parent,
                  "before": {name: (entry[0], entry[2])
                             for name, entry in self.totals.items()}}
        self.records.append(record)
        self._open.append(record)
        return record

    def _close_record(self, record, start, end) -> None:
        """Store the span's times and the per-span totals accumulated inside it
        (calls and self seconds, its own self time included)."""
        self._open.pop()
        inner = {}
        for name, (calls, self_s) in record.pop("before").items():
            entry = self.totals[name]
            if entry[0] != calls:
                inner[name] = [entry[0] - calls, entry[2] - self_s]
        record.update(start=start, end=end, inner=inner)


# Per-layer metrics of one traced pass: name -> (unit, spans it needs).
# A "_s" metric is the span's self time, which for a leaf span is its whole
# time; the self times of all spans plus trace.unattributed_s make up
# trace.wall_s.
LAYER_METRICS = {
    "kkt.factorize_calls": ("count", ("kkt.factorize",)),
    "kkt.factorize_s": ("s", ("kkt.factorize",)),
    "kkt.factorize_ms": ("ms", ("kkt.factorize",)),
    "kkt.factorize_per_solve": ("count/solve", ("kkt.factorize", "admm_engine.solve")),
    "kkt.xstep_calls": ("count", ("kkt.xstep",)),
    "kkt.xstep_s": ("s", ("kkt.xstep",)),
    "kkt.xstep_us": ("us", ("kkt.xstep",)),
    "admm_engine.solve_calls": ("count", ("admm_engine.solve",)),
    "admm_engine.solve_s": ("s", ("admm_engine.solve",)),
    "admm_engine.self_s": ("s", ("admm_engine.solve",)),
    "admm_engine.iter_self_us": ("us", ("admm_engine.solve",)),
    "admm_engine.zy_s": ("s", ("admm_engine.zy",)),
    "admm_engine.residual_s": ("s", ("admm_engine.residual",)),
    "penalty.update_calls": ("count", ("penalty.update",)),
    "penalty.update_s": ("s", ("penalty.update",)),
    "penalty.rho_changes": ("count", ("penalty.update",)),
    "penalty.rho_change_ratio": ("ratio", ("penalty.update",)),
    "lambda_controller.adjust_calls": ("count", ("lambda_controller.adjust",)),
    "lambda_controller.adjust_s": ("s", ("lambda_controller.adjust",)),
    "lambda_controller.moves": ("count", ("lambda_controller.adjust",)),
    "model.build_calls": ("count", ("model.build",)),
    "model.build_s": ("s", ("model.build",)),
    "model.shorts_calls": ("count", ("model.shorts",)),
    "model.shorts_s": ("s", ("model.shorts",)),
    "market_data.load_calls": ("count", ("market_data.load",)),
    "market_data.load_s": ("s", ("market_data.load",)),
    "market_data.stats_s": ("s", ("market_data.stats",)),
    "suites.make_s": ("s", ("suites.make",)),
    "cli.self_s": ("s", ("cli",)),
    "trace.wall_s": ("s", ()),
    "trace.unattributed_s": ("s", ()),
}


def _per(total: float, count: float, scale: float = 1.0) -> float:
    return scale * total / count if count else 0.0


def layer_metrics(tracer: Tracer, outcome: dict) -> dict:
    """Per-layer values of the pass just traced; ``outcome`` is its checked
    result (wall time and iteration count)."""
    calls = {span: entry[0] for span, entry in tracer.totals.items()}
    own = {span: entry[2] for span, entry in tracer.totals.items()}
    solves = calls["admm_engine.solve"]
    updates = calls["penalty.update"]
    rho_changes = tracer.counts["penalty.rho_changes"]
    return {
        "kkt.factorize_calls": calls["kkt.factorize"],
        "kkt.factorize_s": own["kkt.factorize"],
        "kkt.factorize_ms": _per(own["kkt.factorize"], calls["kkt.factorize"], 1e3),
        "kkt.factorize_per_solve": _per(calls["kkt.factorize"], solves),
        "kkt.xstep_calls": calls["kkt.xstep"],
        "kkt.xstep_s": own["kkt.xstep"],
        "kkt.xstep_us": _per(own["kkt.xstep"], calls["kkt.xstep"], 1e6),
        "admm_engine.solve_calls": solves,
        "admm_engine.solve_s": tracer.totals["admm_engine.solve"][1],
        "admm_engine.self_s": own["admm_engine.solve"],
        "admm_engine.iter_self_us": _per(own["admm_engine.solve"],
                                         outcome["iterations"], 1e6),
        "admm_engine.zy_s": own["admm_engine.zy"],
        "admm_engine.residual_s": own["admm_engine.residual"],
        "penalty.update_calls": updates,
        "penalty.update_s": own["penalty.update"],
        "penalty.rho_changes": rho_changes,
        "penalty.rho_change_ratio": _per(rho_changes, updates),
        "lambda_controller.adjust_calls": calls["lambda_controller.adjust"],
        "lambda_controller.adjust_s": own["lambda_controller.adjust"],
        "lambda_controller.moves": tracer.counts["lambda_controller.moves"],
        "model.build_calls": calls["model.build"],
        "model.build_s": own["model.build"],
        "model.shorts_calls": calls["model.shorts"],
        "model.shorts_s": own["model.shorts"],
        "market_data.load_calls": calls["market_data.load"],
        "market_data.load_s": own["market_data.load"],
        "market_data.stats_s": own["market_data.stats"],
        "suites.make_s": own["suites.make"],
        "cli.self_s": own["cli"],
        "trace.wall_s": outcome["wall_s"],
        "trace.unattributed_s": outcome["wall_s"] - sum(own.values()),
    }


def absent_metrics(tracer: Tracer) -> list[str]:
    """Metrics that need a span or counter the program no longer has."""
    absent = {name for name, (_, spans) in LAYER_METRICS.items()
              if any(span not in tracer.present for span in spans)}
    absent.update(tracer.absent_counters)
    if "penalty.rho_changes" in absent:
        absent.add("penalty.rho_change_ratio")
    return sorted(absent)
