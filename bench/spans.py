"""Span tracer that wraps the program's public functions from outside.

Each listed function is replaced, for the duration of a traced run, by a
wrapper that counts calls and adds up total and self time. Self time is a
span's duration minus the time of the traced spans it called. A module-level
function is patched at every name it is looked up by: ``fedcore`` calls
``batches`` and ``substream`` through its own imported names, so those
bindings are patched too. A method is patched on its class. A function that
no longer exists is reported as absent; its metrics read 0.

Spans are aggregated in memory per name and read once the run ends, so
tracing holds no per-call records.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Callable

PACKAGE = "vhfl_lab"

# span -> the per-layer metrics reported for it; DenseLayer constructions are
# reported as nnet.layer_builds
SPANS: dict[str, tuple[str, ...]] = {
    "rng.substream": ('calls', 'self_s'),
    "nnet.forward": ('calls', 'self_s'),
    "nnet.backward": ('calls', 'self_s'),
    "nnet.sgd_step": ('calls', 'self_s'),
    "nnet.mse_loss": ('calls', 'self_s'),
    "nnet.dumps_net": ('self_s',),
    "nnet.DenseLayer.__init__": (),
    "datagen.generate": ('calls', 'self_s'),
    "datagen.batches": ('calls', 'self_s'),
    "datagen.GlobalStore.rows": ('calls', 'self_s'),
    "fedcore.select_clients": ('calls', 'self_s'),
    "fedcore.center_broadcast": ('calls', 'self_s'),
    "fedcore.client_update": ('calls', 'self_s', 'total_s'),
    "fedcore.aggregate_weights": ('calls', 'self_s'),
    "fedcore.central_update": ('calls', 'self_s'),
    "fedcore.evaluate": ('calls', 'self_s', 'total_s'),
    "fedcore.weighted_train_loss": ('calls', 'self_s', 'total_s'),
    "fedcore.run_vhfl": ('self_s',),
    "fedcore.run_hfl": ('self_s',),
    "fedcore.run_cloud": ('self_s',),
    "netqueue.analyze": ('calls', 'self_s'),
    "netqueue.success_rate": ('calls', 'self_s'),
    "netqueue.required_deadline": ('calls', 'self_s'),
    "netqueue.sample_sojourn": ('calls', 'self_s'),
    "netqueue.apply_channel": ('calls', 'self_s'),
    "netqueue.simulate_mg1": ('calls', 'self_s'),
    "netqueue.empirical_gamma": ('calls', 'self_s'),
    "harness.parse_config": ('calls', 'self_s'),
    "harness.run": ('self_s',),
}

# counter name -> (span, argument whose value each call adds)
ARG_COUNTERS = {"netqueue.jobs_simulated": ("netqueue.simulate_mg1", "n_jobs")}


@dataclass
class SpanStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


@dataclass
class Tracer:
    """Install with :meth:`install`, run the workload, then :meth:`uninstall`."""

    stats: dict[str, SpanStats] = field(default_factory=dict)
    counters: dict[str, int] = field(default_factory=dict)
    absent: list[str] = field(default_factory=list)
    _stack: list[list[float]] = field(default_factory=list)
    _patches: list[tuple[Any, str, Any]] = field(default_factory=list)

    def _wrap(self, name: str, fn: Callable[..., Any], counter: tuple[str, str] | None) -> Callable[..., Any]:
        stats = self.stats.setdefault(name, SpanStats())
        stack = self._stack
        clock = time.perf_counter
        signature = inspect.signature(fn) if counter else None
        counters = self.counters

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if signature is not None:
                counter_name, arg = counter
                counters[counter_name] += int(signature.bind(*args, **kwargs).arguments[arg])
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                stats.calls += 1
                stats.total_s += duration
                stats.self_s += duration - frame[0]
                if stack:
                    stack[-1][0] += duration

        return wrapper

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        found: list[tuple[str, Any, str, Any]] = []
        for name in SPANS:
            module_name, *path = name.split(".")
            try:
                owner: Any = importlib.import_module(f"{PACKAGE}.{module_name}")
                for attr in path[:-1]:
                    owner = getattr(owner, attr)
                original = owner.__dict__[path[-1]]
            except (ImportError, AttributeError, KeyError):
                self._mark_absent(name)
                continue
            found.append((name, owner, path[-1], original))
        modules = [m for n, m in list(sys.modules.items()) if n.startswith(PACKAGE + ".")]
        for name, owner, attr, original in found:
            counter = next(((c, arg) for c, (span, arg) in ARG_COUNTERS.items() if span == name), None)
            if counter is not None and counter[1] not in inspect.signature(original).parameters:
                self._mark_absent(counter[0])
                counter = None
            if counter is not None:
                self.counters.setdefault(counter[0], 0)
            wrapper = self._wrap(name, original, counter)
            if isinstance(owner, type):
                self._patch(owner, attr, wrapper)
                continue
            for module in modules:
                for bound, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, bound, wrapper)

    def _mark_absent(self, name: str) -> None:
        names = [name] + [c for c, (span, _) in ARG_COUNTERS.items() if span == name]
        self.absent.extend(n for n in names if n not in self.absent)

    def _patch(self, owner: Any, attr: str, wrapper: Any) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        if self._stack:
            raise RuntimeError("tracer uninstalled inside an open span")

    def calls(self, name: str) -> int:
        return self.stats[name].calls if name in self.stats else 0

    def counts(self) -> dict[str, int]:
        """Every count the tracer made, for comparing two runs."""
        return {**{n: s.calls for n, s in self.stats.items()}, **self.counters}
