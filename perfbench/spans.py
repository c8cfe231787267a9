"""Spans around the public calls into each slowlight layer.

The tracer lives in the benchmark, not in the library: `install` replaces the
public functions and classmethods of each layer module with wrappers that
record a span (name, start, end, parent, chain id) and then call the
original.  Calls the library makes between modules through module
attributes are wrapped too, so a layer's self time excludes the time it
spends waiting on another layer.  Names a module bound with `from x import f`
keep pointing at the original, and `qops` is never wrapped, so that helper
work counts toward the calling layer.

Only calls made while a root span is open and the tracer is not paused
are recorded: chain.py opens the root around the timed chain only, and
pauses the tracer while a correctness gate runs, so neither set-up nor gate
work counts as layer time.

Spans stay in memory; the chain process returns them with its result and
the benchmark writes them out when the run ends.
"""

from __future__ import annotations

import contextlib
import functools

# layers in pipeline order; each is a module of the slowlight package
LAYERS = ("waveguide", "fluxcontrol", "dynamics", "protocol", "noise",
          "shots", "tomography")


def _evolve_notes(record) -> dict:
    """Counts taken where dynamics.evolve returns: simulated horizon and
    norm-ledger error (emitted + remaining = 1)."""
    return {"sim_ns": float(record.t[-1]) * 1e9,
            "ledger_err": abs(record.emitted_energy + record.remaining_norm - 1.0)}


NOTES = {"dynamics.evolve": _evolve_notes}


class Tracer:
    """Records spans; `clock` gives their start and end times."""

    def __init__(self, chain_id: str, clock):
        self.chain_id = chain_id
        self.clock = clock
        self.spans = []
        self._open = []
        self.paused = False

    def begin(self, name: str) -> dict:
        span = {"id": len(self.spans), "chain": self.chain_id, "name": name,
                "layer": name.split(".", 1)[0],
                "parent": self._open[-1]["id"] if self._open else None,
                "start": self.clock(), "end": None}
        self.spans.append(span)
        self._open.append(span)
        return span

    def end(self, span: dict) -> None:
        span["end"] = self.clock()
        self._open.pop()

    @contextlib.contextmanager
    def pause(self):
        """Calls made inside this block run unrecorded."""
        self.paused = True
        try:
            yield
        finally:
            self.paused = False

    def wrap(self, name: str, fn):
        note = NOTES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.paused or not self._open:
                return fn(*args, **kwargs)
            span = self.begin(name)
            try:
                result = fn(*args, **kwargs)
                if note is not None:
                    span["notes"] = note(result)
                return result
            finally:
                self.end(span)

        return traced

    def install(self, modules: dict) -> None:
        """Wrap every public function and classmethod of each layer module."""
        for layer, module in modules.items():
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if isinstance(obj, type):
                    for meth, raw in list(vars(obj).items()):
                        if isinstance(raw, classmethod) and not meth.startswith("_"):
                            wrapped = self.wrap(f"{layer}.{attr}.{meth}", raw.__func__)
                            setattr(obj, meth, classmethod(wrapped))
                elif callable(obj):
                    setattr(module, attr, self.wrap(f"{layer}.{attr}", obj))


class SpanTree:
    """Durations, self times and nesting of a finished span list."""

    def __init__(self, spans):
        self.spans = spans
        self.children = {s["id"]: [] for s in spans}
        for s in spans:
            if s["parent"] is not None:
                self.children[s["parent"]].append(s)

    @staticmethod
    def duration(span) -> float:
        return span["end"] - span["start"]

    def self_time(self, span) -> float:
        return self.duration(span) - sum(self.duration(c) for c in self.children[span["id"]])

    def parent_layer(self, span):
        if span["parent"] is None:
            return None
        return self.spans[span["parent"]]["layer"]

    def layer_busy(self, layer: str) -> float:
        return sum((self.self_time(s) for s in self.spans if s["layer"] == layer), 0.0)

    def layer_calls(self, layer: str) -> int:
        """Calls into the layer from outside it (nested calls are not counted)."""
        return sum(1 for s in self.spans
                   if s["layer"] == layer and self.parent_layer(s) != layer)

    def inclusive(self, *names) -> float:
        return sum((self.duration(s) for s in self.spans if s["name"] in names), 0.0)

    def own_time(self, span, skip) -> float:
        """Time of `span` spent in its own layer, descending into nested spans
        of that layer except those `skip` names."""
        total = self.self_time(span)
        for c in self.children[span["id"]]:
            if c["layer"] == span["layer"] and c["name"] not in skip:
                total += self.own_time(c, skip)
        return total

    def notes(self, name: str, key: str):
        return [s["notes"][key] for s in self.spans
                if s["name"] == name and "notes" in s]
