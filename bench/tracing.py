"""Spans recorded around calls into the markoff package, from the outside.

A span has a name `<layer>.<call>`, a start and end time (perf_counter
seconds), the id of the span that was open when it began (its parent), the
request id it belongs to, an error flag and a small `info` dict for counts
taken from the call's result.  Spans stay in memory; the benchmark writes
them out once the run is over.

`Tracer.patch` swaps a module or class attribute for a span-recording
wrapper for the duration of a `with` block, so calls the package makes
internally (for example `cli.main` calling `construct_path`) are recorded
with their true nesting.
"""

import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

SPAN_KEYS = ("id", "name", "rid", "parent", "start", "end", "error", "info")


@dataclass
class Span:
    id: int
    name: str
    rid: str
    parent: Optional[int]
    start: float
    end: float = 0.0
    error: bool = False
    info: Dict[str, float] = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> dict:
        return asdict(self)


class Tracer:
    def __init__(self):
        self.spans: List[Span] = []
        self.rid = "-"
        self._open: List[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        parent = self._open[-1] if self._open else None
        sp = Span(len(self.spans), name, self.rid, parent, time.perf_counter())
        self.spans.append(sp)
        self._open.append(sp.id)
        try:
            yield sp
        except BaseException:
            sp.error = True
            raise
        finally:
            sp.end = time.perf_counter()
            self._open.pop()

    def wrap(self, fn: Callable, name: str,
             note: Optional[Callable[[Span, tuple, object], None]] = None) -> Callable:
        """fn with a span around every call; note(span, args, result) may
        copy counts from the arguments and result into span.info."""
        def traced(*args, **kwargs):
            with self.span(name) as sp:
                out = fn(*args, **kwargs)
                if note is not None:
                    note(sp, args, out)
                return out
        return traced

    @contextmanager
    def patch(self, targets: Sequence[Tuple[object, str, str, Optional[Callable]]]):
        """Replace owner.attr by a traced wrapper for each (owner, attr, span
        name, note) and restore the originals on exit."""
        saved = []
        try:
            for owner, attr, name, note in targets:
                raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
                saved.append((owner, attr, raw))
                if isinstance(raw, classmethod):
                    bound = getattr(owner, attr)
                    setattr(owner, attr, staticmethod(self.wrap(bound, name, note)))
                else:
                    setattr(owner, attr, self.wrap(raw, name, note))
            yield
        finally:
            for owner, attr, raw in reversed(saved):
                setattr(owner, attr, raw)


def self_times(spans: Sequence[Span]) -> List[float]:
    """Duration of each span minus the time its direct children cover.

    Children of one span run one after another (one thread, one client), so
    their durations do not overlap and can be summed."""
    out = [sp.duration for sp in spans]
    for sp in spans:
        if sp.parent is not None:
            out[sp.parent] -= sp.duration
    return out


def layer_self_seconds(spans: Sequence[Span], roots: Sequence[str]) -> Dict[str, float]:
    """Self time summed per layer over the trees under the named root spans
    (the root spans' own self time goes to their layer too)."""
    keep = set()
    for sp in spans:
        if sp.name in roots or (sp.parent is not None and sp.parent in keep):
            keep.add(sp.id)
    own = self_times(spans)
    out: Dict[str, float] = {}
    for sp in spans:
        if sp.id in keep:
            out[sp.layer] = out.get(sp.layer, 0.0) + own[sp.id]
    return out
